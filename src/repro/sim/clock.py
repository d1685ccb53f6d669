"""Local clocks with bounded skew and no drift.

Each party starts its protocol (and its local clock, at local time 0) at a
global time ``start_offset``; the clock-skew assumption of the paper is
that all honest offsets lie within a window of width ``sigma``.  The paper
assumes no drift, so ``local = global - start_offset`` throughout.

Lower bounds in the paper set ``sigma = 0.5 * delta`` (the smallest skew
achievable by clock synchronization per Attiya-Welch), upper bounds are
proven for any ``sigma <= delta``, and protocol code conservatively uses
``sigma = Delta`` internally because ``delta`` is unknown to it.
"""
from __future__ import annotations


#: Clock conversions are quantized to this many decimal places.  The
#: paper's constructions hinge on exact time coincidences (e.g. a party
#: that starts 0.5*delta late receiving a message delayed by an extra
#: 0.5*delta observes the *same* local timestamp); binary floating point
#: would otherwise break those ties at the 1e-17 level and with them the
#: indistinguishability the proofs (and our witnesses) rely on.
TIME_DECIMALS = 12


def quantize(value: float) -> float:
    """Snap a time value to the simulation's time resolution."""
    return round(value, TIME_DECIMALS)


class LocalClock:
    """A drift-free clock that started counting at ``start_offset``."""

    def __init__(self, start_offset: float = 0.0):
        if start_offset < 0:
            raise ValueError(f"start offset must be >= 0, got {start_offset}")
        self._start_offset = start_offset

    def local_time(self, global_time: float) -> float:
        """Convert global time to this party's local time."""
        return quantize(global_time - self._start_offset)

    def global_time(self, local_time: float) -> float:
        """Convert this party's local time to global time."""
        return quantize(local_time + self._start_offset)


def skewed_offsets(
    n: int, skew: float, *, pattern: str = "staggered"
) -> list[float]:
    """Generate per-party start offsets within a ``skew`` window.

    Patterns:

    * ``"zero"`` — synchronized start (all offsets 0, the paper's
      ``sigma = 0`` model);
    * ``"staggered"`` — evenly spread over ``[0, skew]`` (party 0 earliest);
    * ``"max"`` — party 0 at 0, everyone else at ``skew`` (worst split).
    """
    if skew < 0:
        raise ValueError(f"skew must be >= 0, got {skew}")
    if pattern == "zero" or skew == 0:
        return [0.0] * n
    if pattern == "staggered":
        if n == 1:
            return [0.0]
        return [skew * i / (n - 1) for i in range(n)]
    if pattern == "max":
        return [0.0] + [skew] * (n - 1)
    raise ValueError(f"unknown skew pattern {pattern!r}")
