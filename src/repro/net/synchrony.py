"""The synchronous timing model with separated ``delta`` / ``Delta``.

Following the paper (and [2, 21, 28]):

* ``Delta`` — conservative delay bound, known to the protocol designer and
  hard-coded into protocols (timeouts, waiting windows);
* ``delta <= Delta`` — the *actual* per-execution bound, unknown to any
  party; the adversary may choose any delay in ``[0, delta]`` between
  honest pairs;
* ``skew`` (``sigma``) — parties start the protocol at most ``sigma``
  apart.  ``sigma = 0`` is the synchronized-start model; clock
  synchronization guarantees ``sigma <= delta``, and no algorithm can beat
  ``0.5 * delta``, which is what the tight lower bounds assume.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.clock import skewed_offsets
from repro.sim.delays import DelayPolicy, FixedDelay, UniformDelay


@dataclass(frozen=True)
class SynchronyModel:
    """Parameters of one synchronous execution."""

    delta: float
    big_delta: float
    skew: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.delta <= self.big_delta:
            raise ConfigurationError(
                f"need 0 < delta <= Delta, got delta={self.delta}, "
                f"Delta={self.big_delta}"
            )
        if self.skew < 0:
            raise ConfigurationError(f"skew must be >= 0, got {self.skew}")

    def worst_case_policy(self) -> DelayPolicy:
        """Every honest message takes exactly ``delta`` (the slowest the
        model allows), which maximizes good-case latency — the quantity the
        paper's bounds are stated over ("over all executions")."""
        return FixedDelay(self.delta)

    def random_policy(self, *, seed: int) -> DelayPolicy:
        """I.i.d. delays in ``[0, delta]`` for average-case exploration."""
        return UniformDelay(0.0, self.delta, seed=seed)

    def offsets(self, n: int, *, pattern: str = "staggered") -> list[float]:
        """Start offsets realizing the model's skew."""
        return skewed_offsets(n, self.skew, pattern=pattern)
