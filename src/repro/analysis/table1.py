"""Table 1 as data: the paper's complete good-case latency categorization.

:data:`REGIMES` is the one place a regime is spelled out: its resilience
range, its tight bound, the protocol that meets the bound, a sample
``(n, f)``, how it starts, and the :data:`repro.lowerbounds.WITNESSES` key of
the construction that proves the bound.  :func:`generate_table1` runs every
row that has a witness and reports the measured good-case latency next to
the bound; the two rows without one are the non-tight comparison protocols.

**Adding a regime or a baseline** is one :class:`Regime` row.  A row with a
``witness`` appears in :func:`generate_table1` (so in ``repro table1`` and
``benchmarks/bench_table1.py``) and is held to the partition, constructor
and witness checks of ``tests/analysis/test_table1_sweeps.py``; a row with a
``series`` label becomes a series of
:func:`repro.analysis.sweeps.sweep_sync_regimes` (so of ``repro sweep`` and
``benchmarks/bench_fig5_6_sync_bb.py``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.analysis.latency import (
    measure_round_good_case,
    measure_sync_good_case,
)
from repro.protocols.brb_2round import Brb2Round
from repro.protocols.dolev_strong import DolevStrongBb
from repro.protocols.psync.pbft import PbftPsync
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.protocols.sync.bb_2delta import Bb2Delta
from repro.protocols.sync.bb_delta_15delta import BbDelta15Delta
from repro.protocols.sync.bb_delta_2delta import BbDelta2Delta
from repro.protocols.sync.bb_delta_delta_n3 import BbDeltaDeltaN3
from repro.protocols.sync.bb_delta_delta_sync import BbDeltaDeltaSync
from repro.protocols.sync.dishonest_majority import (
    WanStyleBb,
    trustcast_rounds,
)

TOLERANCE = 1e-9


@dataclass(frozen=True)
class Table1Row:
    """One row of the reproduced Table 1."""

    problem: str
    timing: str
    resilience: str
    bound: str
    protocol: str
    n: int
    f: int
    measured: str
    matches: bool


@dataclass(frozen=True)
class Regime:
    """One (timing model, resilience range) regime and its protocol.

    ``admits(n, f)`` is the resilience range; ``expected(delta, Delta, n,
    f)`` the latency the protocol must measure (the tight bound, or for a
    non-tight row the protocol's own guarantee, with ``lower`` the proven
    lower bound).  ``start`` is ``"sync"`` or ``"unsync"`` (skew ``delta``);
    ``lockstep`` rows state their bound in ``Delta`` alone and run with
    ``delta = Delta``.  A ``grid_samples`` entry in ``kwargs`` (Figure 9) is
    the ``m`` of the table's run *and* of its check; the sweep hands the
    protocol the exact grid ``[delta, Delta]`` instead — two grids, one
    field, because the benchmark pins the message count of each.
    """

    problem: str
    timing: str
    resilience: str
    admits: Callable[[int, int], bool]
    bound: str
    expected: Callable[[float, float, int, int], float]
    protocol: type
    figure: str
    n: int
    f: int
    unit: str = "time"
    start: str = "sync"
    lockstep: bool = False
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    lower: Callable[[float, float, int, int], float] | None = None
    series: str | None = None
    witness: str | None = None

    def measure(
        self,
        *,
        delta: float,
        big_delta: float,
        exact_grid: bool = False,
        instrumentation: str | None = None,
    ) -> float:
        """Good-case latency of the protocol at the sample ``(n, f)``
        (``dataclasses.replace(regime, n=..., f=...)`` measures another)."""
        kwargs = dict(
            self.kwargs, n=self.n, f=self.f, instrumentation=instrumentation
        )
        if self.unit == "rounds":
            if self.timing != "asynchrony":  # asynchrony has no Delta
                kwargs["big_delta"] = big_delta
            return measure_round_good_case(
                self.protocol, **kwargs
            ).round_latency
        if exact_grid and "grid_samples" in kwargs:
            del kwargs["grid_samples"]
            kwargs["d_grid"] = [delta, big_delta]
        if self.lockstep:
            delta = big_delta
        return measure_sync_good_case(
            self.protocol,
            delta=delta,
            big_delta=big_delta,
            skew=delta if self.start == "unsync" else 0.0,
            **kwargs,
        ).time_latency

    def matches(self, value: float, delta: float, big_delta: float) -> bool:
        """Is a measured latency the ``expected`` one — never below it,
        above it only by the sampling slack ``Delta / (2m)`` — and no
        smaller than the proven ``lower`` bound?"""
        args = (delta, big_delta, self.n, self.f)
        want = self.expected(*args)
        m = self.kwargs.get("grid_samples")
        slack = big_delta / (2 * m) if m else 0.0
        return want - TOLERANCE <= value <= want + slack + TOLERANCE and (
            self.lower is None or value >= self.lower(*args)
        )


#: Table 1 in paper order, then the comparison protocols (no witness).
#: ``lambda d, D, n, f`` reads ``delta, Delta, n, f``.
REGIMES: tuple[Regime, ...] = (
    Regime("BRB", "asynchrony", "n >= 3f+1", lambda n, f: n >= 3 * f + 1,
           "2 rounds", lambda d, D, n, f: 2, Brb2Round, "Fig 1", 7, 2,
           unit="rounds", witness="thm04"),
    Regime("psync-BB", "partial synchrony", "n >= 5f-1",
           lambda n, f: n >= 5 * f - 1,
           "2 rounds", lambda d, D, n, f: 2, PsyncVbb5f1, "Fig 3", 9, 2,
           unit="rounds", witness="thm04"),
    Regime("psync-BB", "partial synchrony", "3f+1 <= n <= 5f-2",
           lambda n, f: 3 * f + 1 <= n <= 5 * f - 2,
           "3 rounds", lambda d, D, n, f: 3, PbftPsync, "PBFT", 7, 2,
           unit="rounds", witness="thm07"),
    Regime("BB", "synchrony", "0 < f < n/3", lambda n, f: 0 < 3 * f < n,
           "2*delta", lambda d, D, n, f: 2 * d, Bb2Delta, "Fig 10", 7, 2,
           start="unsync", series="2delta (f<n/3)", witness="thm08"),
    Regime("BB", "synchrony", "f = n/3", lambda n, f: 3 * f == n,
           "Delta + delta", lambda d, D, n, f: D + d,
           BbDeltaDeltaN3, "Fig 5", 6, 2,
           series="Delta+delta (f=n/3)", witness="thm09"),
    Regime("BB", "synchrony (sync start)", "n/3 < f < n/2",
           lambda n, f: n < 3 * f and 2 * f < n,
           "Delta + delta", lambda d, D, n, f: D + d,
           BbDeltaDeltaSync, "Fig 6", 5, 2,
           series="Delta+delta (sync start)", witness="thm09"),
    Regime("BB", "synchrony (unsync start)", "n/3 < f < n/2",
           lambda n, f: n < 3 * f and 2 * f < n,
           "Delta + 1.5*delta", lambda d, D, n, f: D + 1.5 * d,
           BbDelta15Delta, "Fig 9", 5, 2, start="unsync",
           kwargs={"grid_samples": 8},  # delta = 0.25 sits on this grid
           series="Delta+1.5delta (unsync)", witness="thm10"),
    Regime("BB", "synchrony", "n/2 <= f < n", lambda n, f: n <= 2 * f < 2 * n,
           "(floor(n/(n-f))-1)*Delta <= L <= O(n/(n-f))*Delta",
           lambda d, D, n, f: (1 + trustcast_rounds(n, f)) * D,
           WanStyleBb, "[34]-style", 6, 4, lockstep=True,
           lower=lambda d, D, n, f: (n // (n - f) - 1) * D, witness="thm19"),
    Regime("BB", "synchrony (unsync start)", "f < n/2",
           lambda n, f: 2 * f < n,
           "Delta + 2*delta", lambda d, D, n, f: D + 2 * d,
           BbDelta2Delta, "[4]", 5, 2, start="unsync",
           series="Delta+2delta (baseline)"),
    Regime("BB", "synchrony", "f < n", lambda n, f: f < n,
           "(f+1)*2*Delta", lambda d, D, n, f: (f + 1) * 2 * D,
           DolevStrongBb, "Dolev-Strong", 5, 2, kwargs={"until": 1000.0},
           series="DolevStrong (worst-case)"),
)


#: Figure label -> row, for the per-figure sweeps and benchmark scripts.
FIGURES = {row.figure: row for row in REGIMES}


def generate_table1(
    *, delta: float = 0.25, big_delta: float = 1.0
) -> list[Table1Row]:
    """Run every Table 1 regime; return measured-vs-paper rows."""
    rows: list[Table1Row] = []
    for regime in REGIMES:
        if regime.witness is None:
            continue
        value = regime.measure(delta=delta, big_delta=big_delta)
        rows.append(
            Table1Row(
                regime.problem,
                regime.timing,
                regime.resilience,
                regime.bound,
                protocol=f"{regime.protocol.__name__} ({regime.figure})",
                n=regime.n,
                f=regime.f,
                measured=(
                    f"{value} rounds"
                    if regime.unit == "rounds"
                    else f"{value:.4g}"
                ),
                matches=regime.matches(value, delta, big_delta),
            )
        )
    return rows


def format_table(rows: list[Table1Row]) -> str:
    """Render rows the way the paper's Table 1 is laid out."""
    header = (
        f"{'Problem':<10} {'Timing':<26} {'Resilience':<20} "
        f"{'Tight bound':<34} {'Measured':<12} {'OK':<3}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.problem:<10} {row.timing:<26} {row.resilience:<20} "
            f"{row.bound:<34} {row.measured:<12} "
            f"{'yes' if row.matches else 'NO'}"
        )
    return "\n".join(lines)
