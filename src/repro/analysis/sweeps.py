"""Parameter sweeps behind the paper's figures.

Each function returns plain data (lists of points) so benchmarks,
examples and tests can assert on shapes without plotting dependencies.

Every sweep is expressed as a grid of independent, module-level *point
functions* executed through :class:`~repro.analysis.engine.SweepEngine`:
pass ``engine=SweepEngine(workers=K)`` to fan a grid out over K worker
processes (results are identical to the serial default — the engine's
determinism contract), and ``instrumentation="rounds"``/``"perf"`` to
shed transcript/accounting overhead on large grids.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.analysis.engine import SweepEngine, SweepTask
from repro.analysis.latency import measure_round_good_case
from repro.analysis.table1 import FIGURES, REGIMES
from repro.protocols import PROTOCOLS


@dataclass(frozen=True)
class SweepPoint:
    x: float
    latency: float
    label: str


def _default_engine(engine: SweepEngine | None) -> SweepEngine:
    return engine if engine is not None else SweepEngine()


#: Synchronous-regime series: every ``REGIMES`` row that names one.  The
#: point function looks rows up by name so grid tasks ship only plain
#: picklable data to the workers.
_SYNC_SERIES = {row.series: row for row in REGIMES if row.series}


def _sync_regime_point(
    *,
    series: str,
    delta: float,
    big_delta: float,
    instrumentation: str = "full",
) -> SweepPoint:
    row = _SYNC_SERIES[series]
    latency = row.measure(
        delta=delta,
        big_delta=big_delta,
        exact_grid=True,
        instrumentation=instrumentation,
    )
    return SweepPoint(delta, latency, row.figure)


def sweep_sync_regimes(
    *,
    deltas: list[float],
    big_delta: float = 1.0,
    engine: SweepEngine | None = None,
    instrumentation: str = "full",
) -> dict[str, list[SweepPoint]]:
    """Latency vs delta/Delta for every synchronous regime (Table 1 rows).

    The series' separation *is* the paper's synchrony story: 2*delta,
    Delta + delta, Delta + 1.5*delta, Delta + 2*delta, and the flat
    (f+1)*2*Delta worst-case baseline.
    """
    engine = _default_engine(engine)
    names = list(_SYNC_SERIES)
    tasks = [
        SweepTask(
            _sync_regime_point,
            dict(
                series=name,
                delta=delta,
                big_delta=big_delta,
                instrumentation=instrumentation,
            ),
            key=(name, delta),
        )
        for name in names
        for delta in deltas
    ]
    results = engine.run(tasks)
    series: dict[str, list[SweepPoint]] = {name: [] for name in names}
    for task, point in zip(tasks, results):
        series[task.key[0]].append(point)
    return series


def _fig9_point(
    *,
    m: int,
    delta: float,
    big_delta: float,
    instrumentation: str = "full",
) -> SweepPoint:
    # Measured under synchronized start: m is the only thing that varies.
    row = replace(FIGURES["Fig 9"], start="sync", kwargs={"grid_samples": m})
    latency = row.measure(
        delta=delta, big_delta=big_delta, instrumentation=instrumentation
    )
    return SweepPoint(m, latency, f"m={m}")


def sweep_fig9_tradeoff(
    *,
    grid_sizes: list[int],
    delta: float = 0.3,
    big_delta: float = 1.0,
    engine: SweepEngine | None = None,
    instrumentation: str = "full",
) -> list[SweepPoint]:
    """The Figure 9 communication/latency tradeoff: m samples of d.

    The paper: m uniform samples give ``(1 + 1/(2m)) * Delta + 1.5*delta``
    with O(m n^2) messages.  Returns measured latency per m.
    """
    engine = _default_engine(engine)
    return engine.map(
        _fig9_point,
        [
            dict(
                m=m,
                delta=delta,
                big_delta=big_delta,
                instrumentation=instrumentation,
            )
            for m in grid_sizes
        ],
        keys=grid_sizes,
    )


def _dishonest_majority_point(
    *,
    n: int,
    f: int,
    big_delta: float,
    instrumentation: str = "full",
) -> dict:
    row = replace(FIGURES["[34]-style"], n=n, f=f)
    args = (big_delta, big_delta, n, f)
    return {
        "n": n,
        "f": f,
        "ratio": n / (n - f),
        "latency": row.measure(
            delta=big_delta,
            big_delta=big_delta,
            instrumentation=instrumentation,
        ),
        "lower_bound": row.lower(*args),
        "upper_shape": row.expected(*args),
    }


def sweep_dishonest_majority(
    *,
    configs: list[tuple[int, int]],
    big_delta: float = 1.0,
    engine: SweepEngine | None = None,
    instrumentation: str = "full",
) -> list[dict]:
    """Good-case latency vs n/(n-f) for the f >= n/2 regime.

    Returns one record per (n, f) with the measured latency, the paper's
    lower bound, and the expected upper-bound shape.
    """
    engine = _default_engine(engine)
    return engine.map(
        _dishonest_majority_point,
        [
            dict(
                n=n,
                f=f,
                big_delta=big_delta,
                instrumentation=instrumentation,
            )
            for n, f in configs
        ],
        keys=configs,
    )


def _async_rounds_point(*, n: int, f: int) -> dict:
    # Round latency needs round accounting, so these points always run
    # with (at least) "rounds" instrumentation.
    from repro.protocols.brb_2round import Brb2Round
    from repro.protocols.brb_bracha import BrachaBrb

    return {
        "n": n,
        "f": f,
        "brb_2round": measure_round_good_case(
            Brb2Round, n=n, f=f, instrumentation="rounds"
        ).round_latency,
        "bracha": measure_round_good_case(
            BrachaBrb, n=n, f=f, instrumentation="rounds"
        ).round_latency,
    }


def sweep_async_rounds(
    *,
    configs: list[tuple[int, int]],
    engine: SweepEngine | None = None,
) -> list[dict]:
    """Round latency of the async/psync protocols across system sizes."""
    engine = _default_engine(engine)
    return engine.map(
        _async_rounds_point,
        [dict(n=n, f=f) for n, f in configs],
        keys=configs,
    )


#: Protocol families the latency-distribution sweep accepts.
DISTRIBUTION_PROTOCOLS = ("brb_2round", "psync_vbb_5f1")


def _distribution_protocol(name: str):
    """Resolve a latency-distribution protocol family by bench label."""
    if name not in DISTRIBUTION_PROTOCOLS:
        raise ValueError(
            f"unknown distribution protocol {name!r}; "
            f"expected one of {sorted(DISTRIBUTION_PROTOCOLS)}"
        )
    return PROTOCOLS[name]


def _random_delay_point(
    *,
    n: int,
    f: int,
    delta: float,
    seed: int,
    instrumentation: str = "perf",
    protocol: str = "brb_2round",
) -> dict:
    from repro.sim.delays import UniformDelay
    from repro.sim.runner import run_broadcast

    cls = _distribution_protocol(protocol)
    result = run_broadcast(
        n=n,
        f=f,
        party_factory=cls.factory(broadcaster=0, input_value="v"),
        delay_policy=UniformDelay(0.0, delta, seed=seed),
        instrumentation=instrumentation,
    )
    return {
        "protocol": protocol,
        "n": n,
        "f": f,
        "seed": seed,
        "latency": result.latency_from(0.0),
        "messages": result.messages_sent,
        "all_committed": result.all_honest_committed(),
    }


def sweep_random_delays(
    *,
    n: int,
    f: int,
    samples: int,
    delta: float = 1.0,
    engine: SweepEngine | None = None,
    instrumentation: str = "perf",
    protocol: str = "brb_2round",
) -> list[dict]:
    """Average-case completion under seeded i.i.d. delays in [0, delta].

    ``protocol`` selects the family (``"brb_2round"`` — the default — or
    ``"psync_vbb_5f1"``; delays stay below the psync protocol's
    ``big_delta`` of 1.0, so views never time out in these runs).  Each
    of the ``samples`` points runs under a *deterministic per-point
    seed* derived from the engine's ``base_seed`` (the engine injects it),
    so the whole distribution reproduces bit-for-bit at any worker count.
    The worst-case sweeps above are the paper's bounds; this one samples
    the gap between them and typical executions.
    :func:`sweep_latency_distribution` aggregates these points into
    percentile rows (the ``categorization`` workload of
    ``benchmarks/e2e/run.py`` runs it).
    """
    engine = _default_engine(engine)
    # The task key salts the injected per-point seed.  The default
    # protocol keeps the pre-protocol-dimension key shape so every
    # tracked BRB distribution number reproduces bit-for-bit from the
    # same base_seed; only new families get protocol-salted keys.
    def _key(index: int) -> tuple:
        if protocol == "brb_2round":
            return ("random-delay", n, f, index)
        return ("random-delay", protocol, n, f, index)

    tasks = [
        SweepTask(
            _random_delay_point,
            dict(
                n=n,
                f=f,
                delta=delta,
                instrumentation=instrumentation,
                protocol=protocol,
            ),
            key=_key(index),
            inject_seed=True,
        )
        for index in range(samples)
    ]
    return engine.run(tasks)


def _equivocating_voters_point(
    *,
    n: int,
    f: int,
    equivocators: int,
    delta: float,
    seed: int,
    instrumentation: str = "perf",
    crashers: int = 0,
) -> dict:
    from repro.adversary.behaviors import crash_and_equivocate, equivocate_votes
    from repro.protocols.brb_2round import Brb2Round
    from repro.sim.delays import UniformDelay
    from repro.sim.runner import run_broadcast

    # Corrupt the highest ids so the broadcaster (0) stays honest: the
    # top `crashers` ids crash at time 0, the next `equivocators` ids
    # double-vote.
    byzantine = frozenset(range(n - equivocators - crashers, n))
    if crashers:
        behavior_factory = crash_and_equivocate(
            broadcaster=0,
            crashers=frozenset(range(n - crashers, n)),
        )
    else:
        behavior_factory = equivocate_votes(broadcaster=0)
    result = run_broadcast(
        n=n,
        f=f,
        party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
        byzantine=byzantine,
        behavior_factory=behavior_factory,
        delay_policy=UniformDelay(0.0, delta, seed=seed),
        instrumentation=instrumentation,
    )
    return {
        "n": n,
        "f": f,
        "equivocators": equivocators,
        "crashers": crashers,
        "seed": seed,
        "all_committed": result.all_honest_committed(),
        "agreement": result.agreement_holds(),
        "latency": result.latency_from(0.0),
        "messages": result.messages_sent,
        "equivocations_detected": result.equivocations_detected,
        "quorum_checks": result.quorum_checks,
    }


def sweep_equivocating_voters(
    *,
    n: int,
    f: int,
    equivocator_counts: list[int],
    delta: float = 1.0,
    engine: SweepEngine | None = None,
    instrumentation: str = "perf",
    crashers: int = 0,
) -> list[dict]:
    """BRB under the ``equivocate_votes`` adversary, per corruption level.

    Each grid point corrupts the top ``k`` ids (``k <= f``) with
    :class:`~repro.adversary.behaviors.EquivocatingVoterBehavior` —
    every corrupted party signs votes for *two* values — and reports
    whether all honest parties still committed in agreement, plus the
    tracker-level evidence: ``equivocations_detected`` counts the
    double-voters exposed by the honest parties' quorum trackers — each
    honest tracker independently witnesses every equivocator whose
    second vote lands before that party commits and terminates, so the
    count grows with ``k`` up to about ``k * (n - k)``.  Seeded like
    every other sweep: deterministic at any worker count.

    ``crashers`` additionally crashes that many of the *top* corrupted
    ids at time 0 (total corruption ``k + crashers <= f``) through the
    mixed :func:`~repro.adversary.behaviors.crash_and_equivocate`
    factory.  The default ``crashers=0`` keeps the original task keys,
    so every tracked equivocation number reproduces bit-for-bit.
    """
    engine = _default_engine(engine)
    # crashers=0 keeps the historical key shape (seed compatibility).
    def _key(k: int) -> tuple:
        if crashers == 0:
            return ("equivocate-votes", n, f, k)
        return ("equivocate-votes", n, f, k, crashers)

    tasks = [
        SweepTask(
            _equivocating_voters_point,
            dict(
                n=n,
                f=f,
                equivocators=k,
                delta=delta,
                instrumentation=instrumentation,
                crashers=crashers,
            ),
            key=_key(k),
            inject_seed=True,
        )
        for k in equivocator_counts
    ]
    return engine.run(tasks)


def latency_percentiles(
    latencies: list[float], percentiles: tuple[int, ...] = (50, 90, 99)
) -> dict[str, float]:
    """Nearest-rank percentiles of a latency sample (deterministic).

    Nearest-rank (no interpolation) keeps the values *actual observed
    latencies*, so a reported p99 is always an execution that happened.
    """
    if not latencies:
        raise ValueError("percentiles need at least one sample")
    ordered = sorted(latencies)
    last = len(ordered) - 1
    return {
        f"p{p}": ordered[min(last, max(0, math.ceil(p / 100 * len(ordered)) - 1))]
        for p in percentiles
    }


def sweep_latency_distribution(
    *,
    grid: list[tuple],
    samples: int,
    delta: float = 1.0,
    engine: SweepEngine | None = None,
    instrumentation: str = "perf",
    percentiles: tuple[int, ...] = (50, 90, 99),
) -> list[dict]:
    """Good-case latency *distribution* per grid point.

    Grid entries are ``(n, f)`` pairs (2-round-BRB, the original grid)
    or ``(protocol, n, f)`` triples — ``protocol`` is a family label
    accepted by :func:`sweep_random_delays` (``"brb_2round"`` /
    ``"psync_vbb_5f1"``), so the tracked distribution covers more than
    one protocol family.

    The paper's theorems bound the worst case; this benchmark measures
    where typical executions land: for each grid point it runs ``samples``
    seeded random-delay executions (through :func:`sweep_random_delays`,
    so any engine worker count reproduces the same numbers) and reports
    nearest-rank percentiles of the good-case latency alongside
    mean/min/max.  A run in which an honest party never commits raises
    (``latency_from`` refuses to report a latency for it), so every row
    aggregates fully-committed executions only.  One row per grid
    point::

        {"protocol": "brb_2round", "n": 101, "f": 33, "samples": 50,
         "delta": 1.0, "p50": ..., "p90": ..., "p99": ..., "mean": ..., ...}
    """
    engine = _default_engine(engine)
    rows = []
    for entry in grid:
        if len(entry) == 3:
            protocol, n, f = entry
        else:
            n, f = entry
            protocol = "brb_2round"
        points = sweep_random_delays(
            n=n,
            f=f,
            samples=samples,
            delta=delta,
            engine=engine,
            instrumentation=instrumentation,
            protocol=protocol,
        )
        latencies = [point["latency"] for point in points]
        rows.append(
            {
                "protocol": protocol,
                "n": n,
                "f": f,
                "samples": samples,
                "delta": delta,
                **latency_percentiles(latencies, percentiles),
                "mean": sum(latencies) / len(latencies),
                "min": min(latencies),
                "max": max(latencies),
            }
        )
    return rows
