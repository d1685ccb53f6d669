"""Good-case latency measurement helpers.

Wraps the harness so benchmarks and the Table 1 generator can ask "what
is the good-case latency of protocol X in timing model Y" in one call.
Latency is taken over the *worst* in-model delay assignment (all honest
messages at exactly ``delta``), which is the quantity the paper's bounds
describe ("over all executions and adversarial strategies").
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.asynchrony import AsynchronyModel
from repro.net.partial_synchrony import PartialSynchronyModel
from repro.net.synchrony import SynchronyModel
from repro.sim.runner import RunResult, run_broadcast
from repro.types import PartyId


@dataclass(frozen=True)
class LatencyMeasurement:
    """One good-case measurement with its context."""

    protocol: str
    n: int
    f: int
    time_latency: float | None
    round_latency: int | None
    messages: int
    result: RunResult


def measure_sync_good_case(
    protocol_cls,
    *,
    n: int,
    f: int,
    model: SynchronyModel,
    broadcaster: PartyId = 0,
    input_value: Any = "v",
    skew_pattern: str = "staggered",
    until: float | None = None,
    instrumentation: str | None = None,
    **protocol_kwargs: Any,
) -> LatencyMeasurement:
    """Good-case latency (time units) of a synchronous protocol.

    ``instrumentation`` selects an observability preset (``"full"`` /
    ``"perf"``); time latency only needs commit times, so either yields
    the same measurement.
    """
    protocol_kwargs.setdefault("big_delta", model.big_delta)
    result = run_broadcast(
        n=n,
        f=f,
        party_factory=protocol_cls.factory(
            broadcaster=broadcaster,
            input_value=input_value,
            **protocol_kwargs,
        ),
        delay_policy=model.worst_case_policy(),
        start_offsets=model.offsets(n, pattern=skew_pattern),
        until=until,
        instrumentation=instrumentation,
    )
    origin = model.offsets(n, pattern=skew_pattern)[broadcaster]
    return LatencyMeasurement(
        protocol=protocol_cls.__name__,
        n=n,
        f=f,
        time_latency=result.latency_from(origin),
        round_latency=None,
        messages=result.messages_sent,
        result=result,
    )


def measure_round_good_case(
    protocol_cls,
    *,
    n: int,
    f: int,
    model: AsynchronyModel | PartialSynchronyModel | None = None,
    broadcaster: PartyId = 0,
    input_value: Any = "v",
    until: float | None = None,
    instrumentation: str | None = None,
    **protocol_kwargs: Any,
) -> LatencyMeasurement:
    """Good-case latency (Canetti-Rabin rounds) under async / psync.

    With ``instrumentation="perf"`` the run records no steps, so
    ``round_latency`` comes back ``None`` (commits and message counts are
    unaffected — that is the mode's contract).
    """
    if model is None:
        model = AsynchronyModel()
    if isinstance(model, PartialSynchronyModel):
        policy = model.stable_policy()
    else:
        policy = model.policy()
    result = run_broadcast(
        n=n,
        f=f,
        party_factory=protocol_cls.factory(
            broadcaster=broadcaster,
            input_value=input_value,
            **protocol_kwargs,
        ),
        delay_policy=policy,
        until=until,
        instrumentation=instrumentation,
    )
    return LatencyMeasurement(
        protocol=protocol_cls.__name__,
        n=n,
        f=f,
        time_latency=None,
        round_latency=(
            result.round_latency() if result.rounds_recorded else None
        ),
        messages=result.messages_sent,
        result=result,
    )
