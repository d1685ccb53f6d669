"""Good-case latency measurement helpers.

Wraps the harness so benchmarks and the Table 1 generator can ask "what
is the good-case latency of protocol X" in one call.  A timing model is
the paper's numbers, not an object: synchrony is the actual delay
``delta``, the known bound ``Delta`` and the start skew ``sigma``;
asynchrony and partial synchrony (``GST = 0``) are measured in
Canetti-Rabin rounds, which do not depend on the delay scale.  Latency
is taken over the *worst* in-model delay assignment (all honest messages
at exactly ``delta``), which is the quantity the paper's bounds describe
("over all executions and adversarial strategies").
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.sim.clock import skewed_offsets
from repro.sim.delays import FixedDelay
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
    delta: float,
    big_delta: float,
    skew: float = 0.0,
    skew_pattern: str = "staggered",
    broadcaster: PartyId = 0,
    input_value: Any = "v",
    until: float | None = None,
    instrumentation: str | None = None,
    **protocol_kwargs: Any,
) -> LatencyMeasurement:
    """Good-case latency (time units) of a synchronous protocol.

    Every honest message takes exactly ``delta`` (the slowest the model
    allows) and parties start ``skew`` apart in ``skew_pattern``
    (:func:`~repro.sim.clock.skewed_offsets`); the protocol is told
    ``big_delta``.  ``0 < delta <= big_delta`` and ``skew >= 0`` or
    :class:`~repro.errors.ConfigurationError`.  ``instrumentation``
    selects an observability preset (``"full"`` / ``"perf"``); time
    latency only needs commit times, so either yields the same
    measurement.
    """
    if not 0 < delta <= big_delta:
        raise ConfigurationError(
            f"need 0 < delta <= Delta, got delta={delta}, Delta={big_delta}"
        )
    if skew < 0:
        raise ConfigurationError(f"skew must be >= 0, got {skew}")
    offsets = skewed_offsets(n, skew, pattern=skew_pattern)
    result = run_broadcast(
        n=n,
        f=f,
        party_factory=protocol_cls.factory(
            broadcaster=broadcaster,
            input_value=input_value,
            big_delta=big_delta,
            **protocol_kwargs,
        ),
        delay_policy=FixedDelay(delta),
        start_offsets=offsets,
        until=until,
        instrumentation=instrumentation,
    )
    return LatencyMeasurement(
        protocol=protocol_cls.__name__,
        n=n,
        f=f,
        time_latency=result.latency_from(offsets[broadcaster]),
        round_latency=None,
        messages=result.messages_sent,
        result=result,
    )


def measure_round_good_case(
    protocol_cls,
    *,
    n: int,
    f: int,
    broadcaster: PartyId = 0,
    input_value: Any = "v",
    until: float | None = None,
    instrumentation: str | None = None,
    **protocol_kwargs: Any,
) -> LatencyMeasurement:
    """Good-case latency (Canetti-Rabin rounds) under async / psync.

    Every message takes one time unit: rounds do not depend on the delay
    scale, and a partially synchronous good case has ``GST = 0``.  With
    ``instrumentation="perf"`` the run records no steps, so
    ``round_latency`` comes back ``None`` (commits and message counts are
    unaffected — that is the mode's contract).
    """
    result = run_broadcast(
        n=n,
        f=f,
        party_factory=protocol_cls.factory(
            broadcaster=broadcaster,
            input_value=input_value,
            **protocol_kwargs,
        ),
        delay_policy=FixedDelay(1.0),
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
