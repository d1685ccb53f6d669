"""Deterministic discrete-event simulation substrate."""
from repro.sim.clock import LocalClock, skewed_offsets
from repro.sim.delays import (
    DelayPolicy,
    FixedDelay,
    FunctionDelay,
    PerLinkDelay,
    UniformDelay,
)
from repro.sim.events import Event, EventQueue
from repro.sim.instrumentation import Instrumentation, resolve_instrumentation
from repro.sim.network import Network
from repro.sim.process import Agent, Party
from repro.sim.runner import RunResult, World, run_broadcast
from repro.sim.scheduler import Simulator
from repro.sim.transcript import (
    Transcript,
    first_divergence,
    indistinguishable,
)

__all__ = [
    "Agent",
    "DelayPolicy",
    "Event",
    "EventQueue",
    "FixedDelay",
    "FunctionDelay",
    "Instrumentation",
    "LocalClock",
    "Network",
    "Party",
    "PerLinkDelay",
    "RunResult",
    "Simulator",
    "Transcript",
    "UniformDelay",
    "World",
    "first_divergence",
    "indistinguishable",
    "resolve_instrumentation",
    "run_broadcast",
    "skewed_offsets",
]
