"""Exception hierarchy for the reproduction library."""
from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """A protocol or simulation was configured with invalid parameters."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class FaultPlanError(ConfigurationError):
    """A fault plan is malformed (not merely adversarial).

    Raised by :meth:`repro.sim.faults.FaultPlan.validate` for structural
    problems — out-of-range parties, inverted time windows, probabilities
    outside ``[0, 1]`` — as opposed to plans that are well-formed but
    exceed the tolerated fault bounds (those are legal inputs: the chaos
    harness runs them on purpose to watch a monitor catch them).
    ``primitive`` carries the offending primitive when one is known.
    """

    def __init__(self, details: str, *, primitive: object = None):
        super().__init__(details)
        self.details = details
        self.primitive = primitive


class InvariantViolation(ReproError):
    """An invariant monitor observed a safety/liveness breach.

    Structured context for chaos triage: which ``invariant`` fired
    (``"agreement"``, ``"validity"``, ``"integrity"``, ``"termination"``),
    in which ``protocol``, at which ``party`` and simulated ``time``, plus
    the *minimal event trace* — the shortest sequence of observed events
    (commit records, missing-commit markers) that exhibits the breach,
    each a plain ``(kind, party, value, time)`` tuple.
    """

    def __init__(
        self,
        invariant: str,
        details: str,
        *,
        protocol: str | None = None,
        party: int | None = None,
        time: float | None = None,
        trace: tuple = (),
    ):
        super().__init__(f"[{invariant}] {details}")
        self.invariant = invariant
        self.details = details
        self.protocol = protocol
        self.party = party
        self.time = time
        self.trace = tuple(trace)


class AgreementViolation(InvariantViolation):
    """Two honest parties committed different values.

    Raised by the agreement monitor (and collected by the harness when
    checking the agreement property).  Lower-bound witnesses *expect*
    this for strawman protocols.
    """

    def __init__(self, details: str, **context):
        super().__init__("agreement", details, **context)


class ValidityViolation(InvariantViolation):
    """An honest broadcaster's value was not the committed value."""

    def __init__(self, details: str, **context):
        super().__init__("validity", details, **context)


class IntegrityViolation(InvariantViolation):
    """A party attempted to commit twice with different values."""

    def __init__(self, details: str, **context):
        super().__init__("integrity", details, **context)


class TerminationViolation(InvariantViolation):
    """A protocol failed to terminate within the simulation horizon.

    ``invariant`` defaults to ``"termination"``; deadline monitors with a
    sharper contract (e.g. termination-after-GST) override it so triage
    records which liveness property actually broke.
    """

    def __init__(
        self, details: str, *, invariant: str = "termination", **context
    ):
        super().__init__(invariant, details, **context)


class ViewProgressViolation(InvariantViolation):
    """A party's view number regressed or exceeded the disruption budget."""

    def __init__(self, details: str, **context):
        super().__init__("view-progress", details, **context)
