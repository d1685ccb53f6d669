"""Runtime invariant monitors: the safety oracle for faulted runs.

A monitor subscribes to commit events through the world's
:class:`~repro.sim.instrumentation.Instrumentation` bundle and raises a
structured :class:`~repro.errors.InvariantViolation` (carrying protocol,
party, time and the minimal event trace) the moment a property breaks —
*while the run executes*, not in a post-hoc assertion, so the violating
schedule is still on the stack when chaos catches it.

The four paper properties:

* :class:`AgreementMonitor` — no two non-faulty parties commit
  different values (safety; quorum intersection);
* :class:`ValidityMonitor` — if the broadcaster is non-faulty, every
  non-faulty commit is its input value;
* :class:`IntegrityMonitor` — a party commits at most once; a second
  commit attempt with a *different* value is a protocol bug
  (no-duplicate-commit);
* :class:`TerminationMonitor` — every non-faulty party commits by the
  deadline (liveness; checked at :meth:`finalize`, after the run).

``faulty`` is the set of parties the fault budget already spent —
Byzantine ids plus the plan's crashed parties — which the properties
exempt, exactly as the paper's definitions quantify over honest parties
only.  Monitors are per-execution, like the instrumentation bundle that
hosts them; :func:`standard_monitors` builds the usual battery.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import (
    AgreementViolation,
    IntegrityViolation,
    TerminationViolation,
    ValidityViolation,
    ViewProgressViolation,
)
from repro.types import PartyId, Value

if TYPE_CHECKING:
    from repro.sim.runner import World


class InvariantMonitor:
    """Base class: observes commits, checks one property.

    Lifecycle: the world calls :meth:`bind` once when the bundle is
    attached, :meth:`on_commit` per (first) commit,
    :meth:`on_commit_conflict` when a party re-commits a different
    value, and :meth:`finalize` after the run loop drains (via
    :func:`repro.analysis.chaos.judge`).  A monitor signals a breach by
    raising; it keeps the minimal trace that exhibits it.
    """

    invariant = "invariant"

    def __init__(self) -> None:
        self.protocol: str | None = None
        self.faulty: frozenset[PartyId] = frozenset()
        #: Minimal observed-event trace: ``(kind, party, value, time)``.
        self.trace: list[tuple] = []

    def bind(self, world: "World") -> None:
        self.faulty = world.faulty_ids
        if self.protocol is None:
            self.protocol = world.protocol_name

    def on_commit(self, party: PartyId, value: Value, time: float) -> None:
        """Called once per party, at its first commit."""

    def on_commit_conflict(
        self, party: PartyId, old: Value, new: Value, time: float
    ) -> None:
        """Called when a party re-commits with a different value."""

    def on_view(self, party: PartyId, view: int, time: float) -> None:
        """Called when a party enters a protocol view (view change)."""

    def finalize(self, world: "World") -> None:
        """End-of-run check (liveness properties live here)."""


class AgreementMonitor(InvariantMonitor):
    """No two non-faulty parties commit different values."""

    invariant = "agreement"

    def __init__(self) -> None:
        super().__init__()
        self._first: tuple[PartyId, Value, float] | None = None

    def on_commit(self, party: PartyId, value: Value, time: float) -> None:
        if party in self.faulty:
            return
        if self._first is None:
            self._first = (party, value, time)
            self.trace.append(("commit", party, value, time))
            return
        first_party, first_value, first_time = self._first
        if value != first_value:
            self.trace.append(("commit", party, value, time))
            raise AgreementViolation(
                f"party {party} committed {value!r} at t={time} but "
                f"party {first_party} committed {first_value!r} "
                f"at t={first_time}",
                protocol=self.protocol,
                party=party,
                time=time,
                trace=self.trace,
            )


class ValidityMonitor(InvariantMonitor):
    """Non-faulty commits equal the non-faulty broadcaster's input."""

    invariant = "validity"

    def __init__(self, *, broadcaster: PartyId, expected: Value) -> None:
        super().__init__()
        self.broadcaster = broadcaster
        self.expected = expected

    def on_commit(self, party: PartyId, value: Value, time: float) -> None:
        if party in self.faulty or self.broadcaster in self.faulty:
            return
        if value != self.expected:
            self.trace.append(("commit", party, value, time))
            raise ValidityViolation(
                f"party {party} committed {value!r} at t={time}, but the "
                f"honest broadcaster {self.broadcaster} "
                f"input {self.expected!r}",
                protocol=self.protocol,
                party=party,
                time=time,
                trace=self.trace,
            )


class IntegrityMonitor(InvariantMonitor):
    """A party commits at most once (no-duplicate-commit).

    First commits are idempotently recorded; a *conflicting* re-commit
    — same party, different value — is the bug this monitor exists for
    (the party runtime swallows it silently otherwise).
    """

    invariant = "integrity"

    def __init__(self) -> None:
        super().__init__()
        self._committed: dict[PartyId, tuple[Value, float]] = {}

    def on_commit(self, party: PartyId, value: Value, time: float) -> None:
        self._committed.setdefault(party, (value, time))
        self.trace.append(("commit", party, value, time))

    def on_commit_conflict(
        self, party: PartyId, old: Value, new: Value, time: float
    ) -> None:
        first = self._committed.get(party)
        trace = [("commit", party, old, first[1] if first else None),
                 ("recommit", party, new, time)]
        raise IntegrityViolation(
            f"party {party} re-committed {new!r} at t={time} after "
            f"committing {old!r}",
            protocol=self.protocol,
            party=party,
            time=time,
            trace=trace,
        )


class TerminationMonitor(InvariantMonitor):
    """Every non-faulty party commits by ``deadline``."""

    invariant = "termination"

    def __init__(self, *, deadline: float) -> None:
        super().__init__()
        self.deadline = deadline
        self._commit_times: dict[PartyId, float] = {}

    def on_commit(self, party: PartyId, value: Value, time: float) -> None:
        self._commit_times.setdefault(party, time)

    def finalize(self, world: "World") -> None:
        missing, late = [], []
        for party in range(world.n):
            if party in self.faulty:
                continue
            time = self._commit_times.get(party)
            if time is None:
                missing.append(party)
                self.trace.append(("no-commit", party, None, self.deadline))
            elif time > self.deadline:
                late.append((party, time))
                self.trace.append(("late-commit", party, None, time))
        if missing or late:
            raise TerminationViolation(
                f"by deadline {self.deadline}: "
                f"never committed {missing}, committed late {late}",
                invariant=self.invariant,
                protocol=self.protocol,
                party=(missing or [p for p, _ in late])[0],
                time=self.deadline,
                trace=self.trace,
            )


class TerminationAfterGst(TerminationMonitor):
    """Every non-faulty party commits within ``bound`` after GST.

    The partially-synchronous liveness property: before GST the
    adversary controls delays, so no deadline applies; after GST the
    protocol must commit within a protocol-dependent bound (view
    timeouts + a constant number of message delays).  Mechanically this
    is :class:`TerminationMonitor` with ``deadline = gst + bound``, but
    the distinct invariant name keeps chaos triage honest about *which*
    property a run broke.
    """

    invariant = "termination-after-gst"

    def __init__(self, *, gst: float, bound: float) -> None:
        super().__init__(deadline=gst + bound)
        self.gst = gst
        self.bound = bound


class ViewProgress(InvariantMonitor):
    """Views move forward and stay within the disruption budget.

    Two checks per non-faulty party:

    * **monotonicity** — a party never re-enters a lower view than one
      it already reached (view numbers only grow);
    * **boundedness** — no party climbs past ``max_view``, the highest
      view the run's fault budget justifies (crashed leaders + one).
      Runaway views mean timers fire when they should not — a liveness
      bug that plain termination monitors only catch indirectly.
    """

    invariant = "view-progress"

    def __init__(self, *, max_view: int) -> None:
        super().__init__()
        self.max_view = max_view
        self._views: dict[PartyId, int] = {}

    def on_view(self, party: PartyId, view: int, time: float) -> None:
        if party in self.faulty:
            return
        previous = self._views.get(party)
        if previous is not None and view < previous:
            self.trace.append(("view", party, view, time))
            raise ViewProgressViolation(
                f"party {party} regressed from view {previous} to "
                f"view {view} at t={time}",
                protocol=self.protocol,
                party=party,
                time=time,
                trace=self.trace,
            )
        if view > self.max_view:
            self.trace.append(("view", party, view, time))
            raise ViewProgressViolation(
                f"party {party} entered view {view} at t={time}, past "
                f"the disruption budget max_view={self.max_view}",
                protocol=self.protocol,
                party=party,
                time=time,
                trace=self.trace,
            )
        self._views[party] = view


def standard_monitors(
    *,
    broadcaster: PartyId = 0,
    expected: Value | None = None,
    deadline: float | None = None,
    protocol: str | None = None,
) -> "list[InvariantMonitor]":
    """The usual battery: agreement + integrity, plus validity when the
    broadcaster's input is known and termination when a deadline is.
    ``protocol`` labels any raised violation for triage."""
    monitors: list[InvariantMonitor] = [
        AgreementMonitor(), IntegrityMonitor()
    ]
    if expected is not None:
        monitors.append(
            ValidityMonitor(broadcaster=broadcaster, expected=expected)
        )
    if deadline is not None:
        monitors.append(TerminationMonitor(deadline=deadline))
    if protocol is not None:
        for monitor in monitors:
            monitor.protocol = protocol
    return monitors
