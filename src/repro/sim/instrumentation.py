"""Pluggable observability for simulated executions.

The simulator's cross-cutting observers — per-party view digests, the
Canetti-Rabin :class:`~repro.sim.rounds.RoundAccountant` and commit-order
tracking — all live behind one :class:`Instrumentation` bundle attached to
a :class:`~repro.sim.runner.World`.  The hot paths (message delivery,
multicast scheduling) bind the bundle's components once at construction
time; a disabled observer is represented by ``None`` and its recording
calls are *dead-stripped* from the hot path (guarded out before any
argument is evaluated), not called-and-ignored.

The observers are one switch, with a preset name for each position:

* ``"full"`` — observers on (the default): view digests for witnesses
  and behaviour fingerprints, and round accounting for latency in
  Canetti-Rabin rounds.  Every consumer of one needs the other or
  neither, so they are never attached apart.
* ``"perf"`` — observers off.  For perf sweeps and benchmarks at
  n >= 100 where observability side effects dominate the wall clock.

Commit tracking is on in both.  The switch changes cost, never
semantics: the same seed yields byte-identical commit outcomes either
way, and the simulator underneath (event queue, fan-out folding) is the
same.

Instances are **per-execution** (they own the accountant); pass a preset
*name* to :class:`~repro.sim.runner.World` and it resolves a fresh bundle
via :func:`resolve_instrumentation`.
"""
from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError
from repro.sim.rounds import RoundAccountant
from repro.sim.transcript import Transcript
from repro.types import PartyId

#: Preset name -> whether the observers are on.
PRESETS = {"full": True, "perf": False}


class Instrumentation:
    """One execution's bundle of observers.

    With ``observe=False`` the observers are ``None`` so every hot path
    can bind them once and skip the recording branch entirely:

    * ``accountant`` — step/round bookkeeping, or ``None``;
    * :meth:`transcript_for` — a fresh per-party view digest, or ``None``.

    Commit tracking (:meth:`note_commit`, :attr:`commit_conflicts`,
    :attr:`view_changes`) is always on: it is O(commits + views), not
    O(messages), and the invariant battery replayed over the run's
    result depends on it.

    The bundle is also the home of two cheap always-on counters: every
    :class:`~repro.protocols.quorum.QuorumTracker` a party creates
    registers here (:meth:`register_quorum_tracker`), and
    :attr:`quorum_checks` / :attr:`equivocations_detected` aggregate the
    trackers' tallies at result time — the hot path only increments a
    slot on its own tracker.
    """

    def __init__(self, *, observe: bool = True):
        self.name = "full" if observe else "perf"
        self.accountant: RoundAccountant | None = (
            RoundAccountant() if observe else None
        )
        self.commit_order: list[PartyId] = []
        #: ``(party, old, new, time)`` per re-commit of another value.
        self.commit_conflicts: list[tuple] = []
        #: ``(party, view, time)`` per protocol view a party enters.
        self.view_changes: list[tuple] = []
        self._quorum_trackers: list[Any] = []
        self._attached = False

    def transcript_for(self, party_id: PartyId) -> Transcript | None:
        """A fresh view digest for ``party_id``, or ``None`` when off."""
        if self.accountant is not None:
            return Transcript(party_id)
        return None

    def note_commit(self, party_id: PartyId) -> None:
        """Record that ``party_id`` committed (in global commit order).

        The commit itself — value, time, view — lives on the party and
        reaches :class:`~repro.sim.runner.RunResult` from there; the
        invariant monitors replay it after the run
        (:func:`repro.sim.invariants.judge`).
        """
        self.commit_order.append(party_id)

    def note_commit_conflict(
        self, party_id: PartyId, old: Any, new: Any, time: float
    ) -> None:
        """A party attempted a second commit with a different value."""
        self.commit_conflicts.append((party_id, old, new, time))

    def note_view_change(
        self, party_id: PartyId, view: int, time: float
    ) -> None:
        """A party entered protocol view ``view`` (view-based protocols
        only)."""
        self.view_changes.append((party_id, view, time))

    def register_quorum_tracker(self, tracker: Any) -> None:
        """Enroll a party's quorum tracker for counter aggregation."""
        self._quorum_trackers.append(tracker)

    @property
    def quorum_checks(self) -> int:
        """Total tally updates across this execution's quorum trackers."""
        return sum(t.checks for t in self._quorum_trackers)

    @property
    def votes_batched(self) -> int:
        """Votes absorbed as runs ``Party.stage_vote_run`` stages and
        ``QuorumTracker.commit_staged`` applies, not ``add_batch``."""
        return sum(t.batched for t in self._quorum_trackers)

    @property
    def equivocations_detected(self) -> int:
        """Equivocating signers observed, summed over all trackers.

        Per-tracker detection is opt-in, so this counts only protocols
        that asked for it; the same signer caught by k parties' trackers
        counts k times (each party independently witnessed the proof).
        """
        return sum(len(t.equivocators) for t in self._quorum_trackers)

    def mark_attached(self) -> None:
        """Claim this bundle for one execution (called by the world).

        Bundles are stateful (accountant, commit order), so attaching one
        to a second world would silently mix two runs' records — the same
        failure class the populate() guard catches.
        """
        if self._attached:
            raise ConfigurationError(
                "instrumentation bundle already attached to a world; "
                "bundles are per-execution — build a fresh one"
            )
        self._attached = True


def resolve_instrumentation(
    spec: "str | Instrumentation | None",
) -> Instrumentation:
    """Turn a preset name (or ready-made bundle) into an instance."""
    if spec is None:
        spec = "full"
    if isinstance(spec, Instrumentation):
        return spec
    try:
        return Instrumentation(observe=PRESETS[spec])
    except KeyError:
        raise ConfigurationError(
            f"unknown instrumentation preset {spec!r}; "
            f"expected one of {sorted(PRESETS)}"
        ) from None
