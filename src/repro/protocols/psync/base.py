"""The PBFT view framework, written once for the three psync protocols.

Numbered views led round-robin from the broadcaster, a ``4 * Delta`` view
timer, one timeout / view-change message per expired view, and a quorum
of those moving everybody to the next view.  :class:`ViewParty` owns that
pacemaker; a protocol supplies its phases through the hooks
:meth:`~ViewParty._propose_initial`, :meth:`~ViewParty._timeout_message`,
:meth:`~ViewParty._on_enter_view` and :meth:`~ViewParty._replay_proposal`.

PBFT and FaB — proposals ``<PROPOSE, value, view, justification>_L``
justified by a quorum of ``<VIEWCHANGE, view - 1, report>_i`` — share one
more layer, :class:`ViewChangeParty`: the proposal head, the view-change
tally and its advance-on-quorum tail, and the new leader's re-proposal.
The rules on which the two differ are what a party reports
(:meth:`~ViewChangeParty._viewchange_report`), what a quorum of reports
carries over (:meth:`~ViewChangeParty._carried_value`) and the vote a
party casts (:meth:`~ViewChangeParty._vote`).
"""
from __future__ import annotations

from typing import Any

from repro.crypto.signatures import SignedPayload
from repro.errors import ConfigurationError
from repro.protocols.base import BroadcastParty
from repro.protocols.psync.certificates import ExternalValidity, always_valid
from repro.protocols.quorum import commit_quorum
from repro.types import PartyId, Value, validate_resilience


def round_robin_leader(broadcaster: PartyId, view: int, n: int) -> PartyId:
    """Leader of ``view``: round-robin, view 1 led by the broadcaster."""
    return (broadcaster + view - 1) % n


class ViewParty(BroadcastParty):
    """One replica of a PBFT-style view protocol."""

    #: ``validate_resilience`` requirement; overridable so lower-bound
    #: witnesses can instantiate a protocol below its designed resilience.
    RESILIENCE: str

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        broadcaster: PartyId,
        input_value: Value | None = None,
        big_delta: float = 1.0,
        external_validity: ExternalValidity = always_valid,
        fallback_value: Value = "fallback",
        max_view: int = 50,
    ):
        super().__init__(
            world, party_id, broadcaster=broadcaster, input_value=input_value
        )
        validate_resilience(self.n, self.f, requirement=self.RESILIENCE)
        if big_delta <= 0:
            raise ConfigurationError(f"Delta must be > 0, got {big_delta}")
        self.big_delta = big_delta
        self.external_validity = external_validity
        self.fallback_value = fallback_value
        self.max_view = max_view
        self.quorum = commit_quorum(self.n, self.f)
        self.current_view = 1
        #: Whether this party leads ``current_view``; kept by
        #: ``_enter_view``, so a per-delivery leader check reads a flag.
        self.leads_current_view = self.leader_of(1) == self.id
        self._voted: dict[int, Any] = {}  # view -> what I voted for there
        self._timed_out: set[int] = set()
        self._advanced_past: set[int] = set()  # views whose quorum fired
        self._pending_proposals: dict[int, SignedPayload] = {}
        self._proposed_in: set[int] = set()

    def leader_of(self, view: int) -> PartyId:
        return round_robin_leader(self.broadcaster, view, self.n)

    def _own_value(self) -> Value:
        """A new leader's free choice: its input, else the fallback."""
        if self.input_value is not None:
            return self.input_value
        return self.fallback_value

    def on_start(self) -> None:
        self.note_view(1)
        self._arm_view_timer(1)
        if self.is_broadcaster:
            self._propose_initial()

    def _propose_initial(self) -> None:
        """Hook: the broadcaster's view-1 proposal."""
        raise NotImplementedError

    def on_recover(self) -> None:
        """Back from a crash window: restore view-timer liveness.

        Timers fired while down leave ``_timed_out`` marked but their
        timeout multicast suppressed — without re-announcing it here the
        recovered party never rejoins the view change.  Otherwise the
        pending timer (armed pre-crash from a stale local instant) is
        re-armed from *now*.
        """
        if self.terminated or self.has_committed:
            return
        view = self.current_view
        if view in self._timed_out:
            self.multicast(self._timeout_message(view))
        else:
            self._arm_view_timer(view)

    def _arm_view_timer(self, view: int) -> None:
        self.after_local_delay(
            4 * self.big_delta, lambda: self._maybe_timeout(view)
        )

    def _maybe_timeout(self, view: int) -> None:
        if self.has_committed or self.current_view != view:
            return
        self._do_timeout(view)

    def _do_timeout(self, view: int) -> None:
        if view in self._timed_out:
            return
        self._timed_out.add(view)
        self.multicast(self._timeout_message(view))

    def _timeout_message(self, view: int) -> Any:
        """Hook: this party's timeout / view-change message for ``view``."""
        raise NotImplementedError

    def _may_advance(self, view: int) -> bool:
        """May a timeout quorum of ``view`` still move this party on?"""
        return not (
            view in self._advanced_past
            or view + 1 <= self.current_view
            or view + 1 > self.max_view
        )

    def _advance(self, view: int, forward: Any) -> None:
        """A timeout quorum of ``view`` formed: forward it and move on."""
        self._advanced_past.add(view)
        self.multicast(forward, include_self=False)
        self._enter_view(view + 1)

    def _enter_view(self, view: int) -> None:
        self.current_view = view
        self.leads_current_view = self.leader_of(view) == self.id
        self.note_view(view)
        self._arm_view_timer(view)
        self._on_enter_view(view)
        pending = self._pending_proposals.pop(view, None)
        if pending is not None:
            self._replay_proposal(pending)

    def _on_enter_view(self, view: int) -> None:
        """Hook: the protocol's new-view step (re-propose, send status)."""

    def _replay_proposal(self, proposal: SignedPayload) -> None:
        """Hook: the proposal that was buffered for the view just entered."""
        raise NotImplementedError


class ViewChangeParty(ViewParty):
    """A view protocol whose proposals carry a view-change quorum."""

    #: Tags of ``<PROPOSE, value, view, justification>_L``, of
    #: ``<VIEWCHANGE, view, report>_i`` and of the forwarded quorum.
    PROPOSE_TAG: str
    VIEWCHANGE_TAG: str
    VIEWCHANGES_TAG: str

    def __init__(self, world, party_id: PartyId, **kwargs: Any):
        super().__init__(world, party_id, **kwargs)
        # Per view, arrival-ordered: forwards and justifications are
        # built from ``entries(view)``.
        self._viewchanges = self.quorum_tracker()

    def _propose_initial(self) -> None:
        self.multicast(
            self.signer.sign((self.PROPOSE_TAG, self.input_value, 1, None))
        )

    def _replay_proposal(self, proposal: SignedPayload) -> None:
        self._on_proposal(proposal)

    def _on_proposal(self, proposal: SignedPayload) -> None:
        if not self.verify(proposal):
            return
        body = proposal.payload
        if not (isinstance(body, tuple) and len(body) == 4):
            return
        _, value, view, justification = body
        if not isinstance(view, int) or view < 1:
            return
        if proposal.signer != self.leader_of(view):
            return
        if view > self.current_view:
            self._pending_proposals.setdefault(view, proposal)
            return
        if view < self.current_view:
            return
        if view in self._voted or view in self._timed_out:
            return
        if not self.external_validity(value):
            return
        if not self._justified(view, value, justification):
            return
        self._voted[view] = value
        self._vote(view, value)

    def _vote(self, view: int, value: Value) -> None:
        """Hook: multicast this party's vote for the accepted proposal."""
        raise NotImplementedError

    def _justified(self, view: int, value: Value, justification) -> bool:
        if view == 1:
            return True
        carried = self._carried_value(view - 1, justification)
        if carried is ...:
            return False
        return carried is None or carried == (value,)

    def _carried_value(self, vc_view: int, justification) -> Any:
        """Hook: the value a view-change set of ``vc_view`` carries over.

        ``...`` (Ellipsis) for a malformed or sub-quorum set, ``None``
        when the set is valid and leaves the new leader a free choice,
        else the 1-tuple ``(value,)`` — a carried value may itself be
        ``None`` (a Byzantine leader can get ``None`` prepared), and that
        binds the next leader like any other.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # timeouts and view change
    # ------------------------------------------------------------------ #

    def _timeout_message(self, view: int) -> SignedPayload:
        return self.signer.sign(
            (self.VIEWCHANGE_TAG, view, self._viewchange_report())
        )

    def _viewchange_report(self) -> Any:
        """Hook: what this party's view-change message reports."""
        raise NotImplementedError

    def _viewchange_view(self, msg) -> int | None:
        """The view of a valid ``<VIEWCHANGE, view, report>_i``."""
        if not isinstance(msg, SignedPayload) or not self.verify(msg):
            return None
        body = msg.payload
        if not (
            isinstance(body, tuple)
            and len(body) == 3
            and body[0] == self.VIEWCHANGE_TAG
        ):
            return None
        view = body[1]
        if not isinstance(view, int) or view < 1:
            return None
        return view

    def _on_viewchange(self, msg: SignedPayload) -> None:
        view = self._viewchange_view(msg)
        if view is None:
            return
        self._viewchanges.add(view, msg.signer, msg)
        if (
            self._may_advance(view)
            and self._viewchanges.count(view) >= self.quorum
        ):
            self._advance(
                view,
                (self.VIEWCHANGES_TAG, tuple(self._viewchanges.entries(view))),
            )

    def _on_enter_view(self, view: int) -> None:
        """New leader: re-propose what the view-change quorum carries."""
        if self.leader_of(view) != self.id or view in self._proposed_in:
            return
        self._proposed_in.add(view)
        justification = tuple(self._viewchanges.entries(view - 1))
        carried = self._carried_value(view - 1, justification)
        if carried is ...:
            return  # cannot justify (should not happen after the quorum)
        value = self._own_value() if carried is None else carried[0]
        self.multicast(
            self.signer.sign((self.PROPOSE_TAG, value, view, justification))
        )
