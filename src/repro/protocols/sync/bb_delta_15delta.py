"""(Delta+1.5delta)-BB (paper Figure 9): ``n/3 <= f < n/2``, unsync start.

Good-case latency ``Delta + 1.5*delta`` — optimal for this regime under
unsynchronized start (Theorems 10 and 11), and famously *not* an integer
multiple of the message delay.  The trick: parties "early vote" with a
parameter ``d`` that guesses ``delta`` (votes at local time
``t_prop + Delta - 0.5*d``), and vote certificates are ranked by ``d``
(smaller ranks higher); the commit rule couples the rank to an
equivocation-silence window ``t_prop + Delta + 0.5*d``, which restores
the broken indistinguishability that blocks naive early voting.

    Initially direct-rcv = false, lock = BOTTOM, sigma = Delta,
    rank = Delta + 1; clocks start at most delta apart.
    (1) Propose.  Broadcaster sends <propose, v>_L to all.
    (2) Forward.  On the first valid proposal (from party j, local time
        t_prop), forward it to all; if j = L and t_prop <= Delta + sigma,
        set direct-rcv = true (here: any copy from L by then; see below).
    (3) Vote.  For every d in [0, Delta], at local time
        t_prop + Delta - 0.5*d, if no equivocation detected, multicast
        <vote, d, <propose, v>_L>_i.
    (4) Commit and Lock.  On f + 1 votes with the same (d, v) at local
        time t_votes, forward them, and:
        (a) if t_votes - t_prop <= Delta + 1.5*d, no equivocation until
            local time t_prop + Delta + 0.5*d, and direct-rcv: commit v;
        (b) if t_votes - t_prop <= 4.5*Delta and rank > d: lock = v,
            rank = d.
    (5) Byzantine agreement.  At local time 6.5*Delta + 2*sigma, run BA
        on lock; commit its output if not yet committed.  Terminate.

Step 2 ties direct-rcv to the *first* copy, but the good-case proof
needs every honest party to set it (L's copy arrives by local ``delta +
sigma``), and with delays anywhere in ``[0, delta]`` a forwarded copy
can overtake L's own.  So any copy of the first value from L by local
``Delta + sigma`` sets it.  The equivocation window does not move: the
votes, the silence check and the ``t_votes - t_prop`` bounds are
anchored at ``t_prop``, the first copy (when the party forwarded), and
the ``t_prop <= Delta + sigma`` that direct-rcv vouches for still holds.
A copy of *another* value is an equivocation and sets nothing (after
``t_prop + Delta + 0.5*d`` it would escape the silence check).

The paper's footnote: with a continuous ``d`` the message complexity is
unbounded ("purely theoretical"); its practical variant samples ``m``
values of ``d`` uniformly, achieving ``(1 + 1/(2m))*Delta + 1.5*delta``
with O(m n^2) messages.  ``d_grid`` implements exactly that variant; a
grid containing the execution's ``delta`` reproduces the exact optimum.
"""
from __future__ import annotations

from typing import Any, Sequence

from repro.crypto.signatures import SignedPayload
from repro.protocols.sync.base import SyncBroadcastParty
from repro.types import PartyId, Value, validate_resilience

VOTE = "vote15"
VOTE_BATCH = "vote15-batch"


def uniform_grid(big_delta: float, m: int) -> list[float]:
    """The paper's m-sample discretization of ``d in [0, Delta]``."""
    if m < 1:
        raise ValueError(f"need at least one sample, got m={m}")
    return [big_delta * k / m for k in range(m + 1)]


class BbDelta15Delta(SyncBroadcastParty):
    """One party of the (Delta+1.5delta)-BB protocol."""

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        d_grid: Sequence[float] | None = None,
        grid_samples: int = 8,
        **kwargs: Any,
    ):
        super().__init__(world, party_id, **kwargs)
        validate_resilience(self.n, self.f, requirement="f<n/2")
        if d_grid is None:
            d_grid = uniform_grid(self.big_delta, grid_samples)
        if any(not 0 <= d <= self.big_delta for d in d_grid):
            raise ValueError("d_grid values must lie in [0, Delta]")
        self.d_grid = sorted(set(d_grid))
        self.rank: float = self.big_delta + 1
        self.direct_rcv = False
        self.t_prop: float | None = None
        self._proposal_value: Value | None = None
        # self.votes is tallied per (d, value) grid point
        # (d, value) -> local arrival time of the (f+1)-th vote
        self._quorum_times: dict[tuple[float, Value], float] = {}
        self._forwarded_quorums: set[tuple[float, Value]] = set()

    @property
    def ba_time(self) -> float:
        return 6.5 * self.big_delta + 2 * self.sigma

    def on_start(self) -> None:
        self.at_local_time(self.ba_time, self.invoke_ba)
        if self.is_broadcaster:
            self.multicast(self.make_proposal())

    def on_protocol_message(self, sender: PartyId, payload: Any) -> None:
        value = self.parse_proposal(payload)
        if value is not None:
            self.note_broadcaster_value(value)
            self._on_proposal(sender, value, payload)
            return
        if isinstance(payload, SignedPayload):
            self._on_vote(payload)
            return
        self.absorb_forward(
            payload, VOTE_BATCH, threshold=self.f + 1,
            on_crossed=self._on_votes_crossed,
        )

    # ------------------------------------------------------------------ #
    # steps 2 + 3: forward and early-vote per grid point
    # ------------------------------------------------------------------ #

    def _on_proposal(
        self, sender: PartyId, value: Value, proposal: SignedPayload
    ) -> None:
        if self.t_prop is None:  # only the first valid proposal is forwarded
            self.t_prop = self.local_time()
            self._proposal_value = value
            self.multicast(proposal, include_self=False)
            for d in self.d_grid:
                self.at_local_time(
                    self.t_prop + self.big_delta - 0.5 * d,
                    lambda d=d, p=proposal: self._send_vote(d, p),
                )
        if (
            sender == self.broadcaster
            and value == self._proposal_value
            and self.local_time() <= self.big_delta + self.sigma
        ):
            self.direct_rcv = True

    def _send_vote(self, d: float, proposal: SignedPayload) -> None:
        if self.equivocation_detected_at is not None or self.has_committed:
            return
        self.multicast(
            self.signer.sign(self.shared_payload((VOTE, d, proposal)))
        )

    # ------------------------------------------------------------------ #
    # step 4: commit and lock
    # ------------------------------------------------------------------ #

    def _vote_key(self, vote: SignedPayload) -> tuple[float, Value] | None:
        """Tally key ``(d, value)`` of a structurally valid vote.

        The outer vote signature is *not* checked here — a staged run
        defers it to the grid-point crossing (the embedded proposal is
        verified, once per shared object, by ``parse_proposal``).
        """
        body = vote.payload
        if not (isinstance(body, tuple) and len(body) == 3 and body[0] == VOTE):
            return None
        _, d, proposal = body
        if not isinstance(d, (int, float)) or not 0 <= d <= self.big_delta:
            return None
        value = self.parse_proposal(proposal)
        if value is None:
            return None
        return float(d), value

    def _on_vote(self, vote: SignedPayload) -> None:
        if not isinstance(vote, SignedPayload) or not self.verify(vote):
            return
        key = self._vote_key(vote)
        if key is None:
            return
        self.note_broadcaster_value(key[1])
        if self.votes.add(key, vote.signer, vote) == self.f + 1:
            self._quorum_times[key] = self.local_time()
            self._on_quorum(key)

    def _on_votes_crossed(self, key: tuple[float, Value], mask: int) -> None:
        self.note_broadcaster_value(key[1])
        self._quorum_times[key] = self.local_time()
        self._on_quorum(key, mask)

    def _on_quorum(
        self, key: tuple[float, Value], mask: int | None = None
    ) -> None:
        d, value = key
        t_votes = self._quorum_times[key]
        if key not in self._forwarded_quorums:
            self._forwarded_quorums.add(key)
            witness = self.f + 1
            self.multicast(
                self.votes.quorum_payload(
                    key, lambda q: (VOTE_BATCH, q[:witness]), mask=mask
                ),
                include_self=False,
            )
        if self.t_prop is None:
            return
        # (b) Lock.
        if t_votes - self.t_prop <= 4.5 * self.big_delta and self.rank > d:
            self.lock = value
            self.rank = d
        # (a) Commit: decided once the equivocation window has elapsed.
        if not self.direct_rcv:
            return
        if t_votes - self.t_prop > self.big_delta + 1.5 * d:
            return
        window_end = self.t_prop + self.big_delta + 0.5 * d
        if self.local_time() >= window_end:
            self._try_commit(value, window_end)
        else:
            self.at_local_time(
                window_end,
                lambda v=value, w=window_end: self._try_commit(v, w),
            )

    def _try_commit(self, value: Value, window_end: float) -> None:
        if self.has_committed:
            return
        if self.no_equivocation_by(window_end):
            self.commit(value)
