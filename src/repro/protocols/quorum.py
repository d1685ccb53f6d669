"""Unified quorum accounting: one vote-tracking engine for every protocol.

Every protocol in the repro collects "signed votes until a threshold of
distinct signers forms" — the paper's core primitive.  Before this module
each protocol kept ad-hoc per-value dicts (``_votes.setdefault(value, {})``
and cousins), which at BRB n >= 201 made per-delivery bucket bookkeeping
the profiled bottleneck and spread the threshold semantics over ~10 files.
:class:`QuorumTracker` centralizes the accounting with a *count-only fast
path*: per value it keeps a signer **bitmask** (duplicate detection and the
tally are O(1) int ops; the count is ``mask.bit_count()``), stores accepted
payloads in an insertion-ordered ``signer -> payload`` bucket, and only
materializes a ``SignedPayload`` tuple when a certificate / quorum-forward
payload is actually needed — usually exactly once, at the threshold
crossing, where the bucket is read as a *mask-derived lazy view*: the
crossing mask's set bits are decoded in ascending order and each signer's
payload is one dict probe, so building the quorum tuple is O(quorum)
lookups with no sort (the profiled ``sorted(entries)`` walk this replaced
was O(n log n) per crossing at BRB n=2001).

Thresholds and the paper's quorum-intersection argument
-------------------------------------------------------

The three threshold constants protocols feed into the tracker map directly
onto the paper's counting arguments (n parties, f Byzantine):

* ``n - f`` — the *commit quorum* (Figures 1, 3, 10 and the psync
  protocols).  Two quorums of ``n - f`` intersect in at least ``n - 2f``
  parties; with ``n >= 3f + 1`` that intersection contains an honest
  party, so no two conflicting values can both gather a commit quorum —
  the agreement half of the 2-round-BRB proof.  At exactly ``f = n/3``
  the intersection of two conflicting quorums consists *solely* of
  double-voting Byzantine parties (Figure 5's exposure trick), which is
  precisely what :attr:`QuorumTracker.equivocators` reports.
* ``f + 1`` — the *honest witness* threshold (Figures 6, 8, 9 and
  Bracha's ready amplification).  Any ``f + 1`` signers include at least
  one honest party, so a claim backed by ``f + 1`` signatures was vouched
  for by someone who follows the protocol.
* ``2f + 1`` — the *honest majority quorum* (Bracha's deliver rule, FaB's
  re-proposal majority).  Of any ``2f + 1`` signers at least ``f + 1``
  are honest, i.e. honest parties form a majority of the quorum — the
  basis for carrying a value across views or confirming a deliver.

Equivocation (the same signer voting for two different values) is the
other half of the story: detection is opt-in per tracker
(``detect_equivocation=True``) because the paper's protocols differ in
whether an equivocating vote still counts toward each value (BRB: yes —
per-value buckets are independent) or only the first vote counts
(phase-king: first message per sender wins).  ``first_vote_only=True``
selects the latter.

Shared quorum-forward payloads
------------------------------

Parties do *not* all form one quorum: each sees its own vote at once,
then the others in digest order, so a party whose vote sorts late crosses
with a mask of its own (BRB n=1001 under a fixed delay forwards 334
distinct quorums).  :meth:`quorum_payload` therefore memoizes the built
message in a world-scoped :class:`~repro.crypto.messages.ContentMemo`
keyed by ``(value, signer-mask)``: a committer whose mask was built
before reuses that message *object*, so the network's per-multicast
order-key digest is an identity hit.  A message with a new mask pays one encode,
which splices the vote encodings ``crypto.messages`` memoized per vote
object — a vote is encoded once, not once per quorum it rides in.  This
is content-safe: signatures are deterministic (digest membership), so
equal ``(value, mask)`` implies byte-identical messages.

Shared entry stores
-------------------

The same determinism argument lets the *payload storage itself* be shared
world-wide for the protocols' vote steps: a valid vote for ``value`` by
``signer`` has exactly one possible content (the signature is digest
membership over a content-determined body — even a Byzantine signer cannot
produce two content-distinct valid votes for one ``(value, signer)``), so
every party's accepted bucket for ``(value, signer)`` holds equal objects.
Passing ``entry_store`` (a world-scoped ``value -> {signer: payload}``
dict, see :meth:`repro.sim.runner.World.shared_entry_store`) stores each
payload **once per world** instead of once per party, turning the vote
step's O(n^2) world-wide entry storage into O(n) — the difference between
BRB n=10001 fitting in memory or not.  Per-party state stays exact (masks
and tallies are still per tracker); only :meth:`entries` /
:meth:`entry_pairs` change observably, returning signer-ascending order
instead of arrival order — so the store is opt-in per tracker and only
used by vote steps whose reads are mask-derived views anyway.
"""
from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

__all__ = [
    "QuorumTracker",
    "StagedBatch",
    "commit_quorum",
    "honest_witness",
    "honest_majority",
]


class StagedBatch:
    """An uncommitted :meth:`QuorumTracker.add_batch`: acceptance decided,
    tracker state untouched.

    Staging lets :meth:`repro.sim.process.Party.stage_vote_run` — the
    one caller — decide *whether* to absorb a whole arrival run before
    mutating anything: it stages the batch and checks the signatures
    only if the batch would cross its threshold; the protocol then
    either commits the staged result or, handed ``None``, runs its
    per-vote path.  A staged batch is
    a snapshot — committing it after any other ``add`` on the same
    tracker is a caller bug (the acceptance decisions would be stale).
    """

    __slots__ = (
        "value",
        "pairs",
        "accepted",
        "mask",
        "voted",
        "flagged",
        "crossing_mask",
    )

    def __init__(self, value, pairs, accepted, mask, voted, flagged,
                 crossing_mask):
        self.value = value
        self.pairs = pairs
        self.accepted = accepted  # (signer, payload) adds the loop kept
        self.mask = mask  # the value's signer mask after the batch
        self.voted = voted  # the tracker-wide voted mask after the batch
        self.flagged = flagged  # signers newly seen equivocating
        self.crossing_mask = crossing_mask  # mask at the threshold add, or 0

    @property
    def crossed(self) -> bool:
        """True iff this batch itself carried the tally across the
        threshold (an already-met threshold never re-crosses)."""
        return self.crossing_mask != 0


def commit_quorum(n: int, f: int) -> int:
    """The ``n - f`` commit-quorum threshold (quorum intersection)."""
    return n - f


def honest_witness(n: int, f: int) -> int:
    """The ``f + 1`` threshold: any such set contains an honest party."""
    return f + 1


def honest_majority(n: int, f: int) -> int:
    """The ``2f + 1`` threshold: honest parties form a quorum majority."""
    return 2 * f + 1


class QuorumTracker:
    """Per-value vote accounting with a count-only fast path.

    One tracker instance owns one logical vote collection (one protocol
    step); the *value* keys may be plain values, ``(view, value)`` pairs,
    or any hashable the protocol tallies by.  The hot path —
    :meth:`add` — costs one dict probe plus integer bit operations; full
    buckets are materialized lazily by :meth:`entries` /
    :meth:`sorted_entries` / :meth:`quorum_payload`.

    ``first_vote_only`` rejects a signer's votes for any value after its
    first (phase-king semantics); the default counts an equivocating
    signer in every value's tally (per-value buckets are independent,
    matching the authenticated protocols).  ``detect_equivocation``
    records signers observed voting for two different values in
    :attr:`equivocators`.

    ``checks`` counts tally updates (every :meth:`add` call) and is
    aggregated per execution by
    :class:`~repro.sim.instrumentation.Instrumentation` as the
    ``quorum_checks`` counter on
    :class:`~repro.sim.runner.RunResult` — for trackers built through
    :meth:`repro.sim.process.Party.quorum_tracker`, which registers
    them.  Transient one-shot tallies (validating a justification set,
    resolving a BA) construct the class directly and stay out of the
    counter by convention.
    """

    __slots__ = (
        "checks",
        "batched",
        "equivocators",
        "_slots",
        "_voted",
        "_first_only",
        "_detect",
        "_shared",
        "_store",
    )

    def __init__(
        self,
        *,
        first_vote_only: bool = False,
        detect_equivocation: bool = False,
        shared_memo: Any | None = None,
        entry_store: dict | None = None,
    ):
        self.checks = 0
        self.batched = 0  # votes absorbed through committed batches
        self.equivocators: set[int] = set()
        #: value -> [signer_mask, {signer: payload}-or-None];
        #: insertion-ordered, so iteration visits values in first-vote
        #: order like the dict buckets this class replaced.
        self._slots: dict[Hashable, list] = {}
        self._voted = 0  # mask of signers that voted for any value
        self._first_only = first_vote_only
        self._detect = detect_equivocation
        self._shared = shared_memo  # world-scoped quorum-payload memo
        #: world-scoped value -> {signer: payload} store (see module
        #: docstring); when set, payloads live here once per world and
        #: slot[1] stays None.  First writer wins — content equality of
        #: the candidates is the module invariant.
        self._store = entry_store

    # ------------------------------------------------------------------ #
    # the hot path
    # ------------------------------------------------------------------ #

    def add(self, value: Hashable, signer: int, payload: Any = None) -> int:
        """Record a vote; return the value's new tally, or 0 if rejected.

        Rejection means the vote changed nothing: the signer already
        voted for this value (duplicate-signer rejection), or — in
        ``first_vote_only`` mode — for any value.  The return value is
        the count *after* a successful add, so a threshold crossing is
        the single call where ``add(...) == threshold``.
        """
        self.checks += 1
        bit = 1 << signer
        voted = self._voted
        store = self._store
        slot = self._slots.get(value)
        if slot is None:
            if voted & bit:
                # Signer already voted elsewhere: equivocation.
                if self._detect:
                    self.equivocators.add(signer)
                if self._first_only:
                    return 0
            if payload is None:
                self._slots[value] = [bit, None]
            elif store is None:
                self._slots[value] = [bit, {signer: payload}]
            else:
                self._slots[value] = [bit, None]
                bucket = store.get(value)
                if bucket is None:
                    store[value] = {signer: payload}
                elif signer not in bucket:
                    bucket[signer] = payload
            self._voted = voted | bit
            return 1
        mask = slot[0]
        if mask & bit:
            return 0  # duplicate signer for this value
        if voted & bit:
            if self._detect:
                self.equivocators.add(signer)
            if self._first_only:
                return 0
        mask |= bit
        slot[0] = mask
        if payload is not None:
            if store is None:
                entries = slot[1]
                if entries is None:
                    slot[1] = {signer: payload}
                else:
                    entries[signer] = payload
            else:
                bucket = store.get(value)
                if bucket is None:
                    store[value] = {signer: payload}
                elif signer not in bucket:
                    bucket[signer] = payload
        self._voted = voted | bit
        return mask.bit_count()

    # ------------------------------------------------------------------ #
    # batches: whole arrival runs in one pass (Party.stage_vote_run)
    # ------------------------------------------------------------------ #

    def stage_batch(
        self,
        value: Hashable,
        pairs: list[tuple[int, Any]],
        *,
        threshold: int | None = None,
    ) -> StagedBatch:
        """Decide a whole batch of same-value votes without mutating.

        Runs the exact acceptance loop of :meth:`add` — duplicate-signer
        rejection, cross-value equivocation flagging, ``first_vote_only``
        rejection — over ``(signer, payload)`` pairs in order, against a
        *local copy* of the tracker state.  Returns a :class:`StagedBatch`
        recording what :meth:`commit_staged` would apply, including the
        signer mask at the add that crossed ``threshold`` (exactly the
        mask the scalar path would expose to ``add(...) == threshold``).
        """
        slot = self._slots.get(value)
        mask = slot[0] if slot is not None else 0
        voted = self._voted
        detect = self._detect
        first_only = self._first_only
        accepted: list[tuple[int, Any]] = []
        flagged: list[int] = []
        count = mask.bit_count()
        crossing_mask = 0
        for signer, payload in pairs:
            bit = 1 << signer
            if mask & bit:
                continue  # duplicate signer for this value
            if voted & bit:
                if detect:
                    flagged.append(signer)
                if first_only:
                    continue
            mask |= bit
            voted |= bit
            count += 1
            accepted.append((signer, payload))
            if count == threshold:
                crossing_mask = mask
        return StagedBatch(
            value, pairs, accepted, mask, voted, flagged, crossing_mask
        )

    def commit_staged(self, staged: StagedBatch) -> int:
        """Apply a staged batch; returns the value's new tally.

        Equivalent to the scalar loop the batch replaced: ``checks``
        counts every pair (every vote would have been an :meth:`add`
        call), the value slot is created only if the batch actually
        recorded a vote (so slot iteration order matches the scalar
        path), and the batch mask/entries/equivocator updates land in
        one store each instead of per vote.
        """
        n_pairs = len(staged.pairs)
        self.checks += n_pairs
        self.batched += n_pairs
        if staged.accepted:
            store = self._store
            slot = self._slots.get(staged.value)
            if store is not None:
                if slot is None:
                    self._slots[staged.value] = [staged.mask, None]
                else:
                    slot[0] = staged.mask
                bucket = store.get(staged.value)
                if bucket is None:
                    bucket = store[staged.value] = {}
                for signer, payload in staged.accepted:
                    if payload is not None and signer not in bucket:
                        bucket[signer] = payload
            else:
                entries = {
                    signer: payload
                    for signer, payload in staged.accepted
                    if payload is not None
                }
                if slot is None:
                    self._slots[staged.value] = [
                        staged.mask, entries or None
                    ]
                else:
                    slot[0] = staged.mask
                    if entries:
                        if slot[1] is None:
                            slot[1] = entries
                        else:
                            slot[1].update(entries)
            self._voted = staged.voted
        if staged.flagged:
            self.equivocators.update(staged.flagged)
        return staged.mask.bit_count()

    def add_batch(
        self,
        value: Hashable,
        pairs: list[tuple[int, Any]],
        *,
        threshold: int | None = None,
    ) -> tuple[int, int | None]:
        """Absorb a batch of same-value votes in one pass.

        Exactly equivalent to ``for signer, payload in pairs:
        add(value, signer, payload)`` — same acceptance decisions, same
        ``checks`` accounting, same equivocator flags — but one bitmask
        OR per accepted vote and one ``bit_count`` total.  Returns
        ``(tally, crossing_mask)`` where ``crossing_mask`` is the signer
        mask at the add that reached ``threshold`` (``None`` when the
        batch did not cross it); feed it to :meth:`quorum_payload` so a
        quorum-forward built mid-batch is byte-identical to the one the
        scalar path builds at its crossing call.
        """
        staged = self.stage_batch(value, pairs, threshold=threshold)
        count = self.commit_staged(staged)
        return count, (staged.crossing_mask or None)

    # ------------------------------------------------------------------ #
    # tallies
    # ------------------------------------------------------------------ #

    def count(self, value: Hashable) -> int:
        """Current tally for ``value`` (0 when never voted for)."""
        slot = self._slots.get(value)
        return slot[0].bit_count() if slot is not None else 0

    def values(self) -> Iterable[Hashable]:
        """Tallied values, in first-vote order."""
        return self._slots.keys()

    def value_counts(self) -> dict[Hashable, int]:
        """``{value: tally}`` in first-vote order (a fresh dict)."""
        return {
            value: slot[0].bit_count() for value, slot in self._slots.items()
        }

    def signers(self, value: Hashable) -> list[int]:
        """Recorded signers of ``value``, ascending (decoded bitmask)."""
        slot = self._slots.get(value)
        if slot is None:
            return []
        mask = slot[0]
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def vote_of(self, signer: int, default: Any = None) -> Any:
        """The (first) value ``signer`` voted for, else ``default``.

        Scans the value slots; meant for rare lookups like phase-king's
        king-value read, not for the per-delivery path.
        """
        bit = 1 << signer
        for value, slot in self._slots.items():
            if slot[0] & bit:
                return value
        return default


    # ------------------------------------------------------------------ #
    # lazy bucket materialization
    # ------------------------------------------------------------------ #

    def entries(self, value: Hashable) -> list[Any]:
        """Recorded payloads for ``value``, in arrival order.

        With a shared ``entry_store`` the order is signer-ascending
        instead (the store holds one world-wide bucket, so per-tracker
        arrival order is not recorded) — see the module docstring.
        """
        return [payload for _, payload in self.entry_pairs(value)]

    def entry_pairs(self, value: Hashable) -> list[tuple[int, Any]]:
        """Recorded ``(signer, payload)`` pairs, in arrival order.

        Signer-ascending instead with a shared ``entry_store`` (see
        :meth:`entries`).
        """
        slot = self._slots.get(value)
        if slot is None:
            return []
        if self._store is not None:
            bucket = self._store.get(value)
            if bucket is None:
                return []
            out = []
            mask = slot[0]
            while mask:
                low = mask & -mask
                signer = low.bit_length() - 1
                payload = bucket.get(signer)
                if payload is not None:
                    out.append((signer, payload))
                mask ^= low
            return out
        if slot[1] is None:
            return []
        return list(slot[1].items())

    def _mask_entries(self, value: Hashable, mask: int) -> tuple:
        """Signer-sorted payloads for the signers selected by ``mask``.

        The lazy view: decode the mask's set bits in ascending order and
        probe the bucket once per signer — O(quorum) lookups, no sort.
        """
        slot = self._slots.get(value)
        if slot is None:
            return ()
        if self._store is not None:
            bucket = self._store.get(value)
        else:
            bucket = slot[1]
        if bucket is None:
            return ()
        out = []
        while mask:
            low = mask & -mask
            payload = bucket.get(low.bit_length() - 1)
            if payload is not None:
                out.append(payload)
            mask ^= low
        return tuple(out)

    def quorum_payload(
        self,
        value: Hashable,
        build: Callable[[tuple], Any],
        *,
        mask: int | None = None,
    ) -> Any:
        """The quorum-forward message for ``value``'s current supporters.

        ``build`` receives the signer-sorted entry tuple and returns the
        message payload (e.g. ``lambda q: (VOTE_QUORUM, q)``).  When the
        tracker holds a world-scoped memo, the built message is shared by
        every party whose supporter set (the signer mask) matches —
        deterministic signatures make equal ``(value, mask)`` imply
        byte-identical messages, so sharing changes object identity only.

        ``mask`` selects a supporter subset (default: the full current
        mask).  A staged vote run passes the batch's *crossing*
        mask so a quorum forwarded after absorbing an oversize batch is
        built from exactly the supporters the scalar path would have had
        at its threshold crossing — same memo key, same bytes.
        """
        slot = self._slots[value]
        if mask is None:
            mask = slot[0]
        memo = self._shared
        if memo is None:
            return build(self._mask_entries(value, mask))
        key = (value, mask)
        hit = memo.get(key)
        if hit is None:
            hit = build(self._mask_entries(value, mask))
            memo.put(key, hit)
        return hit
