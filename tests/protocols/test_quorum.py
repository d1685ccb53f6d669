"""Tests for the unified quorum-accounting subsystem.

Covers the tracker's threshold boundaries, duplicate-signer rejection,
equivocation detection, lazy bucket materialization, the world-shared
quorum-payload memo — and the refactor's headline invariant: same-seed
BRB / VBB outcomes are identical in every instrumentation preset (the
``perf`` preset additionally runs the event arena, which must change
allocation only, never outcomes).
"""
from __future__ import annotations

import pytest

from repro.protocols.brb_2round import Brb2Round
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.protocols.quorum import (
    QuorumTracker,
    commit_quorum,
    honest_majority,
    honest_witness,
)
from repro.sim.delays import UniformDelay
from repro.sim.runner import run_broadcast


class TestThresholds:
    def test_threshold_constants(self):
        assert commit_quorum(10, 3) == 7
        assert honest_witness(10, 3) == 4
        assert honest_majority(10, 3) == 7

    def test_tally_crosses_threshold_exactly_once(self):
        n, f = 7, 2
        tracker = QuorumTracker()
        quorum = commit_quorum(n, f)
        counts = [tracker.add("v", signer) for signer in range(n)]
        assert counts == [1, 2, 3, 4, 5, 6, 7]
        assert counts.count(quorum) == 1  # the crossing fires once

    def test_below_boundary_never_reaches(self):
        n, f = 7, 2
        tracker = QuorumTracker()
        for signer in range(n - f - 1):  # one short of the quorum
            tracker.add("v", signer)
        assert tracker.count("v") == n - f - 1
        assert all(
            count < n - f
            for count in [tracker.count(v) for v in tracker.values()]
        )
        assert tracker.add("v", n - f - 1) == n - f  # boundary vote crosses

    def test_count_and_signers(self):
        tracker = QuorumTracker()
        tracker.add("v", 3)
        assert tracker.count("v") == 1
        assert tracker.count("w") == 0
        assert tracker.signers("v") == [3]


class TestDuplicateAndEquivocation:
    def test_duplicate_signer_rejected(self):
        tracker = QuorumTracker()
        assert tracker.add("v", 1, "first") == 1
        assert tracker.add("v", 1, "again") == 0
        assert tracker.count("v") == 1
        assert tracker.entries("v") == ["first"]  # first payload wins

    def test_duplicate_is_not_equivocation(self):
        tracker = QuorumTracker(detect_equivocation=True)
        tracker.add("v", 1)
        tracker.add("v", 1)
        assert not tracker.equivocators

    def test_equivocation_detected_and_both_counted(self):
        tracker = QuorumTracker(detect_equivocation=True)
        tracker.add("v", 1)
        tracker.add("w", 1)
        assert tracker.equivocators == {1}
        # Authenticated-protocol semantics: per-value buckets stay
        # independent, the equivocator counts toward both values.
        assert tracker.count("v") == 1
        assert tracker.count("w") == 1

    def test_detection_off_by_default(self):
        tracker = QuorumTracker()
        tracker.add("v", 1)
        tracker.add("w", 1)
        assert tracker.equivocators == set()

    def test_first_vote_only_rejects_second_value(self):
        tracker = QuorumTracker(
            first_vote_only=True, detect_equivocation=True
        )
        assert tracker.add("v", 1) == 1
        assert tracker.add("w", 1) == 0  # phase-king: first message wins
        assert tracker.count("w") == 0
        assert "w" not in tracker.values()
        assert tracker.equivocators == {1}
        assert tracker.vote_of(1) == "v"

    def test_checks_counts_every_add_call(self):
        tracker = QuorumTracker()
        tracker.add("v", 1)
        tracker.add("v", 1)  # duplicates still count as a check
        tracker.add("w", 2)
        assert tracker.checks == 3


class TestLazyMaterialization:
    def test_entries_in_arrival_order_sorted_by_signer_on_demand(self):
        tracker = QuorumTracker()
        tracker.add("v", 5, "e5")
        tracker.add("v", 2, "e2")
        tracker.add("v", 9, "e9")
        assert tracker.entries("v") == ["e5", "e2", "e9"]
        assert tracker.entry_pairs("v") == [(5, "e5"), (2, "e2"), (9, "e9")]
        assert tracker.signers("v") == [2, 5, 9]

    def test_count_only_mode_keeps_no_buckets(self):
        tracker = QuorumTracker()
        for signer in range(5):
            tracker.add("v", signer)  # payload=None: pure tally
        assert tracker.count("v") == 5
        assert tracker.entries("v") == []

    def test_lazy_equals_eager_semantics(self):
        """The lazily-built bucket matches an eagerly-maintained dict."""
        import random

        rng = random.Random(7)
        tracker = QuorumTracker()
        eager: dict[str, dict[int, str]] = {}
        for _ in range(200):
            value = rng.choice("abc")
            signer = rng.randrange(40)
            payload = f"{value}:{signer}"
            tracker.add(value, signer, payload)
            eager.setdefault(value, {}).setdefault(signer, payload)
        for value, bucket in eager.items():
            assert tracker.count(value) == len(bucket)
            assert tracker.signers(value) == sorted(bucket)
            assert [p for _, p in sorted(tracker.entry_pairs(value))] == [
                bucket[s] for s in sorted(bucket)
            ]
            assert set(tracker.entries(value)) == set(bucket.values())

    def test_quorum_payload_without_memo_builds_fresh(self):
        tracker = QuorumTracker()
        tracker.add("v", 2, "e2")
        tracker.add("v", 1, "e1")
        built = tracker.quorum_payload("v", lambda q: ("msg", q))
        assert built == ("msg", ("e1", "e2"))
        again = tracker.quorum_payload("v", lambda q: ("msg", q))
        assert again == built
        assert again is not built  # no memo: fresh object per call

    def test_quorum_payload_shared_across_trackers(self):
        """Same (value, signer-set) => one message object world-wide."""
        from repro.crypto.messages import ContentMemo

        memo = ContentMemo(64)
        a = QuorumTracker(shared_memo=memo)
        b = QuorumTracker(shared_memo=memo)
        for tracker in (a, b):
            tracker.add("v", 2, "e2")
            tracker.add("v", 1, "e1")
        built_a = a.quorum_payload("v", lambda q: ("msg", q))
        built_b = b.quorum_payload("v", lambda q: ("msg", q))
        assert built_a is built_b
        # A different supporter set gets its own message.
        b.add("v", 3, "e3")
        assert b.quorum_payload("v", lambda q: ("msg", q)) is not built_a


class TestProtocolIntegration:
    def test_quorum_checks_surface_in_run_result(self):
        result = run_broadcast(
            n=7,
            f=2,
            party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
        )
        assert result.quorum_checks > 0
        assert result.equivocations_detected == 0

    def test_quorum_forward_message_shared_world_wide(self):
        """Parties with equal supporter sets share one forward object.

        In the fixed-delay good case each party's quorum is its own early
        self-vote plus the first arrivals, so only a few distinct signer
        sets exist — the memo must collapse the n multicast payloads to
        one object per distinct set (the digest/intern caches then hit on
        identity downstream).
        """
        from repro.protocols.brb_2round import VOTE_QUORUM
        from repro.sim.delays import FixedDelay
        from repro.sim.runner import World

        world = World(n=7, f=2, delay_policy=FixedDelay(1.0))
        sent = []
        multicast = world.network.multicast

        def spy(sender, payload, **kwargs):
            sent.append(payload)
            multicast(sender, payload, **kwargs)

        world.network.multicast = spy
        world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
        result = world.run()
        assert result.all_honest_committed()
        forwards = [
            payload
            for payload in sent
            if isinstance(payload, tuple)
            and payload
            and payload[0] == VOTE_QUORUM
        ]
        assert forwards
        distinct_objects = {id(p): p for p in forwards}
        distinct_signer_sets = {
            tuple(v.signer for v in p[1]) for p in distinct_objects.values()
        }
        # One shared object per distinct supporter set, and real sharing:
        # far fewer objects than the 7 forward multicasts.
        assert len(distinct_objects) == len(distinct_signer_sets)
        assert len(distinct_objects) < world.n


OUTCOME_CONFIGS = [
    ("brb", Brb2Round, dict(n=16, f=5), {}),
    ("vbb", PsyncVbb5f1, dict(n=16, f=3), dict(big_delta=1.0)),
]


def _outcome(cls, n, f, kwargs, mode, seed):
    result = run_broadcast(
        n=n,
        f=f,
        party_factory=cls.factory(broadcaster=0, input_value="v", **kwargs),
        delay_policy=UniformDelay(0.0, 1.0, seed=seed),
        instrumentation=mode,
    )
    return (
        dict(sorted(result.commits.items())),
        dict(sorted(result.commit_global_times.items())),
        result.messages_sent,
        result.final_time,
        result.events_processed,
    )


class TestInstrumentationInvariance:
    """Mode changes cost, never semantics."""

    @pytest.mark.parametrize("label,cls,sizes,kwargs", OUTCOME_CONFIGS)
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_same_seed_outcomes_identical_across_presets(
        self, label, cls, sizes, kwargs, seed
    ):
        full = _outcome(cls, sizes["n"], sizes["f"], kwargs, "full", seed)
        perf = _outcome(cls, sizes["n"], sizes["f"], kwargs, "perf", seed)
        assert full == perf

    def test_quorum_checks_identical_across_presets(self):
        results = {
            mode: run_broadcast(
                n=16,
                f=5,
                party_factory=Brb2Round.factory(
                    broadcaster=0, input_value="v"
                ),
                delay_policy=UniformDelay(0.0, 1.0, seed=3),
                instrumentation=mode,
            )
            for mode in ("full", "perf")
        }
        checks = {r.quorum_checks for r in results.values()}
        assert len(checks) == 1 and checks.pop() > 0


class TestBatchScalarParity:
    """``add_batch`` must be indistinguishable from a loop of ``add``."""

    @staticmethod
    def _tracker_state(tracker):
        return (
            {
                value: (
                    tuple(tracker.signers(value)),
                    tuple(tracker.entries(value)),
                )
                for value in tracker.values()
            },
            set(tracker.equivocators),
            tracker.checks,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize(
        "first_only,detect",
        [(False, False), (False, True), (True, False), (True, True)],
    )
    def test_randomized_stream_parity(self, seed, first_only, detect):
        import random

        rng = random.Random(seed)
        n, threshold = 12, 7
        # A vote stream with duplicates and cross-value equivocators.
        stream = []
        for _ in range(60):
            signer = rng.randrange(n)
            value = rng.choice(["a", "b"])
            stream.append((value, signer, f"{value}:{signer}"))
        scalar = QuorumTracker(
            first_vote_only=first_only, detect_equivocation=detect
        )
        batch = QuorumTracker(
            first_vote_only=first_only, detect_equivocation=detect
        )
        scalar_crossings = []
        for value, signer, payload in stream:
            if scalar.add(value, signer, payload) == threshold:
                mask = sum(1 << s for s in scalar.signers(value))
                scalar_crossings.append((value, mask))
        # Batch path: the same stream cut at random boundaries, each
        # same-value run absorbed through add_batch (mixed-value cuts
        # are re-split so every batch is single-value, as in the
        # protocols' uniform-run gate).
        batch_crossings = []
        idx = 0
        while idx < len(stream):
            size = rng.randrange(1, 9)
            chunk = stream[idx : idx + size]
            idx += size
            run_start = 0
            for i in range(1, len(chunk) + 1):
                if i == len(chunk) or chunk[i][0] != chunk[run_start][0]:
                    run = chunk[run_start:i]
                    value = run[0][0]
                    _, mask = batch.add_batch(
                        value,
                        [(s, p) for _, s, p in run],
                        threshold=threshold,
                    )
                    if mask is not None:
                        batch_crossings.append((value, mask))
                    run_start = i
        assert self._tracker_state(scalar) == self._tracker_state(batch)
        # The crossing fires exactly once per value in both paths, and
        # the batch's crossing mask equals the mask the scalar tracker
        # held right after its threshold-crossing add.
        assert batch_crossings == scalar_crossings

    def test_equivocation_across_batch_boundary(self):
        # A signer voting "a" in one batch and "b" in the next is
        # flagged exactly like the scalar path flags the second vote.
        scalar = QuorumTracker(detect_equivocation=True)
        batch = QuorumTracker(detect_equivocation=True)
        for value, signer in [("a", 1), ("a", 2), ("b", 1), ("b", 3)]:
            scalar.add(value, signer, None)
        batch.add_batch("a", [(1, None), (2, None)], threshold=99)
        batch.add_batch("b", [(1, None), (3, None)], threshold=99)
        assert set(scalar.equivocators) == set(batch.equivocators) == {1}
        assert scalar.signers("b") == batch.signers("b")
        assert scalar.checks == batch.checks == 4


class TestStageVoteRun:
    """``Party.stage_vote_run``: the one absorber behind every forwarded
    vote quorum.  A staged run must hand back the scalar loop's crossing
    mask; every deviation must leave the tracker exactly as it was."""

    N, THRESHOLD = 8, 4

    @staticmethod
    def _parse(vote):
        body = vote.payload
        if isinstance(body, tuple) and len(body) == 2 and body[0] == "vote":
            return body[1]
        return None

    @pytest.fixture
    def party(self):
        from repro.sim.delays import FixedDelay
        from repro.sim.process import Party
        from repro.sim.runner import World

        world = World(n=self.N, f=2, delay_policy=FixedDelay(1.0))
        party = Party(world, 0)
        # The registry issues each signer once; party 0 holds its own.
        self.signers = [party.signer] + [
            world.registry.signer_for(pid) for pid in range(1, self.N)
        ]
        return party

    def _vote(self, signer, value="a"):
        return self.signers[signer].sign(("vote", value))

    def _seeded_tracker(self, party):
        # One vote for "a" and one for "b" already tallied, so a run has
        # a non-empty mask to extend and signer 7 can equivocate.
        tracker = party.quorum_tracker(detect_equivocation=True)
        tracker.add("a", 0, self._vote(0))
        tracker.add("b", 7, self._vote(7, "b"))
        return tracker

    @staticmethod
    def _state(tracker):
        return (
            tracker.checks,
            tracker.batched,
            {value: tuple(tracker.signers(value)) for value in tracker.values()},
            set(tracker.equivocators),
        )

    def test_crossing_run_returns_the_scalar_crossing_mask(self, party):
        # Oversize run (five votes, three needed) with an equivocator.
        run = tuple(self._vote(s) for s in (1, 7, 2, 3, 4))
        scalar = self._seeded_tracker(party)
        scalar_mask = None
        for vote in run:
            if scalar.add("a", vote.signer, vote) == self.THRESHOLD:
                scalar_mask = sum(1 << s for s in scalar.signers("a"))
        tracker = self._seeded_tracker(party)
        before = self._state(tracker)
        staged_run = party.stage_vote_run(
            tracker, run, self._parse, threshold=self.THRESHOLD
        )
        assert staged_run is not None
        key, staged = staged_run
        assert key == "a"
        assert staged.crossing_mask == scalar_mask
        assert self._state(tracker) == before  # staging mutates nothing
        tracker.commit_staged(staged)
        assert tracker.batched == len(run)
        assert self._state(tracker)[2:] == self._state(scalar)[2:]
        assert tracker.checks == scalar.checks

    @staticmethod
    def _forged(signer):
        from repro.crypto.messages import digest
        from repro.crypto.signatures import Signature, SignedPayload

        body = ("vote", "a")
        return SignedPayload(body, Signature(signer, digest(body)))

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda t: (), id="empty"),
            pytest.param(
                lambda t: tuple(t._vote(s) for s in (1, 2)),
                id="does-not-cross",
            ),
            pytest.param(
                lambda t: tuple(t._vote(s) for s in (0, 1, 2)),
                id="duplicate-keeps-it-below",
            ),
            pytest.param(
                lambda t: (
                    *(t._vote(s) for s in (1, 2, 3)),
                    t._vote(4, "b"),
                ),
                id="mixed-values",
            ),
            pytest.param(
                lambda t: (
                    *(t._vote(s) for s in (1, 2, 3)),
                    t.signers[4].sign(("vote",)),
                ),
                id="malformed-body",
            ),
            # A ``None`` key is "malformed" wherever it stands: a leading
            # one does not let the run adopt the value that follows.
            pytest.param(
                lambda t: (
                    t._vote(1, None),
                    *(t._vote(s) for s in (2, 3, 4)),
                ),
                id="leading-none-key",
            ),
            pytest.param(
                lambda t: tuple(t._vote(s, None) for s in (1, 2, 3, 4)),
                id="all-none-keys",
            ),
            pytest.param(
                lambda t: (*(t._vote(s) for s in (1, 2, 3)), "vote"),
                id="not-a-signed-payload",
            ),
            pytest.param(
                lambda t: (
                    *(t._vote(s) for s in (1, 2)),
                    t._forged(3),
                ),
                id="forged-signature",
            ),
        ],
    )
    def test_any_deviation_leaves_the_tracker_untouched(self, party, build):
        tracker = self._seeded_tracker(party)
        before = self._state(tracker)
        run = build(self)
        assert (
            party.stage_vote_run(
                tracker, run, self._parse, threshold=self.THRESHOLD
            )
            is None
        )
        assert self._state(tracker) == before
