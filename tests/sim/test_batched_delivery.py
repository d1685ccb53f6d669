"""Parity suite for batched delivery and staged vote runs.

Run batching (one ``_deliver_many`` event per equal-delay fan-out run)
and vote batching (``Party.stage_vote_run``: one staged batch per
uniform forwarded quorum that crosses its threshold, the per-vote loop
otherwise) are pure performance transforms: the same seed must yield the
same commits, message counts, logical event counts and tally counters
with either path.  This suite pins that equivalence across the two
presets — ``"full"`` forces the per-copy path the way production does,
with the accountant registering every copy — plus the counter
relationships the benchmarks report.

A third transform rides on run batching: in a world whose attached
agents are all of one class that defines ``deliver_run`` (``Brb2Round``,
``PsyncVbb5f1``), a folded vote run is parsed once and each recipient
only tallies (``TestRunHandler``).
"""
import pytest

from repro.adversary.behaviors import crash_at
from repro.analysis.ablation import AblatedPsyncVbb
from repro.crypto.signatures import KeyRegistry
from repro.protocols.brb_2round import Brb2Round
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.protocols.quorum import QuorumTracker
from repro.protocols.sync.bb_2delta import Bb2Delta
from repro.protocols.sync.bb_delta_15delta import BbDelta15Delta
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.network import Network
from repro.sim.runner import World, run_broadcast

CASES = {
    "brb_2round": (Brb2Round, 13, 4, {}),
    "bb_2delta": (Bb2Delta, 10, 3, {"big_delta": 1.0}),
    "bb_delta_15delta": (BbDelta15Delta, 9, 4, {"big_delta": 1.0}),
    "vbb_5f1": (PsyncVbb5f1, 11, 2, {}),
}


def _run(case, preset, *, delay):
    cls, n, f, kwargs = CASES[case]
    if delay == "fixed":
        policy = FixedDelay(0.37)
    else:
        policy = UniformDelay(0.0, 0.9, seed=11)
    return run_broadcast(
        n=n,
        f=f,
        party_factory=cls.factory(broadcaster=0, input_value="v", **kwargs),
        delay_policy=policy,
        instrumentation=preset,
    )


def _outcome(result):
    return (
        dict(result.commits),
        dict(result.commit_global_times),
        result.messages_sent,
        result.final_time,
        result.events_processed,
        result.quorum_checks,
        result.equivocations_detected,
    )


class TestBatchedDeliveryParity:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("delay", ["fixed", "uniform"])
    def test_same_seed_same_outcome_all_modes(self, case, delay):
        base = _outcome(_run(case, "full", delay=delay))
        outcome = _outcome(_run(case, "perf", delay=delay))
        assert outcome == base, f"{case}/{delay}: perf diverged"

    def test_zero_delay_runs_stay_per_copy(self):
        # Same-instant deliveries keep per-copy scheduling (reaction
        # ordering at one instant is seq-sensitive), so a zero-delay
        # policy must never produce a batched run.
        result = _run("brb_2round", "perf", delay="fixed")
        assert result.deliveries_batched > 0  # sanity: 0.37 > 0 batches
        zero = run_broadcast(
            n=13,
            f=4,
            party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
            delay_policy=FixedDelay(0.0),
            instrumentation="perf",
        )
        assert zero.deliveries_batched == 0
        assert zero.delivery_runs_batched == 0
        assert zero.all_honest_committed()


class TestBatchedDeliveryCounters:
    def test_perf_counts_batched_runs_full_stays_per_copy(self):
        perf = _run("brb_2round", "perf", delay="fixed")
        # perf: no per-copy observer, so fixed-delay fan-outs batch.
        assert perf.deliveries_batched > 0
        assert perf.delivery_runs_batched > 0
        # full: the accountant observes every copy — per-copy forced.
        observed = _run("brb_2round", "full", delay="fixed")
        assert observed.deliveries_batched == 0
        assert observed.delivery_runs_batched == 0
        # events_processed counts *logical* deliveries in both paths.
        assert perf.events_processed == observed.events_processed

    def test_votes_batched_counts_vectorized_absorbs(self):
        # Stragglers receive quorum forwards before terminating, so the
        # vectorized vote path activates under spread-out delays...
        spread = _run("brb_2round", "perf", delay="uniform")
        assert spread.votes_batched > 0
        # ...and is instrumentation-invariant: the vote path is chosen
        # by message *content*, not by the delivery mode.
        spread_full = _run("brb_2round", "full", delay="uniform")
        assert spread_full.votes_batched == spread.votes_batched


class _SubBrb(Brb2Round):
    """A subclass inherits ``deliver_run`` but must not get it: it could
    change any handler the walk inlines."""


#: name -> (class, n, f, protocol kwargs, world kwargs, handler installed).
#: Ids 3 and 7 sit inside the fan-out ranges of most senders.
HANDLER_WORLDS = {
    "brb": (Brb2Round, 13, 4, {}, {}, True),
    "vbb": (PsyncVbb5f1, 11, 2, {"big_delta": 1.0}, {}, True),
    "brb_subclass": (_SubBrb, 13, 4, {}, {}, False),
    "vbb_ablated": (
        AblatedPsyncVbb, 11, 2, {"big_delta": 1.0}, {}, False,
    ),
    "brb_crashed_from_start": (
        Brb2Round, 13, 4, {}, {"byzantine": frozenset({3, 7})}, True,
    ),
    "vbb_crashed_from_start": (
        PsyncVbb5f1, 11, 2, {"big_delta": 1.0},
        {"byzantine": frozenset({3, 7})}, True,
    ),
    "brb_hosted": (
        Brb2Round, 13, 4, {},
        {"byzantine": frozenset({3, 7}), "hosted": True}, False,
    ),
    "vbb_hosted": (
        PsyncVbb5f1, 11, 2, {"big_delta": 1.0},
        {"byzantine": frozenset({3, 7}), "hosted": True}, False,
    ),
    "brb_staggered": (
        Brb2Round, 13, 4, {},
        {"start_offsets": [0.05 * (p % 3) for p in range(13)]}, True,
    ),
    "vbb_staggered": (
        PsyncVbb5f1, 11, 2, {"big_delta": 1.0},
        {"start_offsets": [0.05 * (p % 3) for p in range(11)]}, True,
    ),
}


def _handler_world(name, preset, shards=1):
    cls, n, f, kwargs, extra, _ = HANDLER_WORLDS[name]
    extra = dict(extra)
    factory = cls.factory(broadcaster=0, input_value="v", **kwargs)
    # Each hosted id runs the honest protocol until it crashes mid-run.
    behavior = (
        crash_at(at=1.3, party_factory=factory)
        if extra.pop("hosted", False) else None
    )
    world = World(
        n=n, f=f, delay_policy=FixedDelay(0.37), instrumentation=preset,
        shards=shards, **extra,
    )
    world.populate(factory, behavior)
    world.run()
    return world


def _tallies(world):
    """Every honest party's quorum trackers: tallies, checks, flags."""
    return {
        party.id: {
            name: (
                tracker.value_counts(), tracker.checks, tracker.batched,
                sorted(tracker.equivocators),
            )
            for name, tracker in vars(party).items()
            if isinstance(tracker, QuorumTracker)
        }
        for party in world.honest_parties()
    }


def _world_outcome(world):
    result = world.result()
    return (
        _outcome(result),
        result.votes_batched,
        result.commit_views,
        result.view_changes,
        world.network.messages_delivered,
        _tallies(world),
    )


class TestRunHandler:
    """``full`` is the per-copy reference (nothing folds under it);
    ``perf`` folds runs and, where installed, hands them to the run
    handler.  Either way every outcome, counter and tally is the same."""

    @pytest.mark.parametrize("name", sorted(HANDLER_WORLDS))
    def test_fold_matches_per_copy(self, name):
        installed = HANDLER_WORLDS[name][-1]
        reference = _handler_world(name, "full")
        folded = _handler_world(name, "perf")
        assert reference.network.run_handler is None
        assert (folded.network.run_handler is not None) == installed
        assert _world_outcome(folded) == _world_outcome(reference)
        assert folded.result().all_honest_committed()

    def test_runs_reach_the_handler(self):
        # The exact-type worlds do fold: the comparison above is not
        # between two per-copy runs.
        for name in ("brb", "vbb", "brb_crashed_from_start"):
            assert _handler_world(name, "perf").result().deliveries_batched

    @pytest.mark.parametrize("name", ["brb", "vbb", "brb_crashed_from_start"])
    def test_sharded_matches_per_copy(self, name):
        reference = _handler_world(name, "full").result()
        sharded = _handler_world(name, "perf", shards=2).result()
        assert sharded.shards == 2
        assert (
            sharded.commits, sharded.commit_global_times,
            sharded.messages_sent, sharded.quorum_checks,
            sharded.votes_batched, sharded.equivocations_detected,
        ) == (
            reference.commits, reference.commit_global_times,
            reference.messages_sent, reference.quorum_checks,
            reference.votes_batched, reference.equivocations_detected,
        )

    def test_a_vote_run_is_verified_once(self, monkeypatch):
        calls = [0]
        per_run = []
        verify = KeyRegistry.verify
        deliver_many = Network._deliver_many

        def counted_verify(self, signed):
            calls[0] += 1
            return verify(self, signed)

        def watched(self, sender, recipients, payload):
            before = calls[0]
            deliver_many(self, sender, recipients, payload)
            if payload[0] == "vote":
                per_run.append(calls[0] - before)

        monkeypatch.setattr(KeyRegistry, "verify", counted_verify)
        monkeypatch.setattr(Network, "_deliver_many", watched)
        world = _handler_world("brb", "perf")
        assert world.result().all_honest_committed()
        assert per_run and max(per_run) == 1
