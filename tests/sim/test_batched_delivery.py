"""Parity suite for batched delivery and staged vote runs.

Run batching (one ``_deliver_many`` event per equal-delay fan-out run)
and vote batching (``Party.stage_vote_run``: one staged batch per
uniform forwarded quorum that crosses its threshold, the per-vote loop
otherwise) are pure performance transforms: the same seed must yield the
same commits, message counts, logical event counts and tally counters
with either path.  This suite pins that equivalence across presets —
``"perf-observed"`` forces the per-copy path the way production does, by
attaching an envelope observer to the otherwise bare ``perf`` preset —
plus the counter relationships the benchmarks report.
"""
import pytest

from repro.protocols.brb_2round import Brb2Round
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.protocols.sync.bb_2delta import Bb2Delta
from repro.protocols.sync.bb_delta_15delta import BbDelta15Delta
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.instrumentation import Instrumentation
from repro.sim.runner import run_broadcast

CASES = {
    "brb_2round": (Brb2Round, 13, 4, {}),
    "bb_2delta": (Bb2Delta, 10, 3, {"big_delta": 1.0}),
    "bb_delta_15delta": (BbDelta15Delta, 9, 4, {"big_delta": 1.0}),
    "vbb_5f1": (PsyncVbb5f1, 11, 2, {}),
}


def _instrumentation(preset):
    if preset == "full":
        return Instrumentation(name="full", rounds=True, transcripts=True)
    return Instrumentation(
        name="perf", rounds=False, transcripts=False,
        envelopes=preset == "perf-observed",
    )


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
        instrumentation=_instrumentation(preset),
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
        for preset in ("perf", "perf-observed"):
            outcome = _outcome(_run(case, preset, delay=delay))
            assert outcome == base, f"{case}/{delay}: {preset} diverged"

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
            instrumentation=_instrumentation("perf"),
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
        # full: the accountant observes every copy — per-copy forced;
        # so does a lone envelope observer on the perf preset.
        for preset in ("full", "perf-observed"):
            observed = _run("brb_2round", preset, delay="fixed")
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
