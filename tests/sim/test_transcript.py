"""Tests for view digests and indistinguishability checking."""
import pytest

from repro.sim.transcript import (
    Transcript,
    first_divergence,
    indistinguishable,
)


def make_transcript(party, recvs):
    transcript = Transcript(party)
    transcript.record_start(0.0)
    for local_time, sender, payload in recvs:
        transcript.record_recv(local_time, sender, payload)
    return transcript


class TestIndistinguishability:
    def test_identical_histories_match(self):
        recvs = [(1.0, 1, "a"), (2.0, 2, "b")]
        a = make_transcript(0, recvs)
        b = make_transcript(0, recvs)
        assert indistinguishable(a, b, local_cutoff=10.0)

    def test_differing_payloads_diverge(self):
        a = make_transcript(0, [(1.0, 1, "a")])
        b = make_transcript(0, [(1.0, 1, "b")])
        assert not indistinguishable(a, b, local_cutoff=10.0)

    def test_differing_times_diverge(self):
        a = make_transcript(0, [(1.0, 1, "a")])
        b = make_transcript(0, [(1.5, 1, "a")])
        assert not indistinguishable(a, b, local_cutoff=10.0)

    def test_differing_senders_diverge(self):
        a = make_transcript(0, [(1.0, 1, "a")])
        b = make_transcript(0, [(1.0, 2, "a")])
        assert not indistinguishable(a, b, local_cutoff=10.0)

    def test_divergence_after_cutoff_ignored(self):
        a = make_transcript(0, [(1.0, 1, "a"), (5.0, 2, "x")])
        b = make_transcript(0, [(1.0, 1, "a"), (5.0, 2, "y")])
        assert indistinguishable(a, b, local_cutoff=5.0)
        assert not indistinguishable(a, b, local_cutoff=5.5)

    def test_cutoff_is_strict(self):
        a = make_transcript(0, [(5.0, 1, "x")])
        b = make_transcript(0, [])
        assert indistinguishable(a, b, local_cutoff=5.0)

    def test_commits_do_not_affect_receive_history(self):
        a = make_transcript(0, [(1.0, 1, "a")])
        b = make_transcript(0, [(1.0, 1, "a")])
        a.record_commit(2.0, "v")
        assert indistinguishable(a, b, local_cutoff=10.0)

    def test_content_mode_ignores_only_the_sender(self):
        base = make_transcript(0, [(1.0, 1, "a")])
        relayed = make_transcript(0, [(1.0, 2, "a")])
        later = make_transcript(0, [(1.5, 1, "a")])
        other = make_transcript(0, [(1.0, 1, "b")])
        check = dict(local_cutoff=10.0, compare="content")
        assert indistinguishable(base, relayed, **check)
        assert not indistinguishable(base, later, **check)
        assert not indistinguishable(base, other, **check)

    def test_negative_zero_is_the_zero_instant(self):
        a = make_transcript(0, [(-0.0, 1, "a"), (0.0, 2, "b")])
        b = make_transcript(0, [(0.0, 2, "b"), (0.0, 1, "a")])
        assert list(a.instants) == [0.0]
        assert a.digest() == b.digest()
        assert indistinguishable(a, b, local_cutoff=1.0)

    def test_a_repeated_receive_is_not_one_receive(self):
        once = make_transcript(0, [(1.0, 1, "a")])
        twice = make_transcript(0, [(1.0, 1, "a"), (1.0, 1, "a")])
        assert not indistinguishable(once, twice, local_cutoff=10.0)
        assert first_divergence(once, twice) == 1.0

    def test_unknown_compare_mode_rejected(self):
        a = make_transcript(0, [])
        with pytest.raises(ValueError, match="unknown comparison mode"):
            indistinguishable(a, a, local_cutoff=1.0, compare="sender")

    def test_receive_instants_never_decrease(self):
        a = make_transcript(0, [(2.0, 1, "a")])
        with pytest.raises(ValueError, match="after 2.0"):
            a.record_recv(1.0, 1, "b")


class TestDigest:
    def test_running_sums_per_instant(self):
        a = make_transcript(0, [(1.0, 1, "a"), (1.0, 2, "b"), (3.0, 1, "c")])
        assert list(a.instants) == [1.0, 3.0]
        assert a.digest(local_cutoff=1.0) == 0
        through_one = a.digest(local_cutoff=2.0)
        assert through_one == a.digest(local_cutoff=3.0) != 0
        assert a.digest() not in (0, through_one)
        assert Transcript(0).digest() == 0


class TestFirstDivergence:
    def test_none_when_identical(self):
        a = make_transcript(0, [(1.0, 1, "a")])
        b = make_transcript(0, [(1.0, 1, "a")])
        assert first_divergence(a, b) is None

    def test_reports_first_mismatch(self):
        a = make_transcript(0, [(1.0, 1, "a"), (2.0, 1, "b")])
        b = make_transcript(0, [(1.0, 1, "a"), (2.0, 1, "c")])
        assert first_divergence(a, b) == 2.0

    def test_reports_extra_entry(self):
        a = make_transcript(0, [(1.0, 1, "a"), (2.0, 1, "b")])
        b = make_transcript(0, [(1.0, 1, "a")])
        assert first_divergence(a, b) == first_divergence(b, a) == 2.0

    def test_heap_order_within_one_instant_is_not_a_divergence(self):
        # Two views that indistinguishable() accepts (same instant,
        # different heap processing order) must not report a divergence.
        a = make_transcript(0, [(1.0, 1, "x"), (1.0, 2, "y")])
        b = make_transcript(0, [(1.0, 2, "y"), (1.0, 1, "x")])
        assert indistinguishable(a, b, local_cutoff=10.0)
        assert first_divergence(a, b) is None

    def test_real_divergence_still_reported_amid_reordering(self):
        a = make_transcript(0, [(1.0, 2, "y"), (1.0, 1, "x")])
        b = make_transcript(0, [(1.0, 1, "x"), (1.0, 2, "z")])
        assert first_divergence(a, b) == 1.0

    def test_content_mode_names_the_content_divergence(self):
        # The two views differ by sender at 1.0 (a channel difference
        # only) and by content at 2.0: a content check names 2.0.
        a = make_transcript(0, [(1.0, 1, "x"), (2.0, 1, "y")])
        b = make_transcript(0, [(1.0, 2, "x"), (2.0, 1, "z")])
        assert indistinguishable(a, b, local_cutoff=1.5, compare="content")
        assert not indistinguishable(a, b, local_cutoff=3.0, compare="content")
        assert first_divergence(a, b, compare="content") == 2.0
        assert first_divergence(a, b) == 1.0

    def test_witness_check_forwards_its_compare_mode(self):
        from types import SimpleNamespace

        from repro.lowerbounds.framework import (
            WitnessReport,
            check_indistinguishable,
        )

        a = make_transcript(0, [(1.0, 1, "x"), (2.0, 1, "y")])
        b = make_transcript(0, [(1.0, 2, "x"), (2.0, 1, "z")])
        report = WitnessReport("thm", "claim", executions={
            name: SimpleNamespace(agents={0: SimpleNamespace(transcript=t)})
            for name, t in (("a", a), ("b", b))
        })
        check_indistinguishable(
            report, [0], "a", "b", local_cutoff=3.0, compare="content"
        )
        (check,) = report.checks
        assert not check.holds
        assert check.detail == "first divergence at local time 2.0"
