"""Tests for world construction and result collection."""
import pytest

from repro.errors import ConfigurationError
from repro.sim.delays import FixedDelay
from repro.sim.process import Party
from repro.sim.runner import RunResult, World


class Committer(Party):
    def __init__(self, world, pid, value="v"):
        super().__init__(world, pid)
        self.value = value

    def on_start(self):
        self.commit(self.value)


class TestWorldValidation:
    def test_byzantine_budget_enforced(self):
        with pytest.raises(ConfigurationError):
            World(
                n=4, f=1, delay_policy=FixedDelay(1.0),
                byzantine=frozenset({0, 1}),
            )

    def test_byzantine_ids_in_range(self):
        with pytest.raises(ConfigurationError):
            World(
                n=4, f=2, delay_policy=FixedDelay(1.0),
                byzantine=frozenset({7}),
            )

    def test_offsets_length_checked(self):
        with pytest.raises(ConfigurationError):
            World(
                n=4, f=1, delay_policy=FixedDelay(1.0),
                start_offsets=[0.0, 0.0],
            )

    def test_honest_ids_excludes_byzantine(self):
        world = World(
            n=4, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({2})
        )
        world.populate(lambda w, pid: Committer(w, pid))
        assert world.run().honest_ids == [0, 1, 3]

    def test_crash_default_for_missing_behavior_factory(self):
        world = World(
            n=3, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({1})
        )
        world.populate(lambda w, pid: Committer(w, pid))
        result = world.run()
        assert 1 not in world.agents
        assert result.all_honest_committed()


class TestRunResult:
    def make_result(self, commits, *, n=3, byzantine=frozenset()):
        return RunResult(
            n=n,
            f=1,
            byzantine=byzantine,
            commits=commits,
            commit_global_times={p: 1.0 for p in commits},
            commit_rounds={p: 2 for p in commits},
        )

    def test_committed_value_requires_unanimity(self):
        with pytest.raises(ValueError):
            self.make_result({0: "a", 1: "b"}).committed_value()
        with pytest.raises(ValueError):
            self.make_result({}).committed_value()
        assert self.make_result({0: "a", 1: "a"}).committed_value() == "a"

    def test_latency_requires_all_honest(self):
        partial = self.make_result({0: "a"})
        with pytest.raises(ValueError):
            partial.latency_from(0.0)
        full = self.make_result({0: "a", 1: "a", 2: "a"})
        assert full.latency_from(0.5) == pytest.approx(0.5)

    def test_round_latency_requires_all_honest(self):
        with pytest.raises(ValueError):
            self.make_result({0: "a"}).round_latency()
        assert self.make_result({0: "a", 1: "a", 2: "a"}).round_latency() == 2

    def test_byzantine_excluded_from_all_honest(self):
        result = self.make_result(
            {0: "a", 2: "a"}, byzantine=frozenset({1})
        )
        assert result.all_honest_committed()


class TestCommitOrder:
    def test_commit_order_recorded(self):
        world = World(n=3, f=0, delay_policy=FixedDelay(1.0))
        world.populate(lambda w, pid: Committer(w, pid))
        world.run()
        assert world.instrumentation.commit_order == [0, 1, 2]
