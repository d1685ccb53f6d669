"""Tests for the command-line interface."""
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.delta == 0.25
        assert args.big_delta == 1.0

    def test_witness_choices(self):
        args = build_parser().parse_args(["witness", "thm10"])
        assert args.theorem == "thm10"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["witness", "thm99"])

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.smoke is False
        assert args.deep is False
        # Resolved inside the command: 16 normally, 8 smoke, 200 deep.
        assert args.plans is None
        assert args.protocols is None
        assert args.workers == 1
        assert args.instrumentation == "perf"
        assert args.base_seed == 0
        assert args.emit_reproducers is None


class TestCommands:
    def test_table1_exit_code_zero(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "psync-BB" in out
        assert "NO" not in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--deltas", "0.25,0.5"]) == 0
        out = capsys.readouterr().out
        assert "2delta" in out

    def test_witness_thm04(self, capsys):
        assert main(["witness", "thm04"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4" in out
        assert "violation" in out

    def test_table1_off_grid_delta_exits_zero(self, capsys):
        assert main(["table1", "--delta", "0.3"]) == 0
        assert "NO" not in capsys.readouterr().out

    def test_witness_with_a_failing_check_exits_one(
        self, capsys, monkeypatch
    ):
        """The checks are the proof: a violation alone is not a pass."""
        import sys
        import types

        import repro.lowerbounds as lowerbounds

        def broken_proof():
            report = lowerbounds.WitnessReport("Theorem 99", "a stub claim")
            report.checks.append(
                lowerbounds.IndistinguishabilityCheck(
                    1, "E1", "E2", 1.0, holds=False
                )
            )
            report.violation = lowerbounds.Disagreement("E2", 1, 0, 2, 1)
            return report

        stub = types.ModuleType("repro.lowerbounds.thm99_stub")
        stub.run_witness = broken_proof
        monkeypatch.setitem(sys.modules, stub.__name__, stub)
        monkeypatch.setitem(lowerbounds.WITNESSES, "thm99", "thm99_stub")
        assert main(["witness", "thm99"]) == 1
        out = capsys.readouterr().out
        assert "indistinguishable[FAILED]" in out
        assert "violation: in E2" in out

    def test_smr(self, capsys):
        assert main(["smr", "--slots", "2"]) == 0
        out = capsys.readouterr().out
        assert "replicas agree: True" in out

    def test_smr_default_stdout_is_the_parents_plus_one_line(self, capsys):
        assert main(["smr"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # Recorded at the parent commit (PR 16): `python -m repro smr`.
        assert lines[:-1] == [
            "slot 0: ('set', 'key0', 0) @ t=0.200",
            "slot 1: ('set', 'key1', 1) @ t=0.400",
            "slot 2: ('set', 'key2', 4) @ t=0.600",
            "slot 3: ('set', 'key3', 9) @ t=0.800",
            "slot 4: ('set', 'key4', 16) @ t=1.000",
            "replicas agree: True",
        ]
        assert lines[-1] == "slots committed: 5/5"

    def test_smr_stalled_log_exits_one(self, capsys):
        # Delta below the actual delay: every view times out before its
        # votes land, no slot ever commits — and the empty state machines
        # trivially "agree", which used to exit 0.
        argv = ["smr", "--slots", "3", "--delay", "0.1", "--big-delta", "0.01"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "replicas agree: True" in out
        assert "slots committed: 0/3" in out

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["--n", "7", "--f", "2"], "n 5f-1 violated for n=7, f=2"),
            (["--slots", "0"], "--slots must be at least 1"),
        ],
    )
    def test_smr_bad_arguments_exit_two_in_one_line(
        self, capsys, argv, needle
    ):
        assert main(["smr", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert needle in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_ablation(self, capsys):
        assert main(["ablation"]) == 0
        out = capsys.readouterr().out
        assert "load-bearing: True" in out

    def test_chaos_clean_subset_exits_zero(self, capsys):
        assert main(
            ["chaos", "--plans", "2",
             "--protocols", "brb_2round,dolev_strong"]
        ) == 0
        out = capsys.readouterr().out
        assert "4 fault plans across 2 protocols" in out
        assert "invariant violations: 0" in out

    def test_chaos_deep_runs_both_tiers_and_gates(self, capsys):
        assert main(
            ["chaos", "--deep", "--plans", "1",
             "--protocols", "psync_pbft"]
        ) == 0
        out = capsys.readouterr().out
        assert "[tiers: good-case, viewchange]" in out
        assert "view-change smoke: commit views" in out
        assert "reliable-drop demo:" in out
        assert "invariant violations: 0" in out

    @pytest.mark.parametrize("shards", ["0", "-3"])
    def test_chaos_shards_below_one_exits_two_in_one_line(
        self, capsys, shards
    ):
        assert main(["chaos", "--plans", "1", "--shards", shards]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--shards must be at least 1, got {shards}" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_chaos_refused_shards_are_reported(self, capsys):
        # ``full`` instrumentation forces every run to one process (rule
        # ``observers``); the CLI must say so, and say nothing when the
        # request is granted.
        argv = ["chaos", "--protocols", "brb_2round", "--plans", "2",
                "--shards", "2"]
        assert main([*argv, "--instrumentation", "full"]) == 0
        refused = capsys.readouterr().out.splitlines()
        assert (
            "shards: 2 requested, 2 of 2 runs fell back to 1 (observers)"
            in refused
        )
        assert main(argv) == 0
        granted = capsys.readouterr().out.splitlines()
        assert not any(line.startswith("shards:") for line in granted)
        assert len(refused) == len(granted) + 1

    def test_chaos_violation_exits_one(self, capsys, monkeypatch):
        import repro.analysis.chaos as chaos_mod
        from repro.sim.faults import Crash, FaultPlan

        over_budget = FaultPlan(
            crashes=(Crash(1, 0.0), Crash(2, 0.0), Crash(3, 0.0)), seed=7
        )
        monkeypatch.setattr(
            chaos_mod, "random_fault_plan", lambda protocol, seed: over_budget
        )
        assert main(
            ["chaos", "--plans", "1", "--protocols", "brb_2round"]
        ) == 1
        out = capsys.readouterr().out
        assert "invariant violations: 1" in out
        assert "[termination]" in out
        assert "minimal: Crash(" in out
