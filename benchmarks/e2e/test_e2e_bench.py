"""Self-test of the repo benchmark (``run.py --quick``: n <= 31, 2 ops).

Checks the contract between ``BENCHMARK.json`` and what ``run.py``
prints, that a wrong simulated result or an overrunning child turns
into a failed op, and that the traced pass wraps every listed entry
point.  Timings are never asserted on.
"""
from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *args],
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def bench():
    """``run.py`` as a module."""
    spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    proc = run_bench("--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text())


def test_declaration_is_within_the_limits():
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in DECLARED[key]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in DECLARED["end_to_end"])


def test_every_declared_metric_is_measured_and_printed(quick):
    stdout, results = quick
    assert list(results["workloads"]) == [
        w["name"] for w in DECLARED["workloads"]
    ]
    for key in ("end_to_end", "per_layer"):
        declared = {m["name"] for m in DECLARED[key]}
        for row in results["workloads"].values():
            assert set(row[key]) == declared
        for name in declared:
            assert re.search(rf"^   {re.escape(name)} ", stdout, re.M), name
    assert "metric names differ" not in stdout


def test_no_op_fails_and_the_trace_covers_the_run(quick):
    _, results = quick
    for name, row in results["workloads"].items():
        assert row["untraced"]["failed"] == row["traced"]["failed"] == 0, name
        assert row["untraced"]["attempted"] == 2
        layers = row["per_layer"]
        assert layers["trace.unwrapped"] == 0
        # The event loop's own time counts as unclaimed; what is left
        # falls well below this when a layer's wrappers go missing.
        assert 0.7 < layers["trace.coverage"] <= 1
        sharded = name.endswith("_sharded")
        assert (layers["coordinator.barrier_rounds"] > 0) == sharded
        assert (layers["faults.calls"] > 0) == (
            name in ("brb_uniform_chaos", "categorization")
        )


def test_wrong_pinned_count_fails_every_op(bench):
    pinned = dict(json.loads(bench.PINS.read_text())["quick"]["brb_fixed"])
    pinned["messages_sent"] += 1
    spec = {"workload": "brb_fixed", "seed": bench.DEFAULT_SEED,
            "quick": True, "traced": False}
    ops = bench.tally(
        bench.run_ops(spec, bench.child_env(), seconds=0.0, pinned=pinned)
    )
    assert ops["failed"] == ops["attempted"] == bench.MIN_OPS
    assert all("messages_sent" in error for error in ops["errors"])


def test_overrunning_child_is_killed_and_counted(bench, tmp_path):
    sleeper = tmp_path / "sleeper.py"
    sleeper.write_text("import time\ntime.sleep(60)\n")
    began = time.monotonic()
    op = bench.run_op(
        {"workload": "brb_fixed"}, bench.child_env(),
        timeout_s=0.5, child=sleeper,
    )
    assert time.monotonic() - began < 10
    assert op["errors"] == ["killed after 0.5 s"]
