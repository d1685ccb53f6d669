"""Every ``examples/*.py`` script runs, prints, and is deterministic.

The examples drive code no unit test imports the same way — SMR slots
under a crashed leader (``smr_demo``), every witness's brains
(``lower_bound_tour``) — so tier-1 runs each one the way a reader would.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _run(script: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_the_five_examples_are_collected():
    assert [path.stem for path in EXAMPLES] == [
        "latency_categorization", "lower_bound_tour", "quickstart",
        "resilience_boundary", "smr_demo",
    ]


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_and_is_deterministic(script):
    first = _run(script)
    assert first.returncode == 0, first.stderr
    assert first.stdout.strip()
    assert _run(script).stdout == first.stdout
