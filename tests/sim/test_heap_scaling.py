"""The fast path's working set grows about linearly in n.

``benchmarks/heap_peak.py`` reports how far the traced Python heap peaks
above its post-``populate`` size during a fixed-delay 2-round BRB run.
Everything a run keeps per message actually sent — the vote quorums each
committer forwards, their digests, the memoized vote encodings — is
O(n); a per-sender recipient list or a content key per quorum is O(n²)
and shows up as a ratio near 9 between n=301 and n=101 (the quadratic
share alone read 6.6 here).  A ratio, not a byte bound, so it holds on
every Python version the suite runs on.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _run_peak_bytes(n: int) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "heap_peak.py"),
         "--n", str(n)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return int(re.search(r"\((\d+) B\)", out).group(1))


def test_run_heap_peak_grows_linearly():
    small, large = _run_peak_bytes(101), _run_peak_bytes(301)
    assert large / small < 4.5, (small, large)
