"""The fast path's working set grows about linearly in n, and a copy in
flight costs a bounded number of bytes.

``benchmarks/heap_peak.py`` reports how far the traced Python heap peaks
above its post-``populate`` size during a 2-round BRB run.  Under fixed
delays:
Everything a run keeps per message actually sent — the vote quorums each
committer forwards, their digests, the memoized vote encodings — is
O(n); a per-sender recipient list or a content key per quorum is O(n²)
and shows up as a ratio near 9 between n=301 and n=101 (the quadratic
share alone read 6.6 here).  A ratio, not a byte bound, so it holds on
every Python version the suite runs on.

Under counter-stream uniform delays nothing folds, and the peak is the
in-flight copies: about 115 k of the n=301 run's 181,202 messages at
once.  Only the open calendar window holds a queue entry and an
``args`` tuple per copy; a copy parked in a closed window is an index in
its fan-out's slice plus its slots in the fan-out's instant and
recipient columns.  That is a byte bound per message sent, set between
the ~156 B a copy cost while every one was a plain entry (223 B while
every one carried an ``Event`` cell) and the ~77 B it costs deferred.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _run_peak(*args: str) -> tuple[int, int]:
    """``heap_peak.py``'s traced peak in bytes, and the messages sent."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "heap_peak.py"), *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    peak = re.search(r"\((\d+) B\)", out).group(1)
    messages = re.search(r"\((\d+) messages\)", out).group(1)
    return int(peak), int(messages)


def test_run_heap_peak_grows_linearly():
    (small, _), (large, _) = _run_peak("--n", "101"), _run_peak("--n", "301")
    assert large / small < 4.5, (small, large)


def test_per_copy_path_peak_per_message_is_bounded():
    peak, messages = _run_peak("--delay", "uniform")
    assert messages == 181_202
    assert peak / messages < 110, (peak, messages)
