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
``args`` tuple per copy; a copy parked in a closed window holds no
Python object of its own: its instant is 8 bytes of its fan-out's
``array('d')``, its recipient a slot of the fan-out's ``range``, and its
index 4 bytes of the fan-out's window-ordered index array, plus a share
of one ``(batch, order, lo, hi)`` span per window.  That is a byte bound
per message sent, set between the ~77 B a copy cost while a closed
window kept Python lists of boxed instants, recipients and indices
(~156 B while every copy was a plain entry) and the ~40 B it costs as
typed columns.
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
    assert peak / messages < 50, (peak, messages)
