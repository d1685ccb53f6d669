"""The committed regression corpus: replay every reproducer in this dir.

Each ``*.json`` file here is a self-contained fault-plan reproducer
(see ``repro.analysis.chaos.write_reproducer``): protocol, tier, the
full plan, an optional reliable-link policy, and the expected outcome.
``expect: "clean"`` files pin scenarios that once failed (or that a gate
depends on) and must stay violation-free; ``expect: "violation"`` files
pin known-bad contrast cases that must *keep* failing, so a semantics
change cannot silently declare fatal loss survivable.

To commit a new reproducer: run ``python -m repro chaos --deep
--emit-reproducers <dir>`` (the nightly job uploads the same files as
artifacts), fix the bug it found, then copy the file here — the corpus
asserts the plan stays clean from then on.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.chaos import load_reproducer, run_reproducer

CORPUS = sorted(Path(__file__).parent.glob("*.json"))

#: reproducer -> (messages_sent, events_processed, max_commit_view), as
#: recorded before the psync pacemaker moved into ``ViewParty``: a timer
#: or view-change step that fires once more or once less fails here, by
#: reproducer name.
PINNED = {
    "brb_2round-good-case-seed11": (119, 210, None),
    "brb_2round-good-case-seed12": (78, 73, None),
    "psync_fab-viewchange-seed7": (116, 128, 2),
    "psync_pbft-viewchange-seed7": (58, 66, 2),
    "psync_vbb_5f1-viewchange-seed7": (49, 57, 2),
}


def test_corpus_is_not_empty():
    assert len(CORPUS) >= 5


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_reproducer_replays_to_its_expected_outcome(path):
    replay = run_reproducer(path)
    assert replay["ok"], (
        f"{path.name}: expected {replay['expect']}, got "
        f"{replay['record']['violation']}"
    )
    record = replay["record"]
    observed = (
        record["messages_sent"],
        record["events_processed"],
        record["max_commit_view"],
    )
    assert observed == PINNED.get(path.stem), (
        f"{path.name}: got {observed}; a new reproducer records its "
        f"(messages_sent, events_processed, max_commit_view) in PINNED"
    )


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_reproducer_files_parse_cleanly(path):
    loaded = load_reproducer(path)
    assert loaded["expect"] in ("clean", "violation")
    assert loaded["note"], f"{path.name}: commit reproducers with a note"


def test_viewchange_reproducers_reach_view_2():
    viewchange = [p for p in CORPUS if "-viewchange-" in p.name]
    assert len(viewchange) >= 3  # one per psync protocol
    for path in viewchange:
        replay = run_reproducer(path)
        assert replay["record"]["max_commit_view"] >= 2, path.name
