"""Golden plans and schema completeness for the chaos substrate.

Three guards around the table-driven ``FaultPlan`` and the shared
generator code:

* the generators' draw order and the JSON encoding are pinned by a
  sha256 per (tier, protocol) over seeds 0..49, recorded before the
  kinds table and the shared duplicate/jitter draw existed;
* JSON round-trips exactly, for generated plans and for every committed
  reproducer;
* the kinds table is complete: a primitive that is a ``FaultPlan`` field
  but not a table row (or the reverse), or that lacks ``check`` /
  ``quiet``, fails here by name instead of being silently skipped by
  ``without`` or ``quiet_time``.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.analysis.chaos import (
    CHAOS_SPECS,
    CHAOS_SPECS_VIEWCHANGE,
    random_fault_plan,
    random_viewchange_plan,
)
from repro.sim.faults import KINDS, FaultPlan

SEEDS = range(50)

GENERATORS = {
    "good-case": (CHAOS_SPECS, random_fault_plan),
    "viewchange": (CHAOS_SPECS_VIEWCHANGE, random_viewchange_plan),
}

#: sha256 over ``json.dumps(plan.to_json(), sort_keys=True)`` of seeds
#: 0..49, per tier/protocol.  Specs that differ only in fields no draw
#: reads share a digest.
GOLDEN = {
    "good-case/brb_2round":
        "3d7b95176001419d9846f88ed225c5be358988a61a87dd56a678adfdee4ab26d",
    "good-case/brb_bracha":
        "3d7b95176001419d9846f88ed225c5be358988a61a87dd56a678adfdee4ab26d",
    "good-case/psync_vbb_5f1":
        "87bc7469d6af0b75581394d1d7f594d6718a4b429944b4ea7d2f658e735fcde0",
    "good-case/psync_pbft":
        "87bc7469d6af0b75581394d1d7f594d6718a4b429944b4ea7d2f658e735fcde0",
    "good-case/psync_fab":
        "ebd7192c75a59d5741d171fd8f3ea92830c606b360720814a16450ffba980131",
    "good-case/bb_2delta":
        "04f0b5502bfadf718d67800019a9bdfb99130466aed666d7256d1243bdf72891",
    "good-case/dolev_strong":
        "ec2e31664a8340b950b6cecf347823cf2adf24e1ad9a976b7f69a27e5ae6ed1b",
    "viewchange/psync_pbft":
        "61799d99ffda2221550e8408068d5ca826810568b1cd3ea4c39b24117a74d313",
    "viewchange/psync_fab":
        "d4db2c4392f3dd2e46867ae9146cb0b7b832690c61d9b6dd1fe739d8556493cd",
    "viewchange/psync_vbb_5f1":
        "61799d99ffda2221550e8408068d5ca826810568b1cd3ea4c39b24117a74d313",
}

GRID = [
    (tier, protocol)
    for tier, (specs, _) in GENERATORS.items()
    for protocol in specs
]


def _plans(tier: str, protocol: str) -> list[FaultPlan]:
    generate = GENERATORS[tier][1]
    return [generate(protocol, seed) for seed in SEEDS]


def test_golden_covers_the_whole_grid():
    assert sorted(GOLDEN) == sorted(f"{t}/{p}" for t, p in GRID)


@pytest.mark.parametrize("tier, protocol", GRID)
def test_generated_plans_match_their_golden_digest(tier, protocol):
    digest = hashlib.sha256()
    for plan in _plans(tier, protocol):
        digest.update(
            json.dumps(plan.to_json(), sort_keys=True).encode()
        )
    assert digest.hexdigest() == GOLDEN[f"{tier}/{protocol}"]


@pytest.mark.parametrize("tier, protocol", GRID)
def test_generated_plans_round_trip(tier, protocol):
    for plan in _plans(tier, protocol):
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan.from_json(
            json.loads(json.dumps(plan.to_json()))
        ) == plan


CORPUS = sorted(
    (Path(__file__).parents[1] / "regressions").glob("*.json")
)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_committed_reproducers_re_encode_unchanged(path):
    doc = json.loads(path.read_text())["plan"]
    # The committed files predate the "stream" key: it alone is added.
    assert FaultPlan.from_json(doc).to_json() == {
        "stream": "sequential", **doc,
    }


class TestKindsTable:
    def test_rows_are_exactly_the_tuple_typed_plan_fields(self):
        tuple_fields = [
            f.name for f in fields(FaultPlan)
            if str(f.type).startswith("tuple[")
        ]
        assert [name for name, _ in KINDS] == tuple_fields

    @pytest.mark.parametrize("name, cls", KINDS, ids=[n for n, _ in KINDS])
    def test_row_class_matches_the_field_and_describes_itself(
        self, name, cls
    ):
        annotation = {f.name: str(f.type) for f in fields(FaultPlan)}[name]
        assert annotation == f"tuple[{cls.__name__}, ...]"
        assert callable(getattr(cls, "check", None)), cls
        assert callable(getattr(cls, "quiet", None)), cls

    def test_every_kind_is_seen_by_the_table_driven_methods(self):
        """One primitive per kind: nothing is skipped by ``primitives``,
        ``len``, ``without``, ``quiet_time`` or the JSON codec."""
        plan = FaultPlan.from_json({
            "crashes": [{"party": 1, "at": 0.0, "recover": 1.0}],
            "drops": [{"src": 1, "end": 2.0}],
            "duplicates": [{"end": 3.0}],
            "jitters": [{"jitter": 0.5, "end": 4.0}],
            "partitions": [{"groups": [[0], [1]], "start": 0.0, "end": 5.0}],
            "churns": [{"windows": [[0.0, 6.0]], "bound": 0.5}],
            "leader_crashes": [{"view": 1, "recover": 7.0}],
            "holdbacks": [{"end": 8.0}],
        })
        assert [type(p) for p in plan.primitives()] == [c for _, c in KINDS]
        assert len(plan) == len(KINDS)
        assert plan.validate(2) is plan
        for primitive in plan.primitives():
            smaller = plan.without(primitive)
            assert len(smaller) == len(KINDS) - 1
            assert primitive not in smaller.primitives()
            assert primitive.quiet() > 0.0
        assert plan.quiet_time() == 8.0
        assert FaultPlan.from_json(plan.to_json()) == plan
