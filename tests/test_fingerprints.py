"""Behaviour fingerprints: the honest parties' view digests over a fixed
set of named runs.

    PYTHONPATH=src python -m pytest -q tests/test_fingerprints.py
    PYTHONPATH=src python tests/test_fingerprints.py --write

A party's full-view digest (:meth:`repro.sim.transcript.Transcript.digest`)
sums a hash of every receive ``(local_time, sender, payload digest)``, so
it moves when the party receives something else, from someone else or at
another local time — and not when simultaneous deliveries are processed
in another order.  ``fingerprints.json`` maps each named run to its vector
of honest-party digests (16 hex digits each, in party order).  The runs:
every ``REGIMES`` row at two deltas, every execution of every witness,
and every chaos spec of both tiers at four seeds under the ``full``
preset.  A change meant to keep behaviour leaves the file as it is; one
that moves events on purpose rewrites it with ``--write`` and names the
runs that moved.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis.chaos import (
    CHAOS_SPECS,
    CHAOS_SPECS_VIEWCHANGE,
    random_fault_plan,
    random_viewchange_plan,
    run_chaos_plan,
)
from repro.analysis.table1 import REGIMES
from repro.lowerbounds import WITNESSES, run_witness
from repro.sim.runner import World

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
DELTAS = (0.25, 0.5)
SEEDS = range(4)
CHAOS = (
    ("good-case", CHAOS_SPECS, random_fault_plan),
    ("viewchange", CHAOS_SPECS_VIEWCHANGE, random_viewchange_plan),
)


def _only_world(job) -> World:
    """The one world a ``World.run`` inside ``job()`` runs."""
    worlds = []
    inner = World.run

    def run(world, **kwargs):
        worlds.append(world)
        return inner(world, **kwargs)

    World.run = run
    try:
        job()
    finally:
        World.run = inner
    (world,) = worlds
    return world


def _views(world: World) -> list[str]:
    return [
        format(party.transcript.digest(), "016x")
        for party in world.honest_parties()
    ]


def fingerprints() -> dict[str, list[str]]:
    """Run name -> the honest parties' full-view digests."""
    runs: dict[str, list[str]] = {}
    for regime in REGIMES:
        for delta in DELTAS:
            world = _only_world(
                lambda: regime.measure(delta=delta, big_delta=1.0)
            )
            runs[f"table1/{regime.figure}/delta={delta}"] = _views(world)
    for key in WITNESSES:
        for label, world in run_witness(key).executions.items():
            runs[f"witness/{key}/{label}"] = _views(world)
    for tier, specs, generate in CHAOS:
        for protocol in specs:
            for seed in SEEDS:
                world = _only_world(
                    lambda: run_chaos_plan(
                        protocol,
                        generate(protocol, seed),
                        tier=tier,
                        instrumentation="full",
                    )
                )
                runs[f"chaos/{tier}/{protocol}/seed={seed}"] = _views(world)
    return runs


def test_no_run_moved():
    recorded = json.loads(FINGERPRINTS.read_text())
    current = fingerprints()
    moved = sorted(
        name
        for name in recorded.keys() | current.keys()
        if recorded.get(name) != current.get(name)
    )
    assert not moved, (
        f"{len(moved)} of {len(recorded)} fingerprinted runs moved "
        "(rewrite with `PYTHONPATH=src python tests/test_fingerprints.py "
        "--write` only if that is intended): " + ", ".join(moved)
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    FINGERPRINTS.write_text(
        json.dumps(fingerprints(), indent=1, sort_keys=True) + "\n"
    )
