"""Executable witnesses for the paper's lower bounds."""
from importlib import import_module

from repro.lowerbounds.framework import (
    Disagreement,
    IndistinguishabilityCheck,
    WitnessReport,
    check_indistinguishable,
    find_disagreement,
)

#: The one registry of witnesses: key -> module of this package, in the
#: order the tour walks them (the split constructions of the asynchronous
#: and synchronous models, then the partial-synchrony attack, then the
#: dishonest-majority chain); ``sorted(WITNESSES)`` is theorem order.
WITNESSES = {
    "thm04": "thm04_async_2round",
    "thm08": "thm08_sync_2delta",
    "thm09": "thm09_sync_delta_delta",
    "thm10": "thm10_sync_delta_15delta",
    "thm07": "thm07_psync_3round",
    "thm19": "thm19_dishonest_majority",
}


def run_witness(key: str) -> WitnessReport:
    """Run one registered witness.  The module's ``run_witness`` is looked
    up at call time, so a wrapper installed on it (the benchmark's tracer)
    is the one that runs."""
    return import_module(f"{__name__}.{WITNESSES[key]}").run_witness()


__all__ = [
    "Disagreement",
    "IndistinguishabilityCheck",
    "WITNESSES",
    "WitnessReport",
    "check_indistinguishable",
    "find_disagreement",
    "run_witness",
]
