"""The reachability scan's allowlist cannot go stale.

``benchmarks/reachability.py`` traces every production root and exits 1
on a ``src/`` function none of them reaches unless it is allowlisted.
The scan itself is too slow for tier-1, so this suite only imports the
module (nothing runs on import) and checks the list against the ``ast``
def list: every entry must still name a ``src/`` function and carry one
of the fixed reasons, so deleting a function also deletes its entry.
"""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "reachability.py"


@pytest.fixture(scope="module")
def reachability():
    spec = importlib.util.spec_from_file_location("reachability", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_names_a_src_function(reachability):
    functions = reachability.src_functions()
    stale = sorted(set(reachability.ALLOWLIST) - set(functions))
    assert stale == []


def test_every_entry_carries_one_fixed_reason(reachability):
    odd = {
        key: reason
        for key, reason in reachability.ALLOWLIST.items()
        if reason not in reachability.REASONS
    }
    assert odd == {}
    assert len(set(reachability.REASONS)) == 7
