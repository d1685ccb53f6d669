"""One world surface: what a ``Party`` reads exists on every world it can see.

``Party`` and the protocols access their world by plain attribute; there
are two world classes a party can be built against (``World``, whole or
over a shard worker's party range, and a host's ``HostedWorld``).  The
first test collects every attribute the party runtime and the protocols
read off ``world`` / ``self.world`` and checks both offer it, so a protocol
that starts using a new world service fails here, by name, instead of
raising only when it is run as an adversary brain or an SMR slot.  The
second class pins what a hosted party pools with the outer world and
what it deliberately does not (see ``repro.sim.hosting``).
"""
import ast
from pathlib import Path

import pytest

import repro
from repro.adversary.behaviors import FilteredHonestBehavior, pass_all
from repro.sim.delays import FixedDelay
from repro.sim.hosting import HostedWorld
from repro.sim.invariants import InvariantMonitor, judge
from repro.sim.process import Party
from repro.sim.runner import World

SRC = Path(repro.__file__).parent
PARTY_SOURCES = sorted(
    [
        SRC / "sim" / "process.py",
        SRC / "smr" / "replica.py",
        *(SRC / "protocols").rglob("*.py"),
    ]
)


def _world_reads(path: Path) -> set[str]:
    """Attributes read off a ``world`` name or a ``self.world`` in ``path``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if (isinstance(base, ast.Name) and base.id == "world") or (
            isinstance(base, ast.Attribute)
            and base.attr == "world"
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            found.add(node.attr)
    return found


class _Recorder(InvariantMonitor):
    def __init__(self):
        super().__init__()
        self.seen = []

    def on_commit(self, party, value, time):
        self.seen.append(("commit", party, value))

    def on_commit_conflict(self, party, old, new, time):
        self.seen.append(("conflict", party, old, new))

    def on_view(self, party, view, time):
        self.seen.append(("view", party, view))


def _replayed(world):
    """What a monitor judging the world's result is fed, in order."""
    monitor = _Recorder()
    judge([monitor], world, world.result())
    return monitor.seen


@pytest.fixture
def hosted():
    """(outer world, a bare ``Party`` hosted as party 3)."""
    world = World(
        n=4,
        f=1,
        delay_policy=FixedDelay(1.0),
        byzantine=frozenset({3}),
    )
    world.populate(
        Party,
        FilteredHonestBehavior.factory(
            party_factory=Party, send_filter=pass_all
        ),
    )
    (brain,) = world.agents[3].hosted.values()
    assert isinstance(brain.world, HostedWorld)
    return world, brain


def test_every_world_offers_what_parties_read(hosted):
    reads = set().union(*map(_world_reads, PARTY_SOURCES))
    # The walk found the services the probes used to guard (a rename of
    # ``world`` that blinds it would empty this set, not pass silently).
    assert reads >= {
        "n", "f", "sim", "start_offsets", "registry", "network",
        "instrumentation", "accountant", "intern_payload", "shared_memo",
        "shared_identity_memo", "shared_entry_store", "note_commit",
        "note_commit_conflict", "note_view_change",
    }
    world, brain = hosted
    for candidate in (world, brain.world):
        missing = sorted(a for a in reads if not hasattr(candidate, a))
        assert not missing, f"{type(candidate).__name__} lacks {missing}"


class TestPoolingDecision:
    def test_interner_and_content_memos_are_the_outer_worlds(self, hosted):
        world, brain = hosted
        first = world.intern_payload(("vote", "v"))
        assert brain.world.intern_payload(("vote", "v")) is first
        assert brain.shared_payload(("vote", "v")) is first
        assert brain.world.shared_memo("m") is world.shared_memo("m")
        assert brain.world.instrumentation is world.instrumentation

    def test_entry_stores_identity_memos_and_rounds_are_not(self, hosted):
        world, brain = hosted
        assert brain.world.shared_identity_memo("vbb-entry-keys") is None
        assert brain.world.shared_entry_store("quorum-entries::x") is None
        assert brain.world.accountant is None
        assert world.accountant is not None
        # A hosted tracker keeps private buckets but still counts.
        store = world.shared_entry_store("quorum-entries::x")
        brain.quorum_tracker("x", shared_entries=True).add("v", 3, "mine")
        assert store == {}
        attached = world.agents[0].quorum_tracker("x", shared_entries=True)
        attached.add("v", 0, "theirs")
        assert store == {"v": {0: "theirs"}}
        assert world.instrumentation.quorum_checks == 2

    def test_hosted_outcomes_never_reach_the_harness(self, hosted):
        world, brain = hosted
        brain.commit("a")
        brain.commit("b")  # a commit conflict
        brain.note_view(2)
        assert brain.committed_value == "a" and brain.commit_step is None
        assert world.instrumentation.commit_order == []
        assert _replayed(world) == []
        # ...while the same three calls from an attached party all do.
        attached = world.agents[0]
        attached.commit("a")
        attached.commit("b")
        attached.note_view(2)
        assert world.instrumentation.commit_order == [0]
        assert [kind for kind, *_ in _replayed(world)] == [
            "commit", "conflict", "view",
        ]

    def test_hosted_registry_signs_only_as_the_host(self, hosted):
        world, brain = hosted
        registry = brain.world.registry
        assert registry.signer_for(3) is world.agents[3].signer
        with pytest.raises(ValueError, match="does not own"):
            registry.signer_for(0)
        assert registry.verify(brain.signer.sign("m"))
        assert world.registry.verify(brain.signer.sign("m"))
