"""Shared fixtures for the simulator suites."""
from contextlib import contextmanager

import pytest

from repro.sim import scheduler
from repro.sim.events import EventQueue


@pytest.fixture
def reference_queue(monkeypatch):
    """``with reference_queue():`` runs worlds on the heap ``EventQueue``.

    Production has one queue (the calendar ``BucketTimeline``); its heap
    base class is the reference semantics.  The context swaps the class
    ``Simulator`` instantiates, so everything built inside it — forked
    shard workers included — schedules on the heap, which has no use for
    the calendar's window width.
    """

    @contextmanager
    def use():
        with monkeypatch.context() as patch:
            patch.setattr(
                scheduler, "BucketTimeline",
                lambda *, width: EventQueue(),
            )
            yield

    return use
