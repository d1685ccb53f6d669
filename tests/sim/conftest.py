"""Shared fixtures for the simulator suites."""
from contextlib import contextmanager

import pytest

from repro.sim import scheduler

from heap_queue import HeapQueue


@pytest.fixture
def reference_queue(monkeypatch):
    """``with reference_queue():`` runs worlds on the heap oracle.

    Production has one queue (the calendar ``EventQueue``); the binary
    heap of ``heap_queue.py`` is the reference semantics it must replay.
    The context swaps the class ``Simulator`` instantiates, so everything
    built inside it — forked shard workers included — schedules on the
    heap, which has no use for the calendar's window width.
    """

    @contextmanager
    def use():
        with monkeypatch.context() as patch:
            patch.setattr(scheduler, "EventQueue", HeapQueue)
            yield

    return use
