"""A fan-out's in-flight copies as typed columns, against the list walk.

``Network._fan_out`` hands a fan-out to the scheduler as columns: the
instants in an ``array('d')`` (computed in C-level passes when the delay
vector shows every copy is its own run, walked run by run otherwise),
the recipients as the fan-out's own ``range`` when every recipient gets
one copy and as an integer array when something folded, dropped or
duplicated.  The calendar then keeps one window-ordered index array per
fan-out and a ``(batch, order, lo, hi)`` span per closed window.

None of that may move a copy.  ``run_walk_oracle.ListNetwork`` keeps the
plain walk — every fan-out through ``Network._runs``, one Python float
and one recipient per copy gathered into lists — and the property below
drives both networks, through every emitter, with the same fan-outs:
delay vectors with ties, zeros, ``INF`` and all-distinct draws, common
and staggered start offsets, sends before the common offset, pops in
between, and calendar widths from 0 to wider than the whole schedule.
Every ``schedule_batch`` call (its columns and the ``seq`` it starts
at), every popped entry and the network's counters must match.
"""
from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.delays import FixedDelay
from repro.sim.faults import (
    DropLink,
    DuplicateLink,
    FaultInjector,
    FaultPlan,
    GstChurn,
    Holdback,
    Partition,
    ReorderJitter,
)
from repro.sim.instrumentation import resolve_instrumentation
from repro.sim.network import Network
from repro.sim.scheduler import Simulator
from repro.types import INF

from run_walk_oracle import ListNetwork

#: ``run``: nothing attached (``_emit_run``); ``observed``: an accountant
#: numbers every copy; ``routed``: an empty plan (``_emit_routed``);
#: ``faulted``: a plan that drops every copy to party 2 and duplicates
#: every copy to party 1; ``remote``: every recipient is another
#: shard's (``_emit_remote``); ``chaos`` and ``chaos_remote``: a
#: counter-stream plan with every primitive kind, on the local and the
#: remote emitter, where the oracle routes copy by copy and the network
#: in one packed pass per fan-out.
EMITTERS = (
    "run", "observed", "routed", "faulted", "remote", "chaos",
    "chaos_remote",
)
#: The ``chaos`` kinds' plan: Bernoulli drops to party 2 and duplicates
#: everywhere, churn, late jitter, a holdback out of party 0 and a
#: partition around party 1, so copies of one fan-out draw different
#: numbers of variates.
CHAOS = FaultPlan(
    drops=(DropLink(dst=2, prob=0.5),),
    churns=(GstChurn(windows=((0.0, 0.5),), bound=0.5),),
    jitters=(ReorderJitter(jitter=0.25, start=0.25),),
    holdbacks=(Holdback(src=0, end=1.0, flush_delay=0.25),),
    partitions=(Partition(
        groups=((1,),), start=0.5, end=1.5, flush_delay=0.25,
    ),),
    duplicates=(DuplicateLink(prob=0.5, echo_delay=0.25),),
    seed=7, stream="counter",
)
#: Per instant, far below the delays, the benchmark's lookahead, a
#: quarter of the delay range, one unit, wider than every schedule.
WIDTHS = (0.0, 1e-9, 0.05, 0.5, 1.0, 100.0)

_DELAY = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, INF]),
    st.floats(0.0, 2.0),
)


@st.composite
def scripts(draw):
    """``(n, start offsets, ops)``: fan-outs over contiguous recipient
    ranges (a 1-tuple for a unicast), and pops between them."""
    n = draw(st.integers(3, 7))
    if draw(st.booleans()):
        offsets = [draw(st.sampled_from([0.0, 0.5, 1.5]))] * n
    else:
        offsets = draw(st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n,
        ))
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        if ops and draw(st.integers(0, 3)) == 0:
            ops.append(("pop", draw(st.integers(1, 4))))
            continue
        lo = draw(st.integers(1, n - 1))
        hi = draw(st.integers(lo + 1, n))
        count = hi - lo
        recipients = (
            (lo,) if count == 1 and draw(st.booleans()) else range(lo, hi)
        )
        delays = draw(st.one_of(
            st.lists(_DELAY, min_size=count, max_size=count),
            # Partial runs: two values, so neighbours often tie.
            st.lists(
                st.sampled_from([0.25, 0.5]), min_size=count,
                max_size=count,
            ),
            # All distinct: the fast instant pass, unless held back.
            st.lists(
                st.floats(0.0, 2.0), min_size=count, max_size=count,
                unique=True,
            ),
        ))
        send_time = draw(st.one_of(
            st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 2.0),
        ))
        sender = draw(st.integers(0, n - 1))
        ops.append(("fan_out", sender, recipients, delays, send_time))
    return n, offsets, ops


def _network(cls, kind: str, n: int, offsets, width: float) -> Network:
    kwargs = {}
    if kind == "observed":
        kwargs["instrumentation"] = resolve_instrumentation("full")
    elif kind == "routed":
        kwargs["fault_injector"] = FaultInjector(FaultPlan(), n=n)
    elif kind == "faulted":
        kwargs["fault_injector"] = FaultInjector(
            FaultPlan(
                drops=(DropLink(dst=2),),
                duplicates=(DuplicateLink(dst=1, echo_delay=0.25),),
            ),
            n=n,
        )
    elif kind == "remote":
        kwargs["parties"] = range(0, 1)
    elif kind.startswith("chaos"):
        kwargs["fault_injector"] = FaultInjector(CHAOS, n=n)
        if kind == "chaos_remote":
            kwargs["parties"] = range(0, 1)
    return cls(
        Simulator(lookahead=width), FixedDelay(1.0), n=n,
        start_offsets=list(offsets), **kwargs,
    )


def _fired(entry) -> tuple:
    return (*entry[:4], entry[4].__name__, entry[5])


def _replay(cls, kind: str, width: float, script) -> list:
    """What one network schedules for ``script``: every batch's columns
    and first ``seq``, the order keys, the popped entries and the
    counters."""
    n, offsets, ops = script
    net = _network(cls, kind, n, offsets, width)
    sim = net._sim
    queue = sim._queue
    log: list = []
    schedule_batch = sim.schedule_batch

    def spy(times, action, sender, recipients, payload, msg_ids=None,
            **kwargs):
        log.append((
            "batch", queue._seq, list(times), list(recipients),
            None if msg_ids is None else list(msg_ids),
            action.__name__, kwargs,
        ))
        return schedule_batch(
            times, action, sender, recipients, payload, msg_ids, **kwargs,
        )

    sim.schedule_batch = spy
    emit = net._emit_remote if kind.endswith("remote") else net._emit
    for index, op in enumerate(ops):
        if op[0] == "pop":
            for _ in range(op[1]):
                entry = queue.pop()
                log.append(None if entry is None else _fired(entry))
            continue
        _, sender, recipients, delays, send_time = op
        log.append(("key", net._fan_out(
            sender, recipients, delays, ("m", index), send_time, emit,
        )))
    log.extend(_fired(entry) for entry in iter(queue.pop, None))
    injector = net._injector
    log.append((
        net.deliveries_batched, net.delivery_runs_batched, net.outbuf,
        queue._live, queue._seq, queue.bucket_appends,
        queue.heap_pushes_avoided,
        None if injector is None else injector.counters,
        None if injector is None or injector._counter is None
        else injector._counter._counters,
    ))
    return log


@given(
    script=scripts(),
    width=st.sampled_from(WIDTHS),
    kind=st.sampled_from(EMITTERS),
)
@settings(max_examples=400, deadline=None)
def test_typed_columns_schedule_what_the_list_walk_does(script, width, kind):
    assert _replay(Network, kind, width, script) == _replay(
        ListNetwork, kind, width, script
    )


class TestFastInstantPass:
    """The delay vector alone decides whether a fan-out's instants are
    computed in one pass or walked run by run."""

    @staticmethod
    def _instants(delays, *, send_time=0.0, offsets=None):
        net = Network(Simulator(), FixedDelay(1.0), n=6,
                      start_offsets=offsets)
        return net._instants(delays, min(delays), send_time)

    def test_distinct_finite_delays_take_it(self):
        instants = self._instants([0.3, 1 / 3, 0.3, 0.0], send_time=0.5)
        assert isinstance(instants, array) and instants.typecode == "d"
        assert list(instants) == [0.8, 0.833333333333, 0.8, 0.5]

    @pytest.mark.parametrize("delays, send_time, offsets", [
        ([0.3, 0.3, 0.5], 0.0, None),             # a run of two
        ([0.3, INF, 0.5], 0.0, None),             # a dropped copy
        ([0.3, 0.4], 0.0, [0.0, 1.0] + [0.0] * 4),  # staggered starts
        ([0.3, 0.9], 0.0, [0.5] * 6),             # a copy held to the start
    ])
    def test_anything_else_walks_runs(self, delays, send_time, offsets):
        assert self._instants(
            delays, send_time=send_time, offsets=offsets
        ) is None


class TestColumnLayout:
    """What a fan-out leaves in a closed window: typed columns and one
    span of its window-ordered index array."""

    @staticmethod
    def _parked(delays, **kwargs):
        sim = Simulator(lookahead=0.25)
        net = Network(sim, FixedDelay(1.0), n=6, **kwargs)
        net._fan_out(0, range(1, 6), delays, "m", 0.0, net._emit)
        return [
            span for spans in sim._queue._deferred.values() for span in spans
        ]

    def test_a_fan_out_where_nothing_folds_keeps_its_range(self):
        spans = self._parked([0.9, 0.3, 0.6, 0.35, 0.95])
        batch, order, _, _ = spans[0]
        assert isinstance(batch[0], array) and batch[0].typecode == "d"
        assert batch[6] == range(1, 6)
        # Copies by window, by index within one: [0.25, 0.5) holds
        # copies 1 and 3, [0.5, 0.75) copy 2, [0.75, 1.0) copies 0, 4.
        assert isinstance(order, array) and list(order) == [1, 3, 2, 0, 4]
        assert sorted((lo, hi) for _, _, lo, hi in spans) == [
            (0, 2), (2, 3), (3, 5),
        ]
        assert all(span[0] is batch and span[1] is order for span in spans)

    @pytest.mark.parametrize("delays, batches", [
        # Copies 1-2 fold into one run, which splits the rest in two.
        ([0.9, 0.3, 0.3, 0.6, 0.95], [[1], [4, 5]]),
        ([0.9, INF, 0.3, 0.6, 0.95], [[1, 3, 4, 5]]),  # copy 1 dropped
    ])
    def test_survivors_of_a_fold_or_drop_are_an_integer_array(
        self, delays, batches
    ):
        parked = {span[0][3]: span[0][6] for span in self._parked(delays)}
        columns = [parked[seq] for seq in sorted(parked)]
        assert all(
            isinstance(column, array) and column.typecode == "q"
            for column in columns
        )
        assert [list(column) for column in columns] == batches
