"""The counter stream's packed routing pass against the per-copy oracle.

``FaultInjector.route`` routes a counter-stream fan-out in lanes: one
packed key pass ticks each copy's link counter, then every primitive
picks the live lanes it matches and draws for them in one packed
SplitMix64 pass, each lane keeping its own draw index.
``fault_route_oracle.route_copy`` walks the same primitives one copy
and one ``CopyDraws`` draw at a time.  The property below routes the
same fan-outs through twin injectors, one each way, and requires the
same landings in the same order, the same copy of origin for each, the
same four fault counters and the same link counters afterwards.

Its draws cover every routing kind with ``prob`` 0, between 0 and 1,
and 1; link-specific ``src`` and ``dst``; send windows that open or
close at the send instant; recipient columns that are a sender's
multicast range, any sub-range, an integer array with gaps, a unicast
or a list naming one recipient twice; and the link traffic before the
fan-out, so counters enter both equal and unequal.  Drops, churn and
partitions that pick only some lanes make the lanes' draw indices
diverge before the duplicates draw.
"""
from __future__ import annotations

from array import array
from dataclasses import asdict

from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from repro.types import INF

from fault_route_oracle import route_fan_out

_PROB = st.sampled_from((0.0, 0.3, 0.7, 1.0))
_SEND_TIMES = (0.0, 0.5, 1.0)


@st.composite
def _link(draw, n, sender):
    """``src``, ``dst`` and a send window: any, the sender's or another
    party's; a window opening at, closing at, or straddling the send
    instant (or missing it)."""
    src = draw(st.sampled_from((None, sender, (sender + 1) % n)))
    dst = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    start, end = draw(st.sampled_from((
        (0.0, INF), (0.5, INF), (0.0, 0.5), (0.0, 1.0), (1.0, 2.0),
    )))
    return dict(src=src, dst=dst, start=start, end=end)


@st.composite
def plans(draw, n, sender):
    link = _link(n, sender)
    kinds = dict(
        drops=st.builds(
            lambda kw, prob: DropLink(prob=prob, **kw), link, _PROB,
        ),
        duplicates=st.builds(
            lambda kw, prob, echo: DuplicateLink(
                prob=prob, echo_delay=echo, **kw
            ),
            link, _PROB, st.sampled_from((0.0, 0.25)),
        ),
        jitters=st.builds(
            lambda kw, jitter: ReorderJitter(jitter=jitter, **kw),
            link, st.sampled_from((0.0, 0.3)),
        ),
        holdbacks=st.builds(
            lambda kw, flush: Holdback(
                flush_delay=flush,
                **{**kw, "end": min(kw["end"], 3.0)},
            ),
            link, st.sampled_from((0.0, 0.4)),
        ),
        partitions=st.builds(
            lambda members, start, flush: Partition(
                groups=(tuple(sorted(members)),), start=start,
                end=start + 1.0, flush_delay=flush,
            ),
            st.frozensets(st.integers(0, n - 1), min_size=1),
            st.sampled_from((0.0, 0.75, 1.25)),
            st.sampled_from((0.0, 0.5)),
        ),
        churns=st.builds(
            lambda window, bound: GstChurn(windows=(window,), bound=bound),
            st.sampled_from(((0.0, 0.75), (0.5, 1.5), (2.0, 3.0))),
            st.sampled_from((0.25, 1.0)),
        ),
    )
    return FaultPlan(
        **{
            name: tuple(draw(st.lists(kind, max_size=2)))
            for name, kind in kinds.items()
        },
        seed=draw(st.integers(0, 2**32)),
        stream="counter",
    )


@st.composite
def fan_outs(draw):
    n = draw(st.one_of(st.integers(2, 12), st.integers(2, 300)))
    sender = draw(st.one_of(
        st.sampled_from((0, n - 1)), st.integers(0, n - 1),
    ))
    others = [r for r in range(n) if r != sender]
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    shape = draw(st.sampled_from(
        ("multicast", "sub-range", "gaps", "unicast", "twice")
    ))
    if shape == "multicast":
        below, above = range(0, sender), range(sender + 1, n)
        recipients = draw(st.sampled_from([r for r in (below, above) if r]))
    elif shape == "sub-range":
        recipients = range(lo, hi)
    elif shape == "gaps":
        kept = draw(st.lists(
            st.sampled_from(others), min_size=1, unique=True,
        ))
        recipients = array("q", sorted(kept))
    elif shape == "unicast":
        recipients = (draw(st.sampled_from(others)),)
    else:
        recipients = draw(st.lists(
            st.sampled_from(others), min_size=1, max_size=6,
        ))
        recipients.insert(
            draw(st.integers(0, len(recipients))),
            draw(st.sampled_from(recipients)),
        )
    send_time = draw(st.sampled_from(_SEND_TIMES))
    instants = array("d", [
        round(send_time + delay, 12) for delay in draw(st.lists(
            st.one_of(st.sampled_from((0.05, 0.5, 1.0)), st.floats(0, 2)),
            min_size=len(recipients), max_size=len(recipients),
        ))
    ])
    return dict(
        n=n, sender=sender, recipients=recipients, send_time=send_time,
        instants=instants, plan=draw(plans(n, sender)),
        before=draw(st.lists(st.sampled_from(list(recipients)), max_size=4)),
        repeats=draw(st.integers(1, 3)),
    )


def _route_both(case):
    packed = FaultInjector(case["plan"], n=case["n"])
    oracle = FaultInjector(case["plan"], n=case["n"])
    sender, send_time = case["sender"], case["send_time"]
    for recipient in case["before"]:
        packed.route(sender, (recipient,), send_time, (send_time + 1.0,))
        route_fan_out(
            oracle, sender, (recipient,), send_time, (send_time + 1.0,)
        )
    for _ in range(case["repeats"]):
        landings, picks = packed.route(
            sender, case["recipients"], send_time, case["instants"]
        )
        expected, expected_picks = route_fan_out(
            oracle, sender, case["recipients"], send_time, case["instants"]
        )
        assert list(landings) == expected
        assert list(
            range(len(case["instants"])) if picks is None else picks
        ) == expected_picks
        if picks is None:
            assert len(landings) == len(case["instants"])
    assert asdict(packed.counters) == asdict(oracle.counters)
    assert packed._counter._counters == oracle._counter._counters
    return packed.counters


_DIVERGING = dict(
    # A Bernoulli drop on every link, then Bernoulli duplicates: the
    # survivors of the drop and the dropped copies have drawn once each,
    # and a partition holding only some lanes puts them one draw apart.
    n=6, sender=0, recipients=range(1, 6), send_time=0.5,
    instants=array("d", [0.75, 1.0, 1.25, 1.3, 1.6]),
    plan=FaultPlan(
        drops=(DropLink(prob=0.3),),
        partitions=(Partition(groups=((2, 4),), start=1.0, end=2.0),),
        duplicates=(DuplicateLink(prob=0.7, echo_delay=0.25),),
        seed=5, stream="counter",
    ),
    before=[3], repeats=3,
)


@settings(max_examples=300, deadline=None)
@given(case=fan_outs())
@example(case=_DIVERGING)
def test_packed_pass_routes_what_the_copy_walk_does(case):
    _route_both(case)


def test_diverging_draw_indices_are_exercised():
    counters = _route_both(_DIVERGING)
    assert counters.messages_dropped > 0
    assert counters.messages_held > 0
    assert counters.messages_duplicated > 0


def test_an_untouched_fan_out_returns_its_own_column():
    # Nothing matched: no copy is retimed, so the caller's column (which
    # is already quantized) comes back as it is.
    plan = FaultPlan(jitters=(ReorderJitter(jitter=0.5, start=5.0),),
                     stream="counter")
    instants = array("d", [1.0, 1.5])
    landings, picks = FaultInjector(plan, n=3).route(
        0, range(1, 3), 0.0, instants
    )
    assert landings is instants and picks is None
