"""The reference counter stream and fault router: one copy at a time,
one draw at a time.

``FaultInjector.route`` routes a whole fan-out at once, and on the
counter stream computes every draw in packed lanes.  This module keeps
the per-copy way it must agree with: :func:`copy_key` is one copy's
key (one link-counter tick), :class:`CopyDraws` one copy's draw
sequence (draw ``i`` is ``splitmix64(key + i * golden)``), and
:func:`route_copy` walks the primitives for one copy in the injector's
fixed clause order, drawing from a ``CopyDraws`` on the counter stream
and from the injector's own generator on the sequential one.  Both read
and advance the injector's own state (link counters, generator, fault
counters), so an oracle run and a packed run over twin injectors can be
compared counter for counter.
"""
from __future__ import annotations

from repro.sim.delays import (
    _GOLDEN,
    _INV_2_64,
    _KEY_COUNTER,
    _KEY_RECIPIENT,
    _KEY_SENDER,
    _MASK64,
    splitmix64,
)
from repro.types import PartyId


def copy_key(stream, sender: PartyId, recipient: PartyId) -> int:
    """Consume one counter tick on the link of ``stream`` (a
    ``CounterStream``); return the copy's key."""
    counts = stream._row(sender, recipient)
    k = counts[recipient]
    counts[recipient] = k + 1
    return (
        stream._base
        ^ ((sender + 1) * _KEY_SENDER)
        ^ ((recipient + 1) * _KEY_RECIPIENT)
        ^ (k * _KEY_COUNTER)
    ) & _MASK64


class CopyDraws:
    """A pure per-copy draw sequence (duck-types ``random.Random``'s
    ``random`` method, which is all the fault clauses consume)."""

    __slots__ = ("_key", "_i")

    def __init__(self, key: int):
        self._key = key
        self._i = 0

    def random(self) -> float:
        self._i += 1
        word = splitmix64((self._key + self._i * _GOLDEN) & _MASK64)
        return word * _INV_2_64


def draws(stream, sender: PartyId, recipient: PartyId) -> CopyDraws:
    """The draw sequence of the link's next copy on ``stream`` (a
    ``CounterStream``): one counter tick."""
    return CopyDraws(copy_key(stream, sender, recipient))


def route_copy(injector, sender, recipient, send_time, deliver_time):
    """One copy's landings: ``[]`` drops it, one entry is a (possibly
    retimed) delivery, further entries are duplicate echoes."""
    counters = injector.counters
    plan = injector.plan
    rng = (
        draws(injector._counter, sender, recipient)
        if injector._counter is not None else injector._rng
    )
    for drop in plan.drops:
        if drop.matches(sender, recipient, send_time):
            if drop.prob >= 1.0 or rng.random() < drop.prob:
                counters.faults_injected += 1
                counters.messages_dropped += 1
                return []
    for churn in plan.churns:
        window = churn.window_at(send_time)
        if window is not None:
            _, end = window
            latest = end + churn.bound
            if latest > deliver_time:
                counters.faults_injected += 1
                deliver_time += rng.random() * (latest - deliver_time)
    for jitter in plan.jitters:
        if jitter.matches(sender, recipient, send_time):
            counters.faults_injected += 1
            deliver_time += rng.random() * jitter.jitter
    for hold in plan.holdbacks:
        if hold.matches(sender, recipient, send_time):
            release = hold.end + rng.random() * hold.flush_delay
            if release > deliver_time:
                counters.faults_injected += 1
                counters.messages_held += 1
                deliver_time = release
    for partition in plan.partitions:
        if partition.separates(sender, recipient, deliver_time):
            counters.faults_injected += 1
            counters.messages_held += 1
            deliver_time = (
                partition.end + rng.random() * partition.flush_delay
            )
    deliveries = [deliver_time]
    for dup in plan.duplicates:
        if dup.matches(sender, recipient, send_time):
            if dup.prob >= 1.0 or rng.random() < dup.prob:
                counters.faults_injected += 1
                counters.messages_duplicated += 1
                deliveries.append(deliver_time + dup.echo_delay)
    return deliveries


def route_fan_out(injector, sender, recipients, send_time, instants):
    """:func:`route_copy` over a fan-out, in order, in the shape
    ``FaultInjector.route`` returns: the landings and, for each, its
    copy index."""
    landings, picks = [], []
    for index, (recipient, instant) in enumerate(zip(recipients, instants)):
        for landing in route_copy(
            injector, sender, recipient, send_time, instant
        ):
            landings.append(landing)
            picks.append(index)
    return landings, picks


def route_one(injector, sender, recipient, send_time, deliver_time):
    """``FaultInjector.route`` for a fan-out of one copy, as a list of
    its landings."""
    landings, _ = injector.route(
        sender, (recipient,), send_time, (deliver_time,)
    )
    return list(landings)
