"""Micro-benchmarks for the digest/verification caching subsystem.

These pin the substrate costs the protocol benchmarks ride on: canonical
encoding, cold vs warm digests (and the cold digests of many distinct
quorums over one vote set), registry verification, multicast fan-out
scheduling (one instant for the fan-out, and one per copy; one vote
round of n=1001), the window calendar's push/drain and cancellation
churn.  Run with::

    pytest benchmarks/bench_perf_micro.py --benchmark-only

For end-to-end numbers use the repo benchmark,
``python benchmarks/e2e/run.py`` (``--quick`` for a smoke run).
"""
import random

from repro.crypto.messages import (
    canonical_encode,
    clear_digest_cache,
    digest,
)
from repro.crypto.signatures import KeyRegistry
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.events import EventQueue
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


def _vote_quorum(n: int):
    """A realistic hot payload: a forwarded quorum of signed votes."""
    registry = KeyRegistry(n)
    votes = tuple(
        registry.signer_for(i).sign(("vote", "v")) for i in range(n)
    )
    return registry, votes


def test_canonical_encode_nested_tuple(benchmark):
    payload = tuple(("vote", i, ("inner", i % 3)) for i in range(32))
    benchmark(canonical_encode, payload)


def test_digest_cold(benchmark):
    """Every iteration digests a fresh (uncached) object."""
    def run():
        clear_digest_cache()
        return digest(tuple(("vote", i) for i in range(32)))

    benchmark(run)


def test_digest_warm(benchmark):
    """Steady-state: the same payload object digested repeatedly."""
    payload = tuple(("vote", i) for i in range(32))
    digest(payload)
    benchmark(digest, payload)


def test_digest_quorum_of_signed_votes(benchmark):
    _, votes = _vote_quorum(21)
    clear_digest_cache()
    digest(votes)  # warm: the multicast steady state
    benchmark(digest, votes)


def test_digest_distinct_quorums_n1001(benchmark):
    """The cold half of a quorum forward: 334 distinct 668-vote quorums
    (one per committer of ``brb_fixed``) over one vote set the vote
    multicasts already digested — each a fresh tuple, so every digest is
    a real encode, and only the vote encodings can be reused."""
    _, votes = _vote_quorum(1001)
    quorums = [
        ("vote-quorum", votes[i:i + 668]) for i in range(334)
    ]

    def run():
        clear_digest_cache()
        for vote in votes:
            digest(("vote", vote))
        return [digest(quorum) for quorum in quorums]

    assert len(set(benchmark(run))) == 334


def test_verify_cold_then_warm_quorum(benchmark):
    """First verification pays the digest; re-checks hit the verified set."""
    registry, votes = _vote_quorum(21)
    for vote in votes:
        registry.verify(vote)

    def run():
        return all(registry.verify(vote) for vote in votes)

    assert benchmark(run)


def test_multicast_schedule_n31(benchmark):
    """Scheduling one multicast to 31 parties (one order-key digest)."""
    sim = Simulator()
    network = Network(sim, FixedDelay(1.0), n=31)
    for pid in range(31):
        network.attach(pid, lambda sender, payload: None)
    payload = ("propose", "v")

    benchmark(network.multicast, 0, payload)


def test_multicast_fanout_n1001_fixed(benchmark):
    """Every one of 1001 parties multicasts once under a fixed delay: the
    ``brb_fixed`` vote round's fan-outs (two recipient ranges and two
    folded runs per sender), scheduled but not delivered."""
    payload = ("vote", "v")

    def fresh_network():
        sim = Simulator(lookahead=1.0)
        network = Network(sim, FixedDelay(1.0), n=1001)
        for pid in range(1001):
            network.attach(pid, lambda sender, payload: None)
        return (network,), {}

    def run(network):
        for sender in range(1001):
            network.multicast(sender, payload)
        return network

    network = benchmark.pedantic(run, setup=fresh_network, rounds=20)
    # Two folded runs per sender, except at the edges: senders 0 and 1000
    # have one range, senders 1 and 999 a singleton one (a plain copy).
    assert network.delivery_runs_batched == 2 * 1001 - 4


def test_multicast_schedule_uniform_n301(benchmark):
    """The counter-stream twin: one multicast to 301 parties with one
    distinct instant per copy — 300 draws, 300 instants, one batch
    crossing into the calendar's windows (the ``brb_uniform`` per-copy
    path, without the deliveries)."""
    policy = UniformDelay(0.05, 1.0, seed=2026, stream="counter")
    sim = Simulator(lookahead=policy.min_delay())
    network = Network(sim, policy, n=301)
    for pid in range(301):
        network.attach(pid, lambda sender, payload: None)
    payload = ("propose", "v")

    benchmark(network.multicast, 0, payload)
    assert sim.heap_pushes_avoided / sim.bucket_appends > 0.9


def test_window_drain_100k(benchmark):
    """Push 100 k continuous instants as one fan-out, pop them all: an
    index append per copy, the entries built and sorted once per window,
    an index walk per pop."""
    rng = random.Random(7)
    times = [rng.uniform(0.0, 10.0) for _ in range(100_000)]
    recipients = range(100_000)

    def run():
        queue = EventQueue(width=0.05)
        queue.push_batch(times, print, 0, recipients, None)
        fired = 0
        while queue.pop() is not None:
            fired += 1
        return fired

    assert benchmark(run) == 100_000


def test_event_queue_cancel_heavy_churn(benchmark):
    """Push/cancel churn exercises the lazy compaction path."""
    def run():
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(2_000)]
        for handle in handles[:1_900]:
            handle.cancel()
        fired = 0
        while queue.pop() is not None:
            fired += 1
        return fired

    assert benchmark(run) == 100
