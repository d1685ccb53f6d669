"""Worker side of sharded in-run parallelism.

One :class:`~repro.sim.runner.World` built with ``shards=k`` is executed
by ``k`` worker processes, each owning a contiguous party range
``[lo, hi)`` and its own local simulator/timeline.  This module is what
runs *inside* a worker:

* The worker's world is a plain :class:`~repro.sim.runner.World` built
  over its party range (``World(parties=range(lo, hi))``): n, f, the PKI
  and the delay policy stay global, ``World.populate`` builds only the
  local parties, and the network prices every recipient through the
  stock pipeline.  Copies for the other ranges leave through
  ``Network._emit_remote``, which appends each run to ``outbuf`` *at
  send time* as a ``(sender, payload, lo, hi, deliver_time)`` record
  (routed through the fault injector at the source, copy by copy, when
  a plan is compiled in) — the delivery
  instant travels on the wire, so the sending worker's own timeline
  carries no cross-shard events at all and the receiving worker can
  schedule the copies wherever its window has not yet run.  No per-copy
  objects ever cross the process boundary: a fan-out run travels as one
  record, and each payload object crosses a given (source, destination)
  shard pair exactly once (later records carry a small integer ref).

* Issued-signature shipping.  The ideal-signature model verifies by
  membership in the :class:`~repro.crypto.signatures.KeyRegistry`'s
  issued set, which sharding splits across processes; every step each
  worker drains its freshly issued ``(signer, digest)`` pairs
  (``take_fresh``), the coordinator merges them into ``{digest:
  signer-bitmask}`` groups (n parties signing the same vote body collapse
  to one digest + one int) and broadcasts them, and receivers expand the
  masks back into their local issued set (``merge_issued``) *before*
  injecting that step's messages — so a signature always reaches a
  verifier no later than the first message carrying it (delays are
  positive, issuance precedes delivery by at least one barrier step).

* :func:`_shard_main` — the worker loop speaking the coordinator's
  barrier protocol (see :mod:`repro.sim.coordinator`).

Determinism: event order keys are content digests, identical in every
process; delay policies must be :meth:`~repro.sim.delays.DelayPolicy.
shard_safe` (pure per-link pricing), so every copy gets the same delivery
instant as in the single-process schedule.  The one documented divergence
is intra-instant: a cross-shard copy arriving at instant ``T`` is
injected after the destination drained its local ``T`` events, instead of
digest-interleaved among them — virtual delivery times are identical, so
good-case outcomes and counters are unchanged for positive-delay
workloads (the parity suite pins this).
"""
from __future__ import annotations

import heapq
import pickle
from array import array
from typing import Any

from repro.crypto.messages import digest, seed_digest, stable_digest
from repro.sim.runner import ADDITIVE_COUNTERS, World
from repro.types import INF

__all__ = ["_shard_main"]


def _send_msg(conn, msg) -> int:
    """Frame one barrier message explicitly; returns the frame size.

    Both sides pickle by hand and ship raw bytes (instead of
    ``Connection.send``) so the coordinator can meter the pipes —
    ``shard_bytes_sent`` is the sum of these return values.
    """
    blob = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(blob)
    return len(blob)


def _recv_msg(conn) -> tuple[Any, int]:
    """Inverse of :func:`_send_msg`: ``(message, frame size)``."""
    blob = conn.recv_bytes()
    return pickle.loads(blob), len(blob)


def _split_range(lo: int, hi: int, bounds: list[tuple[int, int]]):
    """Split a party range into per-destination-shard pieces."""
    for dst, (shard_lo, shard_hi) in enumerate(bounds):
        piece_lo = max(lo, shard_lo)
        piece_hi = min(hi, shard_hi)
        if piece_lo < piece_hi:
            yield dst, piece_lo, piece_hi


def _shard_main(conn, spec: dict) -> None:
    """Entry point of one worker process: run the loop, ship failures.

    Any exception inside the loop is reported to the coordinator as an
    ``("error", traceback)`` message (instead of a silent worker death
    that would deadlock the barrier) and re-raised.
    """
    try:
        _shard_loop(conn, spec)
    except Exception:
        import traceback

        try:
            _send_msg(conn, ("error", traceback.format_exc()))
        except OSError:
            pass
        raise


def _shard_loop(conn, spec: dict) -> None:
    """The worker loop: build the local world, then serve barrier steps.

    Protocol (every message is one explicitly pickled frame over a
    duplex pipe — see :func:`_send_msg` — so the coordinator can meter
    the wire):

    * worker -> coordinator: ``("ready", next_time)`` once after setup;
      then ``("stepped", out, fresh, next_time)`` after every step, where
      ``out`` maps destination shard -> ``(defs, recs, times)`` (``defs``
      are first-crossing ``(ref, payload, stable digest | None)``
      triples — the digest seeds the destination's cache so deep
      payloads are never re-walked; ``recs`` is one packed
      ``array('q')`` of ``sender, ref, lo, hi`` quadruples and ``times``
      the matching ``array('d')`` of delivery instants — the integer-ref
      hot path crosses as machine words, not per-record tuples),
      ``fresh`` is the issued-signature group dict, and ``next_time``
      is the earlier of the local timeline's head and the oldest
      not-yet-delivered inbound record; finally ``("done", summary)``.
    * coordinator -> worker: ``("step", T, window_end, inbound, issued)``
      — merge ``issued``, queue the inbound records at their wire
      delivery instants, then run the window: every local event and
      queued inbound record strictly before ``window_end`` (the
      coordinator's delay-policy lookahead guarantees nothing new can
      land inside it), or — when ``window_end == T`` (no lookahead) —
      exactly the instant ``T`` inclusive.  Or ``("finish",)``.  Workers
      with no work inside the window are skipped entirely (barrier
      coalescing), so a quiet shard costs no round-trip.

    Inbound records bypass the local timeline: they are kept in a plain
    ``(time, digest, seq)``-ordered heap and merged with local events by
    the window loop — one ``run(until=...)`` call per inbound instant
    instead of a full schedule/pop cycle per copy, which is where the
    per-copy randomized-delay workloads win back the wire cost.  Within
    one instant, local events drain before inbound copies (the module
    docstring's documented intra-instant divergence); inbound ties break
    by content digest, matching the single-process timeline's order key.
    """
    index: int = spec["index"]
    bounds: list[tuple[int, int]] = spec["bounds"]
    lo, hi = bounds[index]
    world = World(
        n=spec["n"],
        f=spec["f"],
        delay_policy=spec["delay_policy"],
        byzantine=spec["byzantine"],
        start_offsets=spec["start_offsets"],
        instrumentation="perf",
        protocol_name=spec["protocol_name"],
        fault_plan=spec["fault_plan"],
        parties=range(lo, hi),
    )
    world.populate(spec["party_factory"])
    sim = world.sim
    net = world.network
    registry = world.registry
    note = sim.note_logical_events
    # Payload ref tables: inbound per source shard, outbound per
    # destination shard.  Outbound tables key by ``id`` with the pin list
    # holding a strong reference (so the id cannot be recycled); a
    # payload therefore crosses each (src, dst) pair at most once.
    in_refs: dict[int, list[Any]] = {}
    out_refs: dict[int, dict[int, int]] = {}
    out_pins: dict[int, list[Any]] = {}
    until: float | None = spec["until"]
    # Inbound records not yet delivered, ordered by (delivery instant,
    # payload digest, arrival seq): a flat heap, merged with the local
    # timeline by the window loop below.
    inqueue: list[tuple] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    seq = 0
    _send_msg(conn, ("ready", sim.next_event_time()))
    while True:
        msg, _ = _recv_msg(conn)
        if msg[0] == "finish":
            result = world.result()
            _send_msg(conn, (
                "done",
                {
                    "commits": result.commits,
                    "commit_times": result.commit_global_times,
                    "final_time": result.final_time,
                    **{
                        name: getattr(result, name)
                        for name in ADDITIVE_COUNTERS
                    },
                },
            ))
            conn.close()
            return
        _, step_time, window_end, inbound, issued = msg
        if issued:
            registry.merge_issued(issued)
        for src, defs, recs, times in inbound:
            table = in_refs.setdefault(src, [])
            for ref, payload, value in defs:
                assert ref == len(table)
                if value is not None:
                    # The sender shipped its (stable) digest: seed the
                    # local cache instead of re-walking the unpickled
                    # value — for deep payloads (certificates) the walk
                    # is O(size) per def and was the workers' top
                    # profile entry.  Interning is skipped too: its
                    # structural key is the same walk, and digest-keyed
                    # caches hit by content regardless of identity.
                    seed_digest(payload, value)
                else:
                    payload = world.intern_payload(payload)
                table.append(payload)
            for j, deliver_time in enumerate(times):
                i = 4 * j
                payload = table[recs[i + 1]]
                heappush(inqueue, (
                    deliver_time, digest(payload), seq,
                    recs[i], recs[i + 2], recs[i + 3], payload,
                ))
                seq += 1
        # The window is ``[step_time, window_end)`` — or, with no lookahead
        # (``window_end == step_time``), exactly the instant ``step_time``
        # — and under a horizon never runs past ``until`` (the coordinator
        # reports the horizon as hit and stamps ``final_time`` itself).
        if window_end == step_time:
            strict, last = INF, step_time
        else:
            strict, last = window_end, INF if until is None else until
        # One merge loop: drain local events up to the next inbound
        # instant (inclusive — local first on ties), deliver that
        # instant's inbound copies, repeat; once no inbound record is
        # left inside the window, run the local tail (including, at a
        # single instant, the cascade the inbound copies triggered).
        while True:
            instant = inqueue[0][0] if inqueue else INF
            if instant >= strict or instant > last:
                if last < strict:
                    sim.run(until=last)
                else:
                    # ``run_before`` leaves ``now`` at the last real
                    # event, which the merged ``final_time`` reports.
                    sim.run_before(strict)
                break
            sim.run(until=instant)
            sim.advance_now(instant)
            while inqueue and inqueue[0][0] == instant:
                _, _, _, snd, run_lo, run_hi, payload = heappop(inqueue)
                note(1)
                net._deliver_many(snd, range(run_lo, run_hi), payload)
        out: dict[int, tuple[list, array, array]] = {}
        if net.outbuf:
            for sender, payload, run_lo, run_hi, deliver_time in (
                net.outbuf
            ):
                for dst, piece_lo, piece_hi in _split_range(
                    run_lo, run_hi, bounds
                ):
                    chunk = out.get(dst)
                    if chunk is None:
                        chunk = out[dst] = ([], array("q"), array("d"))
                    table = out_refs.setdefault(dst, {})
                    ref = table.get(id(payload))
                    if ref is None:
                        ref = len(table)
                        table[id(payload)] = ref
                        out_pins.setdefault(dst, []).append(payload)
                        chunk[0].append(
                            (ref, payload, stable_digest(payload))
                        )
                    chunk[1].extend((sender, ref, piece_lo, piece_hi))
                    chunk[2].append(deliver_time)
            net.outbuf.clear()
        next_time = sim.next_event_time()
        if inqueue and (next_time is None or inqueue[0][0] < next_time):
            next_time = inqueue[0][0]
        _send_msg(conn, (
            "stepped", out, registry.take_fresh(), next_time
        ))
