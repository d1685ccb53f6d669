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
  scheduling that step's messages — so a signature always reaches a
  verifier no later than the first message carrying it (delays are
  positive, issuance precedes delivery by at least one barrier step).

* :func:`_shard_main` — the worker loop speaking the coordinator's
  barrier protocol (see :mod:`repro.sim.coordinator`).

Determinism: delay policies must be :meth:`~repro.sim.delays.
DelayPolicy.shard_safe` (pure per-link pricing), so every copy gets its
single-process delivery instant, and a worker schedules each inbound run
on its own calendar as the single-process network schedules a folded
run (ordered by payload digest), so copies fire in the single-process
order.  One tie remains: two copies of one payload landing at one
instant, sent in one window by parties of different shards, fire
local-first (then by source shard) rather than in send order.  With no
lookahead a copy landing at the instant being run fires in a re-step,
after the destination's own events of that instant.
"""
from __future__ import annotations

import pickle
from array import array
from typing import Any

from repro.crypto.messages import digest, seed_digest, stable_digest
from repro.errors import SimulationError
from repro.sim.runner import ADDITIVE_COUNTERS, World

__all__ = ["_shard_main"]


def _send_msg(conn, msg) -> int:
    """Frame one barrier message explicitly; returns the frame size.

    Both sides pickle by hand and ship raw bytes (instead of
    ``Connection.send``) so the coordinator can meter the pipes:
    ``shard_bytes_sent`` sums these sizes and the payload frames'.
    """
    blob = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(blob)
    return len(blob)


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
      after every step ``("stepped", heads, fresh, next_time)`` and then
      one raw frame per destination of ``heads`` (destination shard ->
      ``(earliest delivery instant, record count)``), each the pickled
      ``(defs, recs, times)`` for it (``defs`` are first-crossing
      ``(ref, payload, stable digest | None)`` triples — the digest
      seeds the destination's cache so deep payloads are never
      re-walked; ``recs`` is one packed ``array('q')`` of ``sender, ref,
      lo, hi`` quadruples and ``times`` the matching ``array('d')`` of
      delivery instants — machine words, not per-record tuples);
      ``fresh`` is the issued-signature group dict and ``next_time`` the
      calendar's head; finally ``("done", summary)``.
    * coordinator -> worker: ``("step", T, window_end, sources, issued)``
      and then the frames of ``sources`` (one source shard each), as
      sent — merge ``issued``, schedule the inbound records, then run
      the window: every event strictly before ``window_end`` (the
      coordinator's delay-policy lookahead guarantees nothing new can
      land inside it), or — when ``window_end == T`` (no lookahead) —
      exactly the instant ``T`` inclusive.  Or ``("finish",)``.
      A source frame that does not decode fails the worker with an
      error naming the source shard.
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
        fault_plan=spec["fault_plan"],
        parties=range(lo, hi),
    )
    world.populate(spec["party_factory"])
    sim = world.sim
    net = world.network
    registry = world.registry
    # Payload ref tables: inbound per source shard, outbound per
    # destination shard.  Outbound tables key by ``id`` with the pin list
    # holding a strong reference (so the id cannot be recycled); a
    # payload therefore crosses each (src, dst) pair at most once.
    in_refs: dict[int, list[Any]] = {}
    out_refs: dict[int, dict[int, int]] = {}
    out_pins: dict[int, list[Any]] = {}
    until: float | None = spec["until"]
    _send_msg(conn, ("ready", sim.next_event_time()))
    while True:
        msg = pickle.loads(conn.recv_bytes())
        if msg[0] == "finish":
            result = world.result()
            _send_msg(conn, (
                "done",
                {
                    "commits": result.commits,
                    "commit_times": result.commit_global_times,
                    "commit_conflicts": result.commit_conflicts,
                    "view_changes": result.view_changes,
                    "commit_views": result.commit_views,
                    "final_time": result.final_time,
                    **{
                        name: getattr(result, name)
                        for name in ADDITIVE_COUNTERS
                    },
                },
            ))
            conn.close()
            return
        _, step_time, window_end, sources, issued = msg
        if issued:
            registry.merge_issued(issued)
        for src in sources:
            frame = conn.recv_bytes()
            try:
                defs, recs, times = pickle.loads(frame)
            except Exception as exc:
                # The coordinator forwards frames unread, so this is the
                # first place a damaged one shows: name where it came
                # from.  Broad because damaged pickle data can raise
                # nearly any type; the error is re-raised, not absorbed.
                raise SimulationError(
                    f"payload frame from source shard {src} "
                    f"({len(frame)} B) does not decode: {exc!r}"
                ) from exc
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
                sim.schedule_at(
                    deliver_time, net._deliver_many, order_key=digest(payload),
                    args=(recs[i], range(recs[i + 2], recs[i + 3]), payload),
                    transient=True,
                )
        # The window is ``[step_time, window_end)`` — or, with no lookahead
        # (``window_end == step_time``), exactly the instant ``step_time``
        # — and under a horizon never runs past ``until`` (the coordinator
        # reports the horizon as hit and stamps ``final_time`` itself).
        if window_end == step_time:
            sim.run(until=step_time)
        elif until is not None and until < window_end:
            sim.run(until=until)
        else:
            sim.run_before(window_end)
        out: dict[int, tuple[list, array, array]] = {}
        for sender, payload, run_lo, run_hi, deliver_time in net.outbuf:
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
                    chunk[0].append((ref, payload, stable_digest(payload)))
                chunk[1].extend((sender, ref, piece_lo, piece_hi))
                chunk[2].append(deliver_time)
        net.outbuf.clear()
        # Frames are pickled before the header goes out: a failure then
        # replaces the whole reply.
        frames = [
            pickle.dumps(chunk, pickle.HIGHEST_PROTOCOL)
            for chunk in out.values()
        ]
        _send_msg(conn, (
            "stepped",
            {
                dst: (min(times), len(times))
                for dst, (_, _, times) in out.items()
            },
            registry.take_fresh(),
            sim.next_event_time(),
        ))
        for frame in frames:
            conn.send_bytes(frame)
