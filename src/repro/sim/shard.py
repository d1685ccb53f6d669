"""Worker side of sharded in-run parallelism.

One :class:`~repro.sim.runner.World` built with ``shards=k`` is executed
by ``k`` worker processes, each owning a contiguous party range
``[lo, hi)`` and its own local simulator/timeline.  This module is what
runs *inside* a worker:

* :class:`ShardNetwork` — the range-partitioned transport.  It runs the
  stock :class:`~repro.sim.network.Network` pipeline (price → instant →
  run → emit) for every recipient and overrides only *which* recipients
  are local and which emitter the rest go through: remote recipients (at
  most two contiguous ranges: everything below ``lo`` and everything
  at/above ``hi``) are priced through the same delay policy and the same
  ``_fan_out`` rules, and ``_emit_remote`` appends each run to ``outbuf``
  *at send time* as a ``(sender, payload, lo, hi, deliver_time)`` record
  (routed through the fault injector at the source, copy by copy, when a
  plan is compiled in) — the delivery instant travels on the wire, so
  the sending worker's own timeline carries no cross-shard events at all
  and the receiving worker can schedule the copies wherever its window
  has not yet run.  No per-copy objects ever cross the process boundary:
  a fan-out run travels as one record, and each payload object crosses a
  given (source, destination) shard pair exactly once (later records
  carry a small integer ref).

* :class:`_ShardRegistry` — the PKI with issued-signature shipping.  The
  ideal-signature model verifies by membership in the issued set, which
  sharding splits across processes; every step each worker drains its
  freshly issued ``(signer, digest)`` pairs, the coordinator merges them
  into ``{digest: signer-bitmask}`` groups (n parties signing the same
  vote body collapse to one digest + one int) and broadcasts them, and
  receivers expand the masks back into their local issued set *before*
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
from typing import Any, Iterable, Sequence

from repro.crypto.messages import digest, seed_digest, stable_digest
from repro.crypto.signatures import KeyRegistry
from repro.errors import SimulationError
from repro.sim.clock import quantize
from repro.sim.instrumentation import Instrumentation
from repro.sim.network import Network, Run
from repro.sim.runner import ADDITIVE_COUNTERS, World
from repro.types import INF, PartyId

__all__ = ["ShardNetwork", "_ShardRegistry", "_ShardWorld", "_shard_main"]


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


class _ShardRegistry(KeyRegistry):
    """PKI that records freshly issued signatures for shipping."""

    def __init__(self, n: int):
        super().__init__(n)
        self._fresh: list[tuple[PartyId, bytes]] = []

    def _record(self, party: PartyId, payload_digest: bytes) -> None:
        pair = (party, payload_digest)
        if pair not in self._issued:
            self._issued.add(pair)
            self._fresh.append(pair)

    def take_fresh(self) -> dict[bytes, int]:
        """Drain signatures issued since the last drain, grouped as
        ``{payload_digest: signer-bitmask}`` (the wire format)."""
        fresh = self._fresh
        if not fresh:
            return {}
        self._fresh = []
        grouped: dict[bytes, int] = {}
        for party, payload_digest in fresh:
            grouped[payload_digest] = (
                grouped.get(payload_digest, 0) | 1 << party
            )
        return grouped

    def merge_issued(self, grouped: dict[bytes, int]) -> None:
        """Fold other shards' issued groups into the local issued set."""
        issued = self._issued
        for payload_digest, mask in grouped.items():
            while mask:
                low = mask & -mask
                issued.add((low.bit_length() - 1, payload_digest))
                mask ^= low


class ShardNetwork(Network):
    """Transport for one worker's party range ``[lo, hi)``.

    Every send runs the stock pipeline; this class only says which
    recipients are local (the base class's two ranges, clipped to
    ``[lo, hi)``) and routes the rest through :meth:`_emit_remote`, which
    turns priced runs into outbox records — see the module docstring.
    """

    def __init__(self, *args, lo: int, hi: int, **kwargs):
        super().__init__(*args, **kwargs)
        self._local = range(lo, hi)
        #: Cross-shard runs recorded at *send* time, as
        #: ``(sender, payload, lo, hi, deliver_time)`` records; drained
        #: by the worker loop after every barrier step.
        self.outbuf: list[tuple[PartyId, Any, int, int, float]] = []
        # Remote recipients are at most two contiguous ranges; a multicast
        # prices each through the same policy and pipeline as the local
        # fan-out, only the emitter differs.
        self._remote_targets = [
            (remote, self._emit_remote)
            for remote in (range(0, lo), range(hi, self._n))
            if len(remote)
        ]

    def _targets(self, sender: PartyId):
        return [*super()._targets(sender), *self._remote_targets]

    def _unicast_emitter(self, recipient: PartyId):
        return self._emit if recipient in self._local else self._emit_remote

    def _check_override(self, sender: PartyId, recipients) -> None:
        raise SimulationError(
            "delay overrides require the single-process path "
            "(sharded worlds carry no Byzantine behaviors)"
        )

    def _emit_remote(
        self,
        sender: PartyId,
        recipients: Sequence[PartyId],
        runs: Iterable[Run],
        payload: Any,
        send_time: float,
        order_key: bytes | None,
    ) -> bytes | None:
        """Emit a cross-shard fan-out as ``outbuf`` records.

        Without a plan each run is one record.  With one compiled in,
        the fault seam applies at the *source*: each copy is dropped,
        retimed, or duplicated here, exactly like the single-process
        per-copy emitter, and only the surviving records cross the
        barrier.  No order key is needed (or computed) here: the
        destination digests the payload itself when it queues the record.
        """
        outbuf = self.outbuf
        injector = self._injector
        for start, end, deliver_time in runs:
            # Runs are contiguous: remote ranges are, and so is a unicast.
            lo = recipients[start]
            hi = lo + end - start
            if injector is None:
                outbuf.append((sender, payload, lo, hi, deliver_time))
                continue
            for recipient in range(lo, hi):
                for faulted_time in injector.route(
                    sender, recipient, send_time, deliver_time
                ):
                    outbuf.append((
                        sender, payload, recipient, recipient + 1,
                        quantize(faulted_time),
                    ))
        return order_key


class _ShardWorld(World):
    """A worker's view of the world: global n/f/PKI, local party range."""

    def __init__(self, *, lo: int, hi: int, **kwargs):
        self._lo = lo
        self._hi = hi
        super().__init__(**kwargs)

    def _build_registry(self, n: int) -> KeyRegistry:
        return _ShardRegistry(n)

    def _build_network(self, delay_policy) -> Network:
        return ShardNetwork(
            self.sim,
            delay_policy,
            n=self.n,
            byzantine=self.byzantine,
            start_offsets=self.start_offsets,
            instrumentation=self.instrumentation,
            fault_injector=self.fault_injector,
            reliable_link=None,
            lo=self._lo,
            hi=self._hi,
        )

    def populate_local(self, party_factory) -> None:
        """Instantiate and start only this shard's party range.

        Byzantine ids are crash-from-start by construction (scripted
        behaviors force ``shards=1``), so they are simply skipped — their
        inbox stays ``None`` and every copy addressed to them vanishes at
        delivery, exactly like the single-process path.
        """
        self._populated = True
        for pid in range(self._lo, self._hi):
            if pid in self.byzantine:
                continue
            agent = party_factory(self, pid)
            self.agents[pid] = agent
            self.network.attach(pid, agent.deliver)
            self.sim.schedule_at(
                self.start_offsets[pid],
                lambda a=agent, p=pid: self._run_start_step(a, p),
                transient=True,
            )


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
    parent = spec["instrumentation"]
    world = _ShardWorld(
        lo=lo,
        hi=hi,
        n=spec["n"],
        f=spec["f"],
        delay_policy=spec["delay_policy"],
        byzantine=spec["byzantine"],
        start_offsets=spec["start_offsets"],
        instrumentation=Instrumentation(
            name=parent["name"],
            rounds=False,
            transcripts=False,
            envelopes=False,
        ),
        protocol_name=spec["protocol_name"],
        fault_plan=spec["fault_plan"],
    )
    world.populate_local(spec["party_factory"])
    sim = world.sim
    net: ShardNetwork = world.network
    registry: _ShardRegistry = world.registry
    injector = world.fault_injector
    note = sim.note_logical_events
    if injector is None:
        deliver_run = net._deliver_many
    else:
        # With a plan compiled in, cross-shard copies were routed through
        # the fault seam at their *source*; what is left at the
        # destination is the recipient-side crash window, which the stock
        # per-copy ``_deliver`` applies — so the fault counters merge to
        # the single-process totals exactly.
        def deliver_run(snd, run, payload):
            note(len(run) - 1)
            for recipient in run:
                net._deliver(snd, recipient, payload, None)

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
                deliver_run(snd, range(run_lo, run_hi), payload)
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
