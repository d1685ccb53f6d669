"""Coordinator side of sharded in-run parallelism.

:func:`run_sharded` executes one populated-but-deferred
:class:`~repro.sim.runner.World` (``shards=k``) across ``k`` forked
worker processes (:func:`repro.sim.shard._shard_main`), advancing all
shards in lockstep one *window* at a time:

1. every worker reports the head of its calendar (which holds the
   inbound records already forwarded to it), and the coordinator takes
   the earlier of that and the oldest record it still holds for it;
2. the coordinator picks the global minimum ``T`` and the window
   ``[T, T + L)``, where the lookahead ``L`` is the one the world
   derived from the delay policy's
   :meth:`~repro.sim.delays.DelayPolicy.min_delay` for its calendar,
   shaved by a quantization guard (the barrier, unlike the calendar,
   relies on it for correctness): a message sent inside the window
   cannot land before the window ends, so every worker with work inside
   the window runs the whole span between barriers.  Quiet shards are skipped
   without a round-trip (barrier coalescing), and issued-signature
   groups destined for a skipped shard wait in its pending queue until
   its next step (always at or before the first message that could
   reference them — a record referencing a signature lands no earlier
   than the end of the window that issued it);
3. cross-shard sends are recorded *at send time* with their delivery
   instant on the wire, one frame per destination; the coordinator
   forwards the frames unread (plus freshly issued signature groups)
   with each destination's next step.
   With ``L == 0`` (no minimum delay) the window degenerates to one
   instant and the coordinator re-steps it until no new traffic lands
   at ``T`` — the exact lockstep protocol positive lookahead avoids.

Wire accounting: every barrier message and payload frame is one
explicitly framed byte string, and the coordinator meters both
directions into ``RunResult.shard_bytes_sent``;
``RunResult.shard_barrier_rounds`` counts step rounds (one round = one
batch of step/stepped exchanges over one window or instant).

The barrier is the deterministic timeline itself: workers never race,
every delivery instant is identical to the single-process schedule, and
the per-shard counters merge into one
:class:`~repro.sim.runner.RunResult` whose outcome fields are
indistinguishable from a ``shards=1`` run (each routed copy is counted
exactly once, at its destination, so ``events_processed`` sums;
``final_time`` is the horizon when one was set and events remained
beyond it, matching ``Simulator.run``).

The fork start method is required: party factories are closures over
protocol classes and parameters, which cross into workers by address
space inheritance, never by pickling.  Only the barrier messages
themselves (compact run records, payload defs, signature groups) are
pickled, through each worker's duplex pipe.
"""
from __future__ import annotations

import multiprocessing
import pickle

from repro.errors import SimulationError
from repro.sim.runner import ADDITIVE_COUNTERS, RunResult, World

__all__ = ["shard_bounds", "run_sharded"]


def _recv(
    index: int, conns: list, procs: list, bounds: list, barrier_round: int,
    *, raw: bool = False,
):
    """Receive one frame from worker ``index``, surfacing its failures.

    A worker that raised ships its traceback as an ``"error"`` frame; one
    that died outright (killed, ``os._exit``, OOM) just closes the pipe;
    one that sends nothing for ``_RECV_TIMEOUT_SECONDS`` (stopped, or
    stuck in a loop) is given up on — each becomes a
    :class:`SimulationError` naming the shard, its party range and, for a
    worker that raised or went silent, the barrier round.  Returns
    ``(message, frame size)`` so the caller can meter the pipe, or the
    frame itself when ``raw``.
    """
    conn = conns[index]
    lo, hi = bounds[index]
    if not conn.poll(_RECV_TIMEOUT_SECONDS):
        raise SimulationError(
            f"shard {index} (parties [{lo}, {hi})) sent nothing for "
            f"{_RECV_TIMEOUT_SECONDS} s in barrier round {barrier_round}"
        )
    try:
        blob = conn.recv_bytes()
    except (EOFError, OSError):
        procs[index].join(_EXIT_WAIT_SECONDS)
        raise SimulationError(
            f"shard {index} (parties [{lo}, {hi})) died mid-run with "
            f"exit code {procs[index].exitcode}"
        ) from None
    if raw:
        return blob
    msg = pickle.loads(blob)
    if msg[0] == "error":
        raise SimulationError(
            f"shard {index} (parties [{lo}, {hi})) failed in barrier round "
            f"{barrier_round}:\n{msg[1]}"
        )
    return msg, len(blob)


def shard_bounds(n: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous near-equal party ranges: ``shards`` pairs ``(lo, hi)``.

    The first ``n % shards`` ranges take the extra party, so sizes differ
    by at most one and every party belongs to exactly one range.
    """
    base, rem = divmod(n, shards)
    bounds = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


#: Margin shaved off the delay policy's minimum delay before it is used
#: as the barrier lookahead: :func:`repro.sim.clock.quantize` rounds a
#: delivery instant to 12 decimals, which can pull it up to ``5e-13``
#: *below* ``send_time + min_delay()``.  The guard dwarfs that slack, so
#: a record produced inside a window provably lands at or after the
#: window's end.
_LOOKAHEAD_GUARD = 1e-9

#: How long a worker whose pipe hit EOF gets to finish exiting before its
#: exit code is reported (``None`` in the message if it is still alive).
_EXIT_WAIT_SECONDS = 5.0

#: How long the coordinator waits for one frame from a worker before it
#: declares the worker hung.  Generous: the slowest barrier round of the
#: n=1001 sharded BRB benchmark takes well under a second.
_RECV_TIMEOUT_SECONDS = 300.0


def run_sharded(world: World, *, until: float | None = None) -> RunResult:
    """Run a ``shards > 1`` world to quiescence (or a horizon)."""
    shards = world.shards
    bounds = shard_bounds(world.n, shards)
    lookahead = max(0.0, world.sim.lookahead - _LOOKAHEAD_GUARD)
    ctx = multiprocessing.get_context("fork")
    conns = []
    procs = []
    try:
        for index in range(shards):
            parent_conn, child_conn = ctx.Pipe()
            spec = {
                "index": index,
                "bounds": bounds,
                "n": world.n,
                "f": world.f,
                "delay_policy": world._delay_policy,
                "byzantine": world.byzantine,
                "start_offsets": list(world.start_offsets),
                "party_factory": world._party_factory,
                "fault_plan": world.fault_plan,
                "until": until,
            }
            from repro.sim.shard import _send_msg, _shard_main

            proc = ctx.Process(
                target=_shard_main, args=(child_conn, spec), daemon=True
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        bytes_sent = 0
        next_times: list[float | None] = []
        for index in range(shards):
            (tag, next_time), nbytes = _recv(
                index, conns, procs, bounds, 0
            )
            assert tag == "ready"
            next_times.append(next_time)
            bytes_sent += nbytes

        batches = 0
        barrier_rounds = 0
        horizon_hit = False
        # Issued-signature groups each worker has not yet received:
        # delivered with the worker's next "step" (workers merge them
        # before scheduling its records, so a signature always lands no
        # later than the first message that could reference it — a
        # message carrying it arrives in a frame, which always comes
        # with a step).  The producer is skipped: its own issued set
        # already holds them.
        pending_issued: list[dict[bytes, int]] = [
            {} for _ in range(shards)
        ]
        # Payload frames held for each worker until its next step, as
        # ``(source shard, frame, earliest record instant)``.
        inbound: list[list[tuple]] = [[] for _ in range(shards)]

        def effective_next(index: int) -> float | None:
            times = [earliest for _, _, earliest in inbound[index]]
            if next_times[index] is not None:
                times.append(next_times[index])
            return min(times, default=None)

        while True:
            live = [
                t
                for t in (effective_next(i) for i in range(shards))
                if t is not None
            ]
            if not live:
                break
            step_time = min(live)
            if until is not None and step_time > until:
                horizon_hit = True
                break
            window_end = step_time + lookahead
            # Step the window.  With positive lookahead one round
            # suffices — traffic produced inside the window lands at or
            # after its end, so the loop re-checks and finds no shard
            # with in-window work.  With ``lookahead == 0`` the window
            # is the single instant ``T`` and the loop re-steps it while
            # cross-shard traffic keeps landing at it (zero-delay
            # cascades converge: each routed record is consumed by its
            # destination's next round).  Only workers with work inside
            # the window participate; under a horizon, workers whose
            # next instant lies beyond it are left untouched.
            while True:
                stepped = []
                for index in range(shards):
                    t = effective_next(index)
                    if t is None:
                        continue
                    if t != step_time and t >= window_end:
                        continue
                    if until is not None and t > until:
                        continue
                    stepped.append(index)
                if not stepped:
                    break
                barrier_rounds += 1
                for index in stepped:
                    issued = pending_issued[index]
                    if issued:
                        pending_issued[index] = {}
                    frames = inbound[index]
                    inbound[index] = []
                    bytes_sent += _send_msg(
                        conns[index],
                        (
                            "step", step_time, window_end,
                            [src for src, _, _ in frames], issued,
                        ),
                    )
                    for _, frame, _ in frames:
                        conns[index].send_bytes(frame)
                        bytes_sent += len(frame)
                for index in stepped:
                    msg, nbytes = _recv(
                        index, conns, procs, bounds, barrier_rounds
                    )
                    tag, heads, fresh, next_time = msg
                    assert tag == "stepped"
                    bytes_sent += nbytes
                    next_times[index] = next_time
                    if fresh:
                        for other in range(shards):
                            if other == index:
                                continue
                            pending = pending_issued[other]
                            for payload_digest, mask in fresh.items():
                                pending[payload_digest] = (
                                    pending.get(payload_digest, 0) | mask
                                )
                    for dst, (earliest, count) in heads.items():
                        frame = _recv(
                            index, conns, procs, bounds, barrier_rounds,
                            raw=True,
                        )
                        bytes_sent += len(frame)
                        inbound[dst].append((index, frame, earliest))
                        batches += count

        for conn in conns:
            bytes_sent += _send_msg(conn, ("finish",))
        summaries = []
        for index in range(shards):
            msg, nbytes = _recv(
                index, conns, procs, bounds, barrier_rounds
            )
            summaries.append(msg[1])
            bytes_sent += nbytes
        for proc in procs:
            proc.join()
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            if proc.is_alive():
                # SIGKILL: a stopped worker leaves SIGTERM pending forever.
                proc.kill()
                proc.join()

    commits: dict = {}
    commit_times: dict = {}
    commit_conflicts: list = []
    view_changes: list = []
    commit_views: dict = {}
    for summary in summaries:
        commits.update(summary["commits"])
        commit_times.update(summary["commit_times"])
        commit_conflicts += summary["commit_conflicts"]
        view_changes += summary["view_changes"]
        commit_views.update(summary["commit_views"])
    return RunResult(
        n=world.n,
        f=world.f,
        byzantine=world.byzantine,
        commits=commits,
        commit_global_times=commit_times,
        commit_rounds={},
        commit_conflicts=commit_conflicts,
        view_changes=view_changes,
        commit_views=commit_views,
        start_offsets=list(world.start_offsets),
        final_time=(
            float(until)
            if horizon_hit
            else max(s["final_time"] for s in summaries)
        ),
        instrumentation=world.instrumentation.name,
        rounds_recorded=False,
        partition_windows=(
            world.fault_injector.partition_windows
            if world.fault_injector is not None else 0
        ),
        shards=shards,
        shard_batches_exchanged=batches,
        shard_bytes_sent=bytes_sent,
        shard_barrier_rounds=barrier_rounds,
        **{
            name: sum(s[name] for s in summaries)
            for name in ADDITIVE_COUNTERS
        },
    )
