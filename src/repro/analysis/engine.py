"""Parallel sweep engine: deterministic grid execution across processes.

Every figure sweep and benchmark grid in this repo is a list of
independent points (one simulated execution each).  :class:`SweepEngine`
runs such a grid either inline (``workers=1``, the default — zero overhead
for tests and small grids) or across worker processes with
``concurrent.futures.ProcessPoolExecutor``, and always returns results in
task order, so callers are oblivious to the execution strategy.

Determinism contract:

* results depend only on each task's ``(fn, kwargs)``, never on which
  worker ran it or in what order;
* randomized points get a **deterministic per-point seed** derived from
  the engine's ``base_seed`` plus the task's index and key
  (:func:`point_seed`), so re-running a grid — serial or parallel, any
  worker count — reproduces it bit-for-bit.

Task functions must be module-level (picklable) and their kwargs plain
data; every sweep in :mod:`repro.analysis.sweeps` follows this shape.
"""
from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence


@dataclass(frozen=True)
class SweepTask:
    """One grid point: call ``fn(**kwargs)``.

    ``key`` labels the point (it also salts the per-point seed);
    ``inject_seed=True`` asks the engine to pass a deterministic
    ``seed=...`` kwarg derived from its ``base_seed``.
    """

    fn: Callable[..., Any]
    kwargs: dict[str, Any] = field(default_factory=dict)
    key: Any = None
    inject_seed: bool = False


def point_seed(base_seed: int, index: int, key: Any = None) -> int:
    """Deterministic 64-bit seed for grid point ``index`` / ``key``."""
    material = f"{base_seed}:{index}:{key!r}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _run_task(task: SweepTask) -> Any:
    try:
        return task.fn(**task.kwargs)
    except Exception as error:
        # The point's key goes into the message itself: the error keeps
        # its type, a pool worker pickles ``args`` back, and Python 3.10
        # has no ``add_note``.
        error.args = (f"sweep task {task.key!r}: {error}", *error.args[1:])
        raise


class SweepEngine:
    """Runs a grid of :class:`SweepTask` points, serial or multi-process."""

    def __init__(self, *, workers: int | None = None, base_seed: int = 0):
        if workers is None:
            workers = 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.base_seed = base_seed

    def _prepare(self, tasks: Sequence[SweepTask]) -> list[SweepTask]:
        prepared = []
        for index, task in enumerate(tasks):
            if task.inject_seed and "seed" not in task.kwargs:
                kwargs = dict(task.kwargs)
                kwargs["seed"] = point_seed(self.base_seed, index, task.key)
                task = SweepTask(task.fn, kwargs, task.key, False)
            prepared.append(task)
        return prepared

    def run(self, tasks: Iterable[SweepTask]) -> list[Any]:
        """Execute every task; results come back in task order."""
        prepared = self._prepare(list(tasks))
        if self.workers == 1 or len(prepared) <= 1:
            return [_run_task(task) for task in prepared]
        max_workers = min(self.workers, len(prepared))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            results = []
            try:
                results.extend(pool.map(_run_task, prepared))
            except BrokenProcessPool as error:
                # A worker that dies (``os._exit``, a signal, the OOM
                # killer) fails every unfinished point alike; the earliest
                # in grid order is the one it was running unless an
                # earlier point still ran beside it.
                index = len(results)
                raise BrokenProcessPool(
                    f"sweep task {prepared[index].key!r} (index {index}): "
                    "a pool worker died before the task returned"
                ) from error
            return results

    def map(
        self,
        fn: Callable[..., Any],
        kwargs_list: Sequence[dict[str, Any]],
        *,
        keys: Sequence[Any] | None = None,
        inject_seed: bool = False,
    ) -> list[Any]:
        """Shorthand: one task per kwargs dict, optional per-point keys."""
        if keys is not None and len(keys) != len(kwargs_list):
            raise ValueError("keys must match kwargs_list in length")
        tasks = [
            SweepTask(
                fn,
                kwargs,
                keys[index] if keys is not None else index,
                inject_seed,
            )
            for index, kwargs in enumerate(kwargs_list)
        ]
        return self.run(tasks)
