"""Execution backends: one record for serial/thread/process fan-out.

Everything in this repo that loops over *independent* units of work —
batch solves and frontier sweeps in :class:`~repro.gateway.Gateway`, the
paper experiments, Monte-Carlo seed sweeps of the cluster simulator,
fleet regions — funnels through a :class:`Backend`.  A backend is just
an ordered ``map``: it takes a callable and a list of items and returns
the results in input order, fanning the calls out to worker threads or
processes when that helps.

Backends are resolved by name, and only by :func:`get_backend`::

    from repro.parallel import get_backend

    backend = get_backend("process", max_workers=4)
    results = backend.map(solve_one, instances)

``"serial"`` runs inline (zero overhead, always safe), ``"thread"`` uses
a :class:`~concurrent.futures.ThreadPoolExecutor` (shared memory, GIL
applies — fine when the work releases the GIL or is I/O bound),
``"process"`` uses the one warm process pool (true CPU parallelism,
requires picklable functions and arguments), and ``"auto"`` picks
processes when the machine has more than one core and there is more
than one item, serial otherwise.

``get_backend(..., payload=work)`` applies the one degrade rule: a
process backend whose payload does not pickle becomes threads, with a
:class:`RuntimeWarning`.  Gateway *solves* are the exception to
processes: they share one in-process pipeline and release the GIL
inside the LP solver, so :meth:`repro.gateway.Gateway.solve_batch` maps
over threads only.

Execution contract
------------------
* **Ordering** — ``map`` and ``imap`` always return/yield results in
  input order, whatever order the workers finish in; callers can zip
  results against inputs on every backend.
* **Errors** — a raising work item propagates its exception to the
  caller (from ``map`` on collection, from ``imap`` at the failing
  item's position); the items not yet started are cancelled.
* **Sizing** — ``max_workers`` defaults to one worker per usable core
  (CPU-affinity aware), at most ``max_workers`` items run at once, and
  single-item maps run inline with zero pool overhead.  A process map on
  an executor forked for its own worker count queues every item at once,
  so a worker takes its next item from the executor's queue without a
  round trip through the parent; on a larger executor the map holds at
  most ``max_workers`` items unfinished and tops up as they finish.
* **State** — every process map runs on one executor that later maps in
  the same interpreter reuse while :data:`~repro.registry.REGISTRY`'s
  generation stands.  Its workers hold what the parent held when it was
  forked, so a later monkeypatch or module edit reaches them only after
  :func:`shutdown_shared_pool`; a task naming an object the parent
  created after the fork is retried once on a fresh fork.

Thread-safety of the *work itself* is the caller's contract.  For
schedulers it is declared once, as the registry's ``parallel_safe``
flag, and enforced once, by the gateway's terminal solver stage — see
:mod:`repro.registry`.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar

from repro.exceptions import ValidationError
from repro.registry import REGISTRY

T = TypeVar("T")
R = TypeVar("R")

#: Names accepted by :func:`get_backend`.
BACKEND_NAMES = ("auto", "serial", "thread", "process")

BackendSpec = Optional[str]


def cpu_count() -> int:
    """Usable CPU count (≥ 1), honouring CPU affinity where available."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class _Stale:
    """A warm worker's answer for a task it cannot unpickle: the task names
    an object the parent created after the worker was forked."""


def _run_pickled(blob: bytes, fresh: bool):
    """Worker entry: unpickle ``(fn, item)`` and run it.  A warm worker
    hands back :class:`_Stale` for what it cannot unpickle; a ``fresh``
    fork raises the unpickling error instead."""
    try:
        fn, item = pickle.loads(blob)
    except (AttributeError, ImportError):
        if fresh:
            raise
        return _Stale()
    return fn(item)


_shared_lock = threading.Lock()
_shared_pool: Optional[ProcessPoolExecutor] = None
_shared_key: tuple = ()  # (workers, pid, generation) it was forked for


def _submit(blobs: List[bytes], workers: int, room: int, retire=None):
    """Submit tasks to the shared executor, first re-forking it when it is
    ``retire``, broken, too small, another pid's or of another registry
    generation (under the lock, so no caller retires it between build and
    submit).  An executor forked for ``workers`` takes every blob, as its
    own queue keeps the cap; a larger one takes the first ``room``.
    Returns the executor and one future per submitted blob."""
    global _shared_pool, _shared_key
    pid = os.getpid()
    with _shared_lock:
        pool = _shared_pool
        size, owner, built_for = _shared_key or (0, pid, REGISTRY.generation)
        if pool is None or pool is retire or pool._broken or size < workers \
                or (owner, built_for) != (pid, REGISTRY.generation):
            if pool is not None and owner == pid:  # never a parent's pool
                pool.shutdown(wait=True)
            pool = _shared_pool = ProcessPoolExecutor(workers)
            size, _shared_key = workers, (workers, pid, REGISTRY.generation)
        if size > workers:
            blobs = blobs[:room]
        return pool, [pool.submit(_run_pickled, blob, retire is not None) for blob in blobs]


def _warm_imap(fn: Callable[[T], R], items: List[T], workers: int) -> Iterator[R]:
    """Ordered ``fn`` over ``items`` on the shared executor, at most
    ``workers`` in flight: all queued at once on an executor of that size,
    topped up as they finish on a larger one.  A dead worker discards the
    executor (``BrokenProcessPool``)."""
    blobs = [pickle.dumps((fn, item)) for item in items]
    runs: list = []  # (executor, future) per submitted item, in input order

    def top_up():
        room = workers - sum(not future.done() for _, future in runs)
        if room > 0 and len(runs) < len(blobs):
            pool, futures = _submit(blobs[len(runs):], workers, room)
            runs.extend((pool, future) for future in futures)

    try:
        for index, blob in enumerate(blobs):
            top_up()
            pool, future = runs[index]
            while not future.done():
                wait([f for _, f in runs if not f.done()], return_when=FIRST_COMPLETED)
                top_up()
            result = future.result()
            if isinstance(result, _Stale):  # once, on a pool forked after this one
                result = _submit([blob], workers, 1, retire=pool)[1][0].result()
            yield result
    except BrokenProcessPool:
        shutdown_shared_pool()
        raise
    finally:
        for _, future in runs:
            future.cancel()


def shutdown_shared_pool() -> None:
    """Shut the shared process executor down, if there is one."""
    global _shared_pool
    with _shared_lock:
        pool, _shared_pool = _shared_pool, None
        if pool is not None and _shared_key[1] == os.getpid():
            pool.shutdown(wait=True)


@dataclass(frozen=True)
class Backend:
    """An ordered ``map`` over independent work items, run inline
    (``"serial"``), on threads (``"thread"``) or on the shared process
    executor (``"process"``).  Build one with :func:`get_backend`."""

    name: str
    max_workers: int

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return list(self.imap(fn, items))

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        """Like :meth:`map`, but yields each result as soon as it — and
        everything before it — has finished (results stay in input order).
        Lets callers stream output while later items are still running.
        Inline it is lazy: item N+1 does not start until result N has
        been consumed."""
        items = items if self.name == "serial" else list(items)
        if self.name == "serial" or len(items) <= 1:
            yield from map(fn, items)
            return
        workers = min(self.max_workers, len(items))
        if self.name == "thread":
            with ThreadPoolExecutor(workers) as pool:
                yield from pool.map(fn, items)
        else:
            yield from _warm_imap(fn, items, workers)


def get_backend(
    spec: BackendSpec = "auto",
    max_workers: Optional[int] = None,
    *,
    task_count: Optional[int] = None,
    payload: object = None,
) -> Backend:
    """Resolve a backend name to a :class:`Backend`.

    ``"auto"`` (or ``None``) picks ``"process"`` when the machine has
    more than one usable core *and* the caller reports more than one task
    (``task_count``, default: assume many); otherwise the fan-out cannot
    pay for itself and a one-worker ``"serial"`` backend is returned.
    ``max_workers`` defaults to one per core (one for ``"serial"``).

    ``payload`` is the work about to be mapped: when the resolved backend
    is ``"process"`` and the payload does not pickle, a same-sized
    ``"thread"`` backend is returned instead, with a
    :class:`RuntimeWarning` attributed to the caller's caller.
    """
    name = "auto" if spec is None else str(spec).lower()
    if name not in BACKEND_NAMES:
        raise ValidationError(
            f"unknown execution backend {spec!r}; choose from {BACKEND_NAMES}"
        )
    if max_workers is not None and max_workers < 1:
        raise ValidationError("max_workers must be >= 1")
    if name == "auto":
        many_tasks = task_count is None or task_count > 1
        if (max_workers or cpu_count()) > 1 and cpu_count() > 1 and many_tasks:
            name = "process"
        else:
            name, max_workers = "serial", None
    workers = max_workers or (1 if name == "serial" else cpu_count())
    if name == "process" and payload is not None:
        try:
            pickle.dumps(payload)
        except Exception:
            warnings.warn(
                "the work is not picklable; falling back to the thread backend "
                "(define factories/builders at module level to use processes)",
                RuntimeWarning,
                stacklevel=3,
            )
            name = "thread"
    return Backend(name, workers)


__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "BackendSpec",
    "cpu_count",
    "get_backend",
    "shutdown_shared_pool",
]
