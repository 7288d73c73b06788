"""Execution backends: one abstraction for serial/thread/process fan-out.

Everything in this repo that loops over *independent* units of work —
batch solves and frontier sweeps in :class:`~repro.gateway.Gateway`, the
paper experiments, Monte-Carlo seed sweeps of the cluster simulator,
fleet regions — funnels through an :class:`ExecutionBackend`.  A backend
is just an ordered ``map``: it takes a callable and a list of items and
returns the results in input order, fanning the calls out to worker
threads or processes when that helps.

Backends are selected by name::

    from repro.parallel import get_backend

    backend = get_backend("process", max_workers=4)
    results = backend.map(solve_one, instances)

``"serial"`` runs inline (zero overhead, always safe), ``"thread"`` uses
a :class:`~concurrent.futures.ThreadPoolExecutor` (shared memory, GIL
applies — fine when the work releases the GIL or is I/O bound),
``"process"`` uses a :class:`~concurrent.futures.ProcessPoolExecutor`
(true CPU parallelism, requires picklable functions and arguments), and
``"auto"`` picks processes when the machine has more than one core and
there is more than one item, serial otherwise.

Process pools need picklable payloads.  :func:`probe_picklable` tests
one up front, and ``get_backend(..., payload=work)`` applies the one
degrade rule — process → threads with a :class:`RuntimeWarning` — for
the frontier, seed-sweep and fleet fan-outs, whose work is GIL-bound
Python.  Gateway *solves* are the exception: they share one in-process
pipeline and release the GIL inside the LP solver, so
:meth:`repro.gateway.Gateway.solve_batch` maps over threads only.

Execution contract
------------------
* **Ordering** — ``map`` and ``imap`` always return/yield results in
  input order, whatever order the workers finish in; callers can zip
  results against inputs on every backend.
* **Errors** — a raising work item propagates its exception to the
  caller (from ``map`` on collection, from ``imap`` at the failing
  item's position); remaining futures are cancelled or drained by the
  pool's context manager, never leaked.
* **Sizing** — ``max_workers`` defaults to one worker per usable core
  (CPU-affinity aware), and pools never start more workers than items;
  single-item maps run inline with zero pool overhead.
* **State** — each ``map`` builds and tears down its own executor, so a
  backend may be shared across threads.  The exception is the fleet's
  region fan-out, which reuses :func:`warm_map`'s executor across runs:
  its warm workers hold what the parent held when it was forked, so a
  later monkeypatch or module edit reaches them only after
  :func:`shutdown_shared_pool`.

Usage::

    from repro.parallel import get_backend, parallel_map

    backend = get_backend("process", max_workers=4)
    results = backend.map(solve_one, instances)          # input order
    squares = parallel_map(lambda x: x * x, range(8))    # one-shot "auto"

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
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.exceptions import ValidationError

T = TypeVar("T")
R = TypeVar("R")

#: Names accepted by :func:`get_backend` (besides backend instances).
BACKEND_NAMES = ("auto", "serial", "thread", "process")


def cpu_count() -> int:
    """Usable CPU count (≥ 1), honouring CPU affinity where available."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_workers(max_workers: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value, else one per core."""
    if max_workers is not None:
        if max_workers < 1:
            raise ValidationError("max_workers must be >= 1")
        return max_workers
    return cpu_count()


def probe_picklable(payload: object) -> bool:
    """True when ``payload`` survives a round trip through pickle.

    Used to decide whether work can be shipped to a process pool; callers
    fall back to a thread/serial backend when it cannot.
    """
    try:
        pickle.dumps(payload)
        return True
    except Exception:
        return False


_shared_lock = threading.Lock()
_shared_pool: Optional[ProcessPoolExecutor] = None
_shared_key: tuple = ()  # (workers, pid, generation) it was forked for


def _submit_shared(fn, items: list, workers: int, generation: int, fresh: bool):
    """Submit to the shared executor, first re-forking it when ``fresh``,
    broken, too small, another pid's or of another ``generation`` (under
    the lock, so no caller retires it between build and submit)."""
    global _shared_pool, _shared_key
    pid = os.getpid()
    with _shared_lock:
        pool = _shared_pool
        size, owner, built_for = _shared_key or (0, pid, generation)
        if pool is None or fresh or pool._broken or size < workers \
                or (owner, built_for) != (pid, generation):
            if pool is not None and owner == pid:  # never a parent's pool
                pool.shutdown(wait=True)
            pool = _shared_pool = ProcessPoolExecutor(workers)
            _shared_key = (workers, pid, generation)
        return [pool.submit(fn, item) for item in items]


def warm_map(fn: Callable[[T], R], items: Iterable[T], workers: int,
             generation: int) -> List[Optional[R]]:
    """Ordered ``fn`` over ``items`` on one process-wide executor that
    later calls reuse while its ``generation`` stands.  Items ``fn``
    answers ``None`` (work a warm worker cannot take) re-run once on a
    fresh fork; a dead worker discards the pool (``BrokenProcessPool``).
    """
    items = list(items)
    workers = max(1, min(workers, len(items)))
    try:
        futures = _submit_shared(fn, items, workers, generation, False)
        results = [future.result() for future in futures]
        stale = [index for index, result in enumerate(results) if result is None]
        if stale:
            retried = [items[index] for index in stale]
            futures = _submit_shared(fn, retried, workers, generation, True)
            for index, future in zip(stale, futures):
                results[index] = future.result()
    except BrokenProcessPool:
        shutdown_shared_pool()
        raise
    return results


def shutdown_shared_pool() -> None:
    """Shut the :func:`warm_map` executor down, if there is one."""
    global _shared_pool
    with _shared_lock:
        pool, _shared_pool = _shared_pool, None
        if pool is not None and _shared_key[1] == os.getpid():
            pool.shutdown(wait=True)


class ExecutionBackend:
    """Ordered ``map`` over independent work items, on ``executor``'s
    workers (inline when it is ``None`` or there is one item)."""

    name: str = "abstract"
    executor: Optional[type] = None

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = default_workers(max_workers)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return list(self.imap(fn, items))

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        """Like :meth:`map`, but yields each result as soon as it — and
        everything before it — has finished (results stay in input order).
        Lets callers stream output while later items are still running.
        Inline it is lazy: item N+1 does not start until result N has
        been consumed."""
        items = items if self.executor is None else list(items)
        if self.executor is None or len(items) <= 1:
            yield from map(fn, items)
            return
        with self.executor(self._effective_workers(items)) as pool:
            yield from pool.map(fn, items)

    def _effective_workers(self, items: Sequence) -> int:
        return max(1, min(self.max_workers, len(items)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class SerialBackend(ExecutionBackend):
    """Run everything inline in the calling thread (always safe)."""

    name = "serial"

    def __init__(self, max_workers: Optional[int] = None):
        super().__init__(1 if max_workers is None else max_workers)


class ThreadBackend(ExecutionBackend):
    """Fan out to a thread pool: shared memory, no pickling required.

    The GIL serialises pure-Python sections, so the win comes from work
    that releases it (numpy/scipy kernels, subprocesses, I/O).
    """

    name = "thread"
    executor = ThreadPoolExecutor


class ProcessBackend(ExecutionBackend):
    """Fan out to a process pool: true CPU parallelism.

    ``fn`` must be a module-level callable and every item picklable; use
    :func:`probe_picklable` to test payloads and degrade instead of
    crashing mid-batch.
    """

    name = "process"
    executor = ProcessPoolExecutor


BackendSpec = Union[str, ExecutionBackend, None]

_BACKEND_CLASSES = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}


def get_backend(
    spec: BackendSpec = "auto",
    max_workers: Optional[int] = None,
    *,
    task_count: Optional[int] = None,
    payload: object = None,
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    ``"auto"`` (or ``None``) picks :class:`ProcessBackend` when the
    machine has more than one usable core *and* the caller reports more
    than one task (``task_count``, default: assume many); otherwise the
    fan-out cannot pay for itself and :class:`SerialBackend` is returned.

    ``payload`` is the work about to be mapped: when the resolved backend
    is a process pool and the payload fails :func:`probe_picklable`, a
    same-sized :class:`ThreadBackend` is returned instead, with a
    :class:`RuntimeWarning` attributed to the caller's caller.
    """
    if isinstance(spec, ExecutionBackend):
        resolved = spec
    else:
        name = "auto" if spec is None else str(spec).lower()
        if name == "auto":
            workers = default_workers(max_workers)
            many_tasks = task_count is None or task_count > 1
            parallel = workers > 1 and cpu_count() > 1 and many_tasks
            resolved = ProcessBackend(max_workers) if parallel else SerialBackend()
        elif name in _BACKEND_CLASSES:
            resolved = _BACKEND_CLASSES[name](max_workers)
        else:
            raise ValidationError(
                f"unknown execution backend {spec!r}; choose from {BACKEND_NAMES}"
            )
    if (
        payload is not None
        and isinstance(resolved, ProcessBackend)
        and not probe_picklable(payload)
    ):
        warnings.warn(
            "the work is not picklable; falling back to the thread backend "
            "(define factories/builders at module level to use processes)",
            RuntimeWarning,
            stacklevel=3,
        )
        return ThreadBackend(resolved.max_workers)
    return resolved


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    backend: BackendSpec = "auto",
    max_workers: Optional[int] = None,
) -> List[R]:
    """One-shot convenience: resolve a backend and map over ``items``."""
    items = list(items)
    resolved = get_backend(backend, max_workers, task_count=len(items))
    return resolved.map(fn, items)


__all__ = [
    "BACKEND_NAMES",
    "BackendSpec",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "cpu_count",
    "default_workers",
    "get_backend",
    "parallel_map",
    "probe_picklable",
    "shutdown_shared_pool",
    "warm_map",
]
