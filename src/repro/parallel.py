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
* **State** — backends are stateless between calls: each ``map`` builds
  and tears down its own executor, so a backend instance may be shared
  freely across threads.

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
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
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


class ExecutionBackend:
    """Ordered ``map`` over independent work items."""

    name: str = "abstract"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = default_workers(max_workers)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        raise NotImplementedError

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        """Like :meth:`map`, but yields each result as soon as it — and
        everything before it — has finished (results stay in input order).
        Lets callers stream output while later items are still running.
        The base implementation is lazy: item N+1 does not start until
        result N has been consumed."""
        for item in items:
            yield fn(item)

    def _effective_workers(self, items: Sequence) -> int:
        return max(1, min(self.max_workers, len(items)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class SerialBackend(ExecutionBackend):
    """Run everything inline in the calling thread (always safe)."""

    name = "serial"

    def __init__(self, max_workers: Optional[int] = None):
        super().__init__(1 if max_workers is None else max_workers)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [fn(item) for item in items]


class ThreadBackend(ExecutionBackend):
    """Fan out to a thread pool: shared memory, no pickling required.

    The GIL serialises pure-Python sections, so the win comes from work
    that releases it (numpy/scipy kernels, subprocesses, I/O).
    """

    name = "thread"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(self._effective_workers(items)) as pool:
            return list(pool.map(fn, items))

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        return _pool_imap(ThreadPoolExecutor, self, fn, items)


class ProcessBackend(ExecutionBackend):
    """Fan out to a process pool: true CPU parallelism.

    ``fn`` must be a module-level callable and every item picklable; use
    :func:`probe_picklable` to test payloads and degrade instead of
    crashing mid-batch.
    """

    name = "process"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(self._effective_workers(items)) as pool:
            return list(pool.map(fn, items))

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        return _pool_imap(ProcessPoolExecutor, self, fn, items)


def _pool_imap(executor_cls, backend: ExecutionBackend, fn, items) -> Iterator:
    """Shared imap: submit everything, yield results in input order."""
    items = list(items)
    if len(items) <= 1:
        for item in items:
            yield fn(item)
        return
    with executor_cls(backend._effective_workers(items)) as pool:
        futures = [pool.submit(fn, item) for item in items]
        for future in futures:
            yield future.result()


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
]
