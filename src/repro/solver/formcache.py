"""A process-wide cache of compiled :class:`StandardForm` objects.

``oef-noncoop``'s Eq. 9, ``efficiency-max``'s Eq. 4 and the frontier's
base program key their forms here by the **content** of the arrays that
determine the form (speedup matrix, capacities, options), so a repeated
question skips assembly.

``oef-coop``'s full Eq. 10 does not: its questions repeat too rarely to
pay for the key.  From a cleared cache, one run per recipe of the
benchmark's shapes (seeds 0-2, three recipes each) hit 9 of 460 lookups
on ``replay-churn`` (0.020) and 9 of 270 on ``fleet-failover`` (0.033),
while every lookup hashed the arrays' bytes; the program is built on a
per-shape skeleton instead (:func:`repro.core.cooperative.eq10_rows`).

Cached forms are shared between callers and must be treated as immutable
— every consumer in this repository already is (the solver reads, never
writes), which is what makes the sharing safe.

The cache is a small thread-safe LRU; eviction keeps memory bounded when
a fleet-scale sweep touches thousands of distinct instances (a key holds
its arrays' bytes: about 1.5 KiB at 32 users x 6 GPU types).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Tuple

import numpy as np

from repro.solver.form import StandardForm


def fingerprint_arrays(*arrays: np.ndarray, extra: Tuple = ()) -> Tuple:
    """Content key of numeric arrays plus a hashable ``extra`` tag.

    The key is the content itself, not a digest of it: ``extra``, then
    each array's ``dtype.str``, ``shape`` and C-order bytes, as one flat
    tuple.  The tag disambiguates builders that share array inputs (e.g.
    the same instance compiled by two allocators, or with different
    options).
    """
    key = [extra]
    for array in arrays:
        data = np.asarray(array)
        key += (data.dtype.str, data.shape, data.tobytes())
    return tuple(key)


class FormCache:
    """Thread-safe LRU of compiled standard forms keyed by fingerprint."""

    def __init__(self, maxsize: int = 128):
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, StandardForm]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get_or_build(
        self, key: Hashable, builder: Callable[[], StandardForm]
    ) -> StandardForm:
        """Cached form for ``key``, building (outside the lock) on a miss."""
        with self._lock:
            form = self._entries.get(key)
            if form is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return form
            self.misses += 1
        form = builder()
        with self._lock:
            self._entries[key] = form
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return form

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Shared instance used by the allocators' direct form builders.
FORM_CACHE = FormCache()

__all__ = ["FORM_CACHE", "FormCache", "fingerprint_arrays"]
