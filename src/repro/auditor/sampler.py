"""The seeded hash sampler gating what the audit stage captures.

Sampling must be three things at once:

* **cheap** — it runs on the gateway hot path, inside every audited
  request's latency;
* **deterministic** — the differential and property tests replay the
  same traffic and must see the same sampled subset, whatever thread or
  shard the request landed on; and
* **monotone in the rate** — raising the sampling rate must only *add*
  audited keys, never swap the subset, so operators can dial coverage
  up or down without losing trend continuity per instance.

A stateful counter or RNG stream gives none of these under concurrency,
so the sampler is a pure hash threshold: a key ``fingerprint:scheduler``
is admitted iff the first 8 bytes of ``sha256(seed:key)``, read as a
fraction of 2^64, fall below ``rate``.  The decision depends only on
``(seed, key, rate)``; admission at rate *r* implies admission at every
rate *r' >= r* (same hash point, higher threshold).  Decisions are
memoized in a bounded dict so the steady-state hot-path cost is one
dictionary lookup, not a SHA-256.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict

#: Memoized admit decisions kept per sampler (repeat solves of the same
#: instance re-ask the same question; the answer never changes).
_MAX_CACHED_DECISIONS = 4096

_HASH_SPAN = float(2**64)


def _hash_point(seed: int, key: str) -> float:
    digest = hashlib.sha256(f"{seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / _HASH_SPAN


class AuditSampler:
    """Deterministic, rate-limited admission for the audit stage."""

    def __init__(self, rate: float = 1.0, seed: int = 0):
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sampling rate must be in [0, 1], got {rate!r}")
        self.rate = rate
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._decisions: Dict[str, bool] = {}
        self.offered = 0
        self.admitted = 0

    def would_admit(self, fingerprint: str, scheduler: str) -> bool:
        """The pure decision, no counters — what the property tests probe."""
        if self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        return _hash_point(self.seed, f"{fingerprint}:{scheduler}") < self.rate

    def admit(self, fingerprint: str, scheduler: str) -> bool:
        """Counted hot-path decision; memoized per ``fingerprint:scheduler``."""
        key = f"{fingerprint}:{scheduler}"
        with self._lock:
            self.offered += 1
            decision = self._decisions.get(key)
            if decision is None:
                decision = self.would_admit(fingerprint, scheduler)
                if len(self._decisions) >= _MAX_CACHED_DECISIONS:
                    self._decisions.clear()
                self._decisions[key] = decision
            if decision:
                self.admitted += 1
            return decision

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "rate": self.rate,
                "seed": self.seed,
                "offered": self.offered,
                "admitted": self.admitted,
            }

    def reset(self) -> None:
        with self._lock:
            self._decisions.clear()
            self.offered = 0
            self.admitted = 0

    def __repr__(self) -> str:
        return f"AuditSampler(rate={self.rate}, seed={self.seed})"


__all__ = ["AuditSampler"]
