"""Extending the gateway with a user-defined middleware stage.

The gateway pipeline (see ``docs/middleware.md``) is deliberately open:
any object with a ``handle(request, next)`` method slots in anywhere via
``Gateway.use(stage, before=...)``.  This example adds a *logging* stage
that records one line per request — scheduler, disposition, wall time —
without touching any built-in stage, then shows it observing cold
solves, cache hits, a drifted instance solving cold again, and admission
shedding.

Run it::

    python examples/custom_middleware.py
"""

import time

from repro import ProblemInstance
from repro.gateway import (
    Gateway,
    Middleware,
    Request,
    deadline_in,
    default_pipeline,
)
from repro.workloads.generator import random_instance


class LoggingMiddleware(Middleware):
    """Log every request that passes through, with its outcome.

    Placement matters: above the cache it sees *every* request (hits
    included); below the cache it would see only the solves.  Here we
    install it outermost — above admission — so shed requests are
    logged too (admission answers shed requests without calling the
    stages below it).
    """

    name = "logging"

    def __init__(self):
        self.lines = []

    def handle(self, request: Request, next):
        start = time.perf_counter()
        response = next(request)
        elapsed = time.perf_counter() - start
        line = (
            f"[{self.name}] scheduler={response.scheduler:<12} "
            f"disposition={response.disposition:<15} "
            f"status={response.status:<10} {elapsed * 1e3:7.2f} ms"
        )
        self.lines.append(line)
        print(line)
        return response


def main() -> None:
    instance = random_instance(num_users=4, num_gpu_types=3, seed=7)

    gateway = Gateway(default_pipeline())
    logger = LoggingMiddleware()
    gateway.use(logger, before="admission")
    print("pipeline:", " -> ".join(stage.name for stage in gateway.pipeline))
    print()

    print("=== cold solve, then a cache hit ===")
    gateway.solve(instance, "oef-coop")
    gateway.solve(instance, "cooperative")  # alias; same content fingerprint

    print()
    print("=== a drifted instance is a new fingerprint: cold again ===")
    gateway.solve(instance, "oef-noncoop")
    drifted = ProblemInstance(instance.speedups, instance.capacities * 1.3)
    gateway.solve(drifted, "oef-noncoop")

    print()
    print("=== an expired deadline is shed before any work ===")
    gateway.solve(instance, "max-min", deadline=deadline_in(-1.0))

    print()
    stats = gateway.cache_info()
    print(
        f"cache: {stats.hits} hits / {stats.misses} misses; "
        f"logged {len(logger.lines)} request(s)"
    )


if __name__ == "__main__":
    main()
