"""Run the serving layer in-process and query it like a real client.

Starts a :class:`~repro.server.ReproServer` on an OS-assigned port
(2 shards, a 2-slot admission bound), then walks the wire protocol with
plain ``urllib`` — no client library required:

1. ``GET /healthz`` — liveness and shard fan-out;
2. ``POST /solve`` — one allocation, and the same request again to show
   the shard-local cache hit in the ``served`` telemetry;
3. ``POST /solve_batch`` — streaming NDJSON, results in completion
   order with their request index;
4. a burst of ``use_cache: false`` solves to trip admission control and
   show the ``429 Too Many Requests`` + ``Retry-After`` overload
   contract;
5. ``GET /metrics`` — per-shard cache/admission counters;
6. a graceful drain.

Run it::

    python examples/serve_and_query.py
"""

import asyncio
import json
import threading
import urllib.error
import urllib.request

from repro.core.serialization import instance_to_dict
from repro.server import ReproServer
from repro.workloads.generator import random_instance


def post(url: str, payload: dict):
    """POST JSON; returns (status, headers, parsed-or-raw body)."""
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def get(url: str):
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read())


async def main() -> None:
    server = ReproServer(
        "127.0.0.1", 0, shards=2, pipeline="default", max_in_flight=2
    )
    await server.start()
    base = f"http://127.0.0.1:{server.port}"
    print(f"serving on {base} ({server.pool!r})\n")

    # urllib is blocking, so query from a worker thread while the
    # server's event loop keeps running here
    def client() -> None:
        print("== GET /healthz ==")
        health = get(f"{base}/healthz")
        print(f"  status={health['status']} shards={health['shards']}\n")

        instance = random_instance(num_users=4, num_gpu_types=3, seed=7)
        body = {"instance": instance_to_dict(instance), "scheduler": "oef-coop"}

        print("== POST /solve (cold, then the cache hit) ==")
        for _ in range(2):
            status, _, raw = post(f"{base}/solve", body)
            payload = json.loads(raw)
            served = payload["served"]
            print(
                f"  {status} disposition={served['disposition']:<9} "
                f"solve_seconds={served['solve_seconds']:.4f} "
                f"fingerprint={payload['fingerprint'][:12]}..."
            )
        print()

        print("== POST /solve_batch (streaming NDJSON) ==")
        batch = {
            "requests": [
                {
                    "instance": instance_to_dict(
                        random_instance(4, 3, seed=seed)
                    )
                }
                for seed in range(4)
            ]
        }
        status, _, raw = post(f"{base}/solve_batch", batch)
        for line in raw.splitlines():
            row = json.loads(line)
            # a shed item streams the typed error body, which has no status
            status = row["status"] if "status" in row else row["error"]["code"]
            print(f"  index={row['index']} shard={row['shard']} status={status}")
        print()

        print("== overload: burst of cold solves vs 2 admission slots ==")
        cold = [
            {
                "instance": instance_to_dict(random_instance(8, 4, seed=seed)),
                "use_cache": False,
            }
            for seed in range(8)
        ]
        outcomes = []

        def one(body: dict) -> None:
            status, headers, raw = post(f"{base}/solve", body)
            retry = headers.get("Retry-After")
            outcomes.append((status, retry, raw))

        threads = [threading.Thread(target=one, args=(b,)) for b in cold]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ok = sum(1 for status, _, _ in outcomes if status == 200)
        shed = [(r, raw) for status, r, raw in outcomes if status == 429]
        print(f"  {ok} solved, {len(shed)} shed with 429")
        if shed:
            retry_after, raw = shed[0]
            error = json.loads(raw)["error"]
            print(
                f"  Retry-After: {retry_after}s "
                f"(exact hint {error['retry_after_s']:.3f}s, "
                f"disposition {error['disposition']})"
            )
        print()

        print("== GET /metrics ==")
        metrics = get(f"{base}/metrics")
        totals = metrics["totals"]
        print(
            f"  dispatched={totals['dispatched']} "
            f"cache_hits={totals['cache_hits']} "
            f"shed_capacity={totals['shed_capacity']}"
        )
        for row in metrics["shards"]:
            print(
                f"  shard {row['shard']}: dispatched={row['dispatched']} "
                f"hits={row['cache_hits']} entries={row['cache_entries']}"
            )

    await asyncio.to_thread(client)
    print("\ndraining ...")
    await server.stop()
    final = server.final_metrics
    print(
        f"drained; final counters: "
        f"{final['server']['requests_by_status']}"
    )


if __name__ == "__main__":
    asyncio.run(main())
