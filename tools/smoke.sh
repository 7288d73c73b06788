#!/usr/bin/env bash
# End-to-end CLI smoke test, suitable as a CI gate:
#   demo -> allocate -> audit -> compare -> frontier -> list-schedulers
# runs against a temp dir and fails on the first broken command.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

PY="${PYTHON:-python}"

# wait_port LOG: the port a backgrounded `repro serve` printed to LOG on
# startup (port 0 = OS-assigned).  Create LOG before starting the server:
# its redirection may not have created the file by the first poll.
wait_port() {
    local port=""
    for _ in $(seq 1 50); do
        port="$(sed -n 's/.*http:\/\/127\.0\.0\.1:\([0-9]*\).*/\1/p' "$1" | head -1)"
        [ -n "$port" ] && break
        sleep 0.1
    done
    [ -n "$port" ] && echo "$port"
}

echo "== repro --version =="
"$PY" -m repro --version

echo "== repro demo =="
"$PY" -m repro demo --output "$TMP/instance.json"
test -s "$TMP/instance.json"

echo "== repro allocate =="
"$PY" -m repro allocate "$TMP/instance.json" --scheduler oef-coop \
    --output "$TMP/allocation.json"
test -s "$TMP/allocation.json"
grep -q '"allocator": "oef-coop"' "$TMP/allocation.json"

echo "== repro allocate (missing instance file: error:, exit 2, no traceback) =="
status=0
"$PY" -m repro allocate "$TMP/missing.json" > "$TMP/missing.txt" 2>&1 || status=$?
test "$status" -eq 2
grep -q "^error: .*missing.json" "$TMP/missing.txt"
if grep -q "Traceback" "$TMP/missing.txt"; then
    echo "a missing instance file ended in a traceback" >&2
    exit 1
fi

echo "== repro audit (registry audit defaults) =="
"$PY" -m repro audit "$TMP/instance.json" --scheduler oef-coop --sp-trials 1 \
    | tee "$TMP/audit.txt"
grep -q "oef-coop" "$TMP/audit.txt"

echo "== repro audit (PE outside the allocation's domain answers, exit 0) =="
"$PY" -m repro audit "$TMP/instance.json" --scheduler efficiency-max \
    --pe-within envy_free --sp-trials 1 | tee "$TMP/audit_out_of_domain.txt"
grep -q "efficiency-max" "$TMP/audit_out_of_domain.txt"

echo "== repro compare =="
"$PY" -m repro compare "$TMP/instance.json" | tee "$TMP/compare.txt"
grep -q "oef-noncoop" "$TMP/compare.txt"
grep -q "gavel" "$TMP/compare.txt"

echo "== repro frontier =="
"$PY" -m repro frontier "$TMP/instance.json" --alphas 0,0.5,1 \
    | tee "$TMP/frontier.txt"
grep -q "alpha" "$TMP/frontier.txt"

echo "== repro frontier (thread backend) =="
"$PY" -m repro frontier "$TMP/instance.json" --alphas 0,0.5,1 \
    --backend thread --jobs 2 | tee "$TMP/frontier_thread.txt"
diff "$TMP/frontier.txt" "$TMP/frontier_thread.txt"

echo "== repro frontier (process backend) =="
"$PY" -m repro frontier "$TMP/instance.json" --alphas 0,0.5,1 \
    --backend process --jobs 2 | tee "$TMP/frontier_process.txt"
diff "$TMP/frontier.txt" "$TMP/frontier_process.txt"

echo "== repro solve --pipeline default vs --pipeline bare (gateway gate) =="
"$PY" -m repro solve "$TMP/instance.json" --scheduler oef-coop \
    --pipeline default --output "$TMP/alloc_default.json"
"$PY" -m repro solve "$TMP/instance.json" --scheduler oef-coop \
    --pipeline bare --output "$TMP/alloc_bare.json"
# the middleware pipeline must be allocation-transparent: identical JSON
diff "$TMP/alloc_default.json" "$TMP/alloc_bare.json"

echo "== repro list-middleware =="
"$PY" -m repro list-middleware | tee "$TMP/middleware.txt"
for stage in admission metrics coalesce cache solver; do
    grep -q "$stage" "$TMP/middleware.txt"
done

echo "== repro experiments (2 jobs) =="
"$PY" -m repro experiments fig1 fig6 --jobs 2 --backend thread \
    | tee "$TMP/experiments.txt"
grep -q "2/2 passed" "$TMP/experiments.txt"

echo "== repro simulate (scenario smoke) =="
"$PY" -m repro simulate --scenario bursty --rounds 3 \
    | tee "$TMP/simulate.txt"
grep -q "bursty" "$TMP/simulate.txt"
grep -q "jobs done" "$TMP/simulate.txt"
grep -q "warm-started" "$TMP/simulate.txt"

echo "== repro simulate --cold (differential gate) =="
"$PY" -m repro simulate --scenario bursty --rounds 3 --cold \
    | tee "$TMP/simulate_cold.txt"
grep -q "warm-start disabled" "$TMP/simulate_cold.txt"
# warm and cold replays must produce identical summary tables
grep "^bursty" "$TMP/simulate.txt" > "$TMP/warm_row.txt"
grep "^bursty" "$TMP/simulate_cold.txt" > "$TMP/cold_row.txt"
diff "$TMP/warm_row.txt" "$TMP/cold_row.txt"

echo "== repro simulate tenant-churn, memo vs --cold (canonical-row gate) =="
# same-model tenants fold into one LP group and a finished job leaves its
# tenant's profile bytes alone; the memo must still replay what cold solves
"$PY" -m repro simulate --scenario tenant-churn --rounds 12 \
    | tee "$TMP/churn.txt"
"$PY" -m repro simulate --scenario tenant-churn --rounds 12 --cold \
    | tee "$TMP/churn_cold.txt"
grep -q "warm-started" "$TMP/churn.txt"
grep -q "warm-start disabled" "$TMP/churn_cold.txt"
grep "^tenant-churn" "$TMP/churn.txt" > "$TMP/churn_row.txt"
grep "^tenant-churn" "$TMP/churn_cold.txt" > "$TMP/churn_cold_row.txt"
test -s "$TMP/churn_row.txt"
diff "$TMP/churn_row.txt" "$TMP/churn_cold_row.txt"

echo "== repro simulate steady, memo vs --cold (shared memo entries gate) =="
# nearly every steady round is a memo hit that hands out the entry's own
# read-only arrays; the row must still match a replay that solves cold
"$PY" -m repro simulate --scenario steady --rounds 24 \
    | tee "$TMP/steady.txt"
"$PY" -m repro simulate --scenario steady --rounds 24 --cold \
    | tee "$TMP/steady_cold.txt"
grep -q "warm-started" "$TMP/steady.txt"
grep -q "warm-start disabled" "$TMP/steady_cold.txt"
grep "^steady" "$TMP/steady.txt" > "$TMP/steady_row.txt"
grep "^steady" "$TMP/steady_cold.txt" > "$TMP/steady_cold_row.txt"
test -s "$TMP/steady_row.txt"
diff "$TMP/steady_row.txt" "$TMP/steady_cold_row.txt"

echo "== repro simulate seed sweep, serial vs process (shared pool gate) =="
"$PY" -m repro simulate --scenario steady --rounds 4 --seeds 1 2 \
    --backend serial | tee "$TMP/sweep_serial.txt"
"$PY" -m repro simulate --scenario steady --rounds 4 --seeds 1 2 \
    --backend process --jobs 2 | tee "$TMP/sweep_process.txt"
grep "^steady" "$TMP/sweep_serial.txt" > "$TMP/sweep_serial_rows.txt"
grep "^steady" "$TMP/sweep_process.txt" > "$TMP/sweep_process_rows.txt"
test -s "$TMP/sweep_serial_rows.txt"
diff "$TMP/sweep_serial_rows.txt" "$TMP/sweep_process_rows.txt"

echo "== repro list-scenarios =="
"$PY" -m repro list-scenarios | tee "$TMP/scenarios.txt"
for name in steady bursty diurnal tenant-churn philly-replay \
        spot-preemption hetero-generations multiregion-failover tenant-swarm; do
    grep -q "$name" "$TMP/scenarios.txt"
done
grep -q "family" "$TMP/scenarios.txt"

echo "== repro fleet-sim (fleet-smoke: 4 regions, streamed metrics) =="
"$PY" -m repro fleet-sim --scenario multiregion-failover --regions 4 \
    --metrics "$TMP/fleet.jsonl" | tee "$TMP/fleet.txt"
test -s "$TMP/fleet.jsonl"
grep -q '"schema": "repro/fleetmetrics-v1"' "$TMP/fleet.jsonl"
grep -q "fairness violations: 0" "$TMP/fleet.txt"
grep -q "fleet fingerprint:" "$TMP/fleet.txt"
# the thread backend must replay the identical fleet
"$PY" -m repro fleet-sim --scenario multiregion-failover --regions 4 \
    --backend thread --jobs 4 --metrics "$TMP/fleet2.jsonl" \
    | tee "$TMP/fleet_thread.txt"
grep "fleet fingerprint:" "$TMP/fleet.txt" > "$TMP/fp_serial.txt"
grep "fleet fingerprint:" "$TMP/fleet_thread.txt" > "$TMP/fp_thread.txt"
diff "$TMP/fp_serial.txt" "$TMP/fp_thread.txt"
# so must the process backend's warm pool, and it must not hang exit
timeout 60 "$PY" -m repro fleet-sim --scenario multiregion-failover --regions 4 \
    --backend process --metrics "$TMP/fleet3.jsonl" | tee "$TMP/fleet_process.txt"
diff "$TMP/fp_serial.txt" <(grep "fleet fingerprint:" "$TMP/fleet_process.txt")

echo "== repro fleet-sim (weighted tenants: serial vs the default backend) =="
# quota rebalancing is the only weighted-tenant path the CLI reaches; the
# backend the CLI picks by default must replay what the serial one does
"$PY" -m repro fleet-sim --scenario multiregion-failover --regions 2 --rounds 8 \
    --backend serial | tee "$TMP/fleet_w_serial.txt"
"$PY" -m repro fleet-sim --scenario multiregion-failover --regions 2 --rounds 8 \
    | tee "$TMP/fleet_w_default.txt"
grep -q "fairness violations: 0" "$TMP/fleet_w_serial.txt"
grep -q "fairness violations: 0" "$TMP/fleet_w_default.txt"
diff <(grep "fleet fingerprint:" "$TMP/fleet_w_serial.txt") \
    <(grep "fleet fingerprint:" "$TMP/fleet_w_default.txt")

echo "== repro fleet-sim (sharded cluster scenario: serial vs process) =="
# each process worker builds its own shard from the base scenario
"$PY" -m repro fleet-sim --scenario tenant-churn --regions 3 --rounds 6 \
    --backend serial | tee "$TMP/fleet_shard_serial.txt"
timeout 60 "$PY" -m repro fleet-sim --scenario tenant-churn --regions 3 --rounds 6 \
    --backend process | tee "$TMP/fleet_shard_process.txt"
diff <(grep "fleet fingerprint:" "$TMP/fleet_shard_serial.txt") \
    <(grep "fleet fingerprint:" "$TMP/fleet_shard_process.txt")

echo "== repro ingest-trace -> trace:<name> replay =="
printf 'jobid,user,submit_time,run_time,gpus\nj1,vc-a,0,3600,1\nj2,vc-b,600,1800,2\nj3,vc-a,1200,3600,1\n' \
    > "$TMP/jobs.csv"
REPRO_TRACE_DIR="$TMP/traces" "$PY" -m repro ingest-trace "$TMP/jobs.csv" \
    --name ops | tee "$TMP/ingest.txt"
grep -q "ingested 3 jobs" "$TMP/ingest.txt"
REPRO_TRACE_DIR="$TMP/traces" "$PY" -m repro simulate --scenario trace:ops \
    --rounds 6 | tee "$TMP/trace_sim.txt"
grep -q "trace:ops" "$TMP/trace_sim.txt"
# unknown traces fail with a typed error and a non-zero exit
if REPRO_TRACE_DIR="$TMP/traces" "$PY" -m repro simulate \
    --scenario trace:ghost > "$TMP/trace_err.txt" 2>&1; then
    echo "unknown trace did not fail" >&2
    exit 1
fi
grep -q "trace" "$TMP/trace_err.txt"
# a corrupt stored line is a typed error too: "error:", exit 2, no traceback
echo '{"schema": "repro/trace-v1", "job_id": "j9"}' >> "$TMP/traces/ops.jsonl"
status=0
REPRO_TRACE_DIR="$TMP/traces" "$PY" -m repro simulate --scenario trace:ops \
    > "$TMP/trace_corrupt.txt" 2>&1 || status=$?
test "$status" -eq 2
grep -q "^error: .*ops.jsonl:4: tenant" "$TMP/trace_corrupt.txt"
if grep -q "Traceback" "$TMP/trace_corrupt.txt"; then
    echo "corrupt stored trace ended in a traceback" >&2
    exit 1
fi

echo "== repro serve (serve-smoke: healthz/solve/metrics, 429, drain) =="
# one admission slot, so anything arriving behind a running solve sheds
: > "$TMP/serve.log"
"$PY" -m repro serve --port 0 --shards 2 --max-in-flight 1 \
    > "$TMP/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT
PORT="$(wait_port "$TMP/serve.log")"
"$PY" - "$PORT" "$TMP/instance.json" <<'SERVE_SMOKE'
import json, random, sys, threading, time, urllib.error, urllib.request

port, instance_path = int(sys.argv[1]), sys.argv[2]
base = f"http://127.0.0.1:{port}"
instance = json.load(open(instance_path))

health = json.load(urllib.request.urlopen(f"{base}/healthz"))
assert health["status"] == "ok" and health["shards"] == 2, health

def post(payload):
    req = urllib.request.Request(
        f"{base}/solve", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, dict(resp.headers), json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.load(exc)

status, _, payload = post({"instance": instance, "scheduler": "oef-coop"})
assert status == 200 and payload["status"] == "ok", (status, payload)
assert payload["allocation"]["allocator"] == "oef-coop"

# a request that arrives while the one admission slot is held must shed
# with 429.  The overlap is observed, not timed: one 300x10 oef-coop solve
# (over a second) takes the slot, /metrics is polled until a shard reports
# it in flight, only then the burst goes out, and the holder still running
# afterwards shows the slot was held throughout.
def in_flight():
    shards = json.load(urllib.request.urlopen(f"{base}/metrics"))["shards"]
    return sum(row["admission"]["in_flight"] for row in shards)

rng = random.Random(23)
held = dict(
    instance,
    users=[f"u{i}" for i in range(300)],
    gpu_types=[f"g{j}" for j in range(10)],
    speedups=[[1.0] + sorted(1 + 3 * rng.random() for _ in range(9))
              for _ in range(300)],
    capacities=[8.0] * 10,
)
holding = {"instance": held, "scheduler": "oef-coop", "use_cache": False}
holder_outcome = []
holder = threading.Thread(target=lambda: holder_outcome.append(post(holding)))
holder.start()
for _ in range(200):
    if in_flight() == 1:
        break
    time.sleep(0.01)
else:
    raise AssertionError("the holding request was never admitted")
# same fingerprint -> same shard -> the held slot
outcomes = [post(holding) for _ in range(5)]
assert holder.is_alive(), "the slot was released before the burst finished"
holder.join()
assert holder_outcome[0][0] == 200, holder_outcome[0][0]
sheds = [(h, p) for s, h, p in outcomes if s == 429]
assert len(sheds) == 5, [s for s, _, _ in outcomes]
headers, payload = sheds[0]
assert int(headers["Retry-After"]) >= 1, headers
assert payload["error"]["code"] == "overloaded", payload

metrics = json.load(urllib.request.urlopen(f"{base}/metrics"))
assert metrics["totals"]["shed_capacity"] == len(sheds), metrics["totals"]
assert metrics["totals"]["dispatched"] >= 1
print(f"serve-smoke: {len(sheds)}/5 requests behind a held slot shed with Retry-After")
SERVE_SMOKE
# graceful drain: SIGINT must flush final metrics and exit 0
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
trap 'rm -rf "$TMP"' EXIT
grep -q "draining" "$TMP/serve.log"
grep -q '"requests_by_status"' "$TMP/serve.log"

echo "== audit-smoke: audited server -> ledger -> repro audit-report =="
: > "$TMP/serve2.log"
"$PY" -m repro serve --port 0 --shards 2 --audit 1.0 \
    --audit-ledger "$TMP/audit" > "$TMP/serve2.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT
PORT2="$(wait_port "$TMP/serve2.log")"
"$PY" - "$PORT2" "$TMP/instance.json" <<'AUDIT_SMOKE'
import json, sys, urllib.request

port, instance_path = int(sys.argv[1]), sys.argv[2]
base = f"http://127.0.0.1:{port}"
instance = json.load(open(instance_path))

req = urllib.request.Request(
    f"{base}/solve",
    data=json.dumps({"instance": instance, "scheduler": "oef-coop"}).encode(),
    headers={"Content-Type": "application/json"})
with urllib.request.urlopen(req) as resp:
    assert resp.status == 200

report = json.load(urllib.request.urlopen(f"{base}/audit/report"))
assert report["enabled"] is True, report
assert len(report["capture"]) == 2, report  # one tap per shard
print("audit-smoke: /audit/report live with per-shard capture stats")
AUDIT_SMOKE
# drain must flush in-flight audits to the ledger before exit
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
trap 'rm -rf "$TMP"' EXIT
test -s "$TMP/audit/serve.jsonl"
grep -q '"verdict": "pass"' "$TMP/audit/serve.jsonl"

echo "== repro audit-report (ledger summary must pass) =="
"$PY" -m repro audit-report --ledger "$TMP/audit" | tee "$TMP/audit_report.txt"
grep -q "no confirmed violations" "$TMP/audit_report.txt"

echo "== repro audit-report --inject-unfair (negative control must fail) =="
if "$PY" -m repro audit-report --replay --no-ledger --inject-unfair \
    --scenarios steady --schedulers oef-coop --rounds 2 --sp-trials 1 \
    > "$TMP/audit_unfair.txt" 2>&1; then
    echo "injected unfair scheduler did not fail the audit" >&2
    exit 1
fi
grep -q "unfair-grab" "$TMP/audit_unfair.txt"

echo "== repro list-schedulers =="
"$PY" -m repro list-schedulers | tee "$TMP/schedulers.txt"
for name in oef-coop oef-noncoop max-min gandiva-fair gavel drf \
        nash-welfare efficiency-max; do
    grep -q "$name" "$TMP/schedulers.txt"
done

echo "== bench tracing seams (serve, replay-churn, fleet-failover, traced smoke) =="
# bench/tracing.py wraps each seam by name (vars(owner)[attr]), so a renamed
# seam raises KeyError in traced runs only: run the serve and round paths
# traced (the serve runs wrap Gateway.dispatch and instance_fingerprint)
for workload in serve-hot serve-miss replay-churn fleet-failover; do
    "$PY" "$ROOT/bench/run.py" --workload "$workload" --smoke --trace 1 \
        > "$TMP/bench_$workload.json"
    tail -n 1 "$TMP/bench_$workload.json" | "$PY" -c '
import json, sys
failed = json.load(sys.stdin)["failed"]
sys.exit(f"{sys.argv[1]}: failed={failed}" if failed != 0 else 0)
' "$workload"
done

echo "smoke OK"
