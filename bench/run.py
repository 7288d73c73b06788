#!/usr/bin/env python3
"""One end-to-end benchmark for the serve, replay, fleet and solve paths.

The contract the driver runs::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1`` — and exits non-zero when an output check failed.

Without ``--workload`` it runs them all, untraced then traced, ``--runs``
times with consecutive seeds, and prints (``--out``: writes) one document
with provenance; ``--smoke`` does that at a tenth of the size, and
``--compare A B`` applies the bounds to two such documents.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import compare
from calibrate import scale
from stats import mean, median
from workloads import SEGMENTS, WORKLOADS, Workload, serve_bodies, worker_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Budget of one ``--smoke`` run, seconds per workload and trace mode.
SMOKE_SECONDS = 0.4


def declared() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child_env() -> Dict[str, str]:
    """The program is this checkout's ``src/``, ahead of anything installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [path for path in env.get("PYTHONPATH", "").split(os.pathsep) if path]
    )
    return env


def provenance(seed: int, seconds: float) -> Dict[str, object]:
    import numpy
    import scipy
    from repro.parallel import cpu_count, get_backend

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "usable_cores": cpu_count(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "fleet_backend": get_backend("auto", task_count=4).name,
    }


# -- the end-to-end metrics of an untraced run --------------------------------
#: One timed block: ``(ops, wall seconds, latency seconds, scale)``.  ``scale``
#: turns its seconds into reference seconds (see ``calibrate.py``).
Block = Tuple[int, float, float, float]


def timed(setups: List[float], blocks: List[List[Block]]) -> Dict[str, float]:
    """Medians over each segment's blocks, averaged over the segments:
    segments may replay different recipes, so their blocks are never pooled."""
    def over_segments(per_block) -> float:
        return mean([median([per_block(block) for block in segment]) for segment in blocks])

    return {
        "setup_s": median(setups),
        "ops_per_s": 1.0 / over_segments(lambda block: block[1] / block[0]),
        "latency_p50_ms": 1e3 * over_segments(lambda block: block[2]),
    }


def end_to_end(
    segments: List[Dict[str, object]], blocks: List[List[Block]]
) -> Dict[str, Dict[str, float]]:
    """``metrics``: times in reference seconds, memory as measured.
    ``raw``: the same statistics of the wall clock, for the detail line."""
    references = [segment["setup_reference_s"] for segment in segments]
    metrics = timed(
        [segment["setup_s"] * scale(ref, ref) for segment, ref in zip(segments, references)],
        [[(ops, wall * by, latency * by, by) for ops, wall, latency, by in segment]
         for segment in blocks],
    )
    metrics["peak_rss_mb"] = median([segment["peak_rss_mb"] for segment in segments])
    raw = timed([segment["setup_s"] for segment in segments], blocks)
    raw["host_scale"] = median([block[3] for segment in blocks for block in segment])
    return {"metrics": metrics, "raw": raw}


# -- library workloads (worker processes) -------------------------------------
def run_worker(
    kind: str, inputs: Dict[str, object], seconds: float, trace: bool,
    spans_path: Optional[str] = None,
) -> Dict[str, object]:
    job = {
        "kind": kind, "inputs": inputs, "seconds": seconds, "trace": trace,
        "spans_path": spans_path, "spawned_at": time.time(),
    }
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, env=child_env(),
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def determinism_problems(kind: str, segments: List[Dict[str, object]]) -> List[str]:
    """Within a segment every repeat ran the same inputs: same outputs."""
    problems: List[str] = []
    for number, segment in enumerate(segments):
        checks = [repeat["check"] for repeat in [segment["warmup"]] + segment["repeats"]]
        if kind == "solve":
            first = checks[0]["objectives"]
            for check in checks:
                for ours, theirs in zip(first, check["objectives"]):
                    if abs(ours - theirs) > 1e-9 * max(1.0, abs(ours)):
                        problems.append(
                            f"segment {number}: objectives differ: {theirs!r} != {ours!r}"
                        )
            continue
        prints = sorted({check["fingerprint"] for check in checks})
        if len(prints) != 1:
            problems.append(f"segment {number}: fingerprints differ: {prints}")
    return problems


def library_outcome(workload: Workload, seed: int, seconds: float, trace: bool,
                    smoke: bool, spans_path: Optional[str]) -> Dict[str, object]:
    count = 1 if (trace or smoke) else SEGMENTS
    segments = [
        run_worker(
            workload.kind, worker_inputs(workload, seed, segment, smoke),
            seconds / count, trace, spans_path,
        )
        for segment in range(count)
    ]
    repeats = [repeat for segment in segments for repeat in segment["repeats"]]
    problems = determinism_problems(workload.kind, segments)
    failed_ops = sum(repeat["failed"] for repeat in repeats)
    outcome = {
        "attempted": sum(repeat["ops"] for repeat in repeats) + len(repeats),
        "failed": failed_ops + len(problems),
        "problems": problems
        + ([f"{failed_ops} operation(s) failed their output check"] if failed_ops else []),
        "checks": [segment["warmup"]["check"] for segment in segments],
        "blocks": [
            [(rep["ops"], rep["wall_s"], rep["latency_s"], rep["scale"])
             for rep in seg["repeats"]]
            for seg in segments
        ],
    }
    if trace:
        outcome["metrics"] = segments[0]["metrics"]
    else:
        outcome.update(end_to_end(segments, outcome["blocks"]))
    return outcome


# -- serve workloads ----------------------------------------------------------
def serve_outcome(workload: Workload, seed: int, seconds: float, trace: bool,
                  smoke: bool, spans_path: Optional[str]) -> Dict[str, object]:
    import serve  # needs repro importable: main() has put src/ on the path

    bodies = serve_bodies(workload, seed, smoke)
    count = 1 if (trace or smoke) else SEGMENTS
    live = seconds / 2.0 if trace else seconds
    segments = [
        serve.run_segment(
            workload, bodies, live / count, seed + segment, smoke, child_env(),
            fixed=trace,
        )
        for segment in range(count)
    ]
    closed = [segment["closed"] for segment in segments]
    paced = [segment["paced"] for segment in segments if "paced" in segment]
    sampled = closed[0].bodies
    problems = serve.check_responses(bodies, sampled)
    failed_ops = sum(result.failed for result in closed + paced)
    size = workload.shape(smoke)["block"]
    outcome = {
        "attempted": sum(result.sent for result in closed + paced) + len(sampled),
        "failed": failed_ops + len(problems),
        "problems": problems
        + ([f"{failed_ops} request(s) were not answered 200"] if failed_ops else []),
        "checks": {"responses_checked": len(sampled)},
        "blocks": [
            [(size, wall, latency, scale(before, after))
             for wall, latency, before, after in result.blocks()]
            for result in closed
        ],
    }
    if trace:
        metrics = serve.client_metrics(segments[0])
        metrics.update(
            serve.staged_replay(
                bodies, workload.shape(smoke), seconds / 2.0, seed, spans_path
            )
        )
        # both sides in reference microseconds: they ran minutes apart
        live = median([latency * by for _ops, _wall, latency, by in outcome["blocks"][0]])
        metrics["server.unattributed_us"] = 1e6 * live - metrics.pop("_staged_p50_us")
        outcome["metrics"] = metrics
    else:
        outcome.update(end_to_end(segments, outcome["blocks"]))
    return outcome


# -- one run, in the driver's format --------------------------------------------
def run_once(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
             spans_path: Optional[str] = None) -> Dict[str, object]:
    workload = WORKLOADS[name]
    started = time.perf_counter()
    run = serve_outcome if workload.kind == "serve" else library_outcome
    outcome = run(workload, seed, seconds, trace, smoke, spans_path)
    spec = declared()["per_layer" if trace else "end_to_end"]
    measured = outcome.pop("metrics")
    known = {metric["name"] for metric in spec}
    stray = sorted(name for name in measured if name not in known)
    if stray:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {stray}")
    # a layer a workload never enters reports 0 (per-layer only: every
    # end-to-end metric is measured on every workload)
    metrics = {
        metric["name"]: {
            "value": float(measured[metric["name"]] if not trace
                           else measured.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in spec
    }
    return {
        "result": {
            "correct": outcome["failed"] == 0,
            "attempted": int(outcome["attempted"]),
            "failed": int(outcome["failed"]),
            "metrics": metrics,
        },
        "detail": {
            "workload": name, "seed": seed, "trace": int(trace),
            "duration_s": round(time.perf_counter() - started, 3),
            **{key: outcome[key] for key in ("problems", "checks", "blocks")},
            **({"raw": outcome["raw"]} if not trace else {}),
            **({"measured": sorted(measured)} if trace else {}),
        },
    }


def run_all(seed: int, seconds: float, runs: int, smoke: bool,
            traces: List[bool]) -> Dict[str, object]:
    """Every workload x trace mode x ``runs`` seeds, as one document."""
    document: Dict[str, object] = {
        "schema": "repro/e2ebench-v1",
        "provenance": provenance(seed, seconds),
        "smoke": smoke,
        "seeds": list(range(seed, seed + runs)),
        "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        entry: Dict[str, object] = {
            "op": workload.op, "why": workload.why,
            "end_to_end": {}, "per_layer": {}, "runs": [],
        }
        for run_seed in document["seeds"]:
            for trace in traces:
                once = run_once(name, run_seed, seconds, trace, smoke)
                once["detail"].pop("blocks")  # per-block times: one-workload mode only
                entry["runs"].append({**once["detail"], **{
                    key: once["result"][key] for key in ("correct", "attempted", "failed")
                }})
                group = entry["per_layer" if trace else "end_to_end"]
                for metric, cell in once["result"]["metrics"].items():
                    group.setdefault(metric, {"unit": cell["unit"], "values": []})[
                        "values"
                    ].append(cell["value"])
                print(f"{name} seed={run_seed} trace={int(trace)} "
                      f"{once['detail']['duration_s']}s failed={once['result']['failed']}",
                      file=sys.stderr)
        document["workloads"][name] = entry
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1 = per-layer run; all-workload mode defaults to both")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workload mode: repeat with seeds seed..seed+runs-1")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload and check at about a tenth of the size")
    parser.add_argument("--out", help="also write the document / detail to this file")
    parser.add_argument("--spans", help="--trace 1: write the spans to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="judge document B against document A and exit")
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(*args.compare, declared())
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the program's ledgers stay switched off, here and in every child
    os.environ.update(REPRO_LEDGER_DIR="", REPRO_AUDIT_DIR="", REPRO_TRACE_DIR="")
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else float(declared()["run_seconds"])
    )

    if args.workload is None:
        traces = [False, True] if args.trace is None else [bool(args.trace)]
        document = run_all(args.seed, seconds, args.runs, args.smoke, traces)
        text = json.dumps(document, indent=1, sort_keys=True)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        print(text)
        compare.print_spreads(document, declared())
        failed = sum(
            run["failed"] for entry in document["workloads"].values()
            for run in entry["runs"]
        )
        return 1 if failed else 0

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    once = run_once(args.workload, args.seed, seconds, bool(args.trace), args.smoke,
                    args.spans)
    if args.out:
        once["detail"]["provenance"] = provenance(args.seed, seconds)
        with open(args.out, "w") as handle:
            json.dump(once, handle, indent=1, sort_keys=True)
    print(json.dumps({"detail": once["detail"]}, sort_keys=True))
    print(json.dumps(once["result"]))
    return 0 if once["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
