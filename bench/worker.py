"""Worker process for the library workloads: set up, repeat, report.

``run.py`` starts one fresh worker per segment, writes the job (workload
kind, generated inputs, time budget) to its stdin as JSON and reads one JSON
report from its stdout.  Everything from process start to the end of the
untimed warm-up repeat is set-up; the timed repeats follow until the budget
is spent.  With ``trace`` set the worker instead runs the repeats twice —
plain, then with the layers' public callables wrapped — and reports the
per-layer numbers.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import tempfile
import time
from typing import Dict, List

import calibrate
import layers
from stats import median, peak_rss_mb
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fewest repeats a timed section ends with, however slow the host.
MIN_REPEATS = 2

#: The root span of one repeat; its self time is what no layer accounts for.
ROOT = "repeat"

Repeat = Dict[str, object]


class Library:
    """What a workload may override; ``repeat()`` it must provide."""

    #: sections a traced run splits its time into (plain + traced)
    phases = 2

    def close(self) -> None:
        """Remove what the workload left on disk."""

    def prelude(self, seconds: float) -> List[Repeat]:
        """Repeats a traced run makes before its plain/traced pair."""
        return []

    def layers(self) -> List[List[layers.Layer]]:
        """Layer groups wrapped on top of the allocator's."""
        return []

    def layer_metrics(self, totals, plain, traced) -> Dict[str, float]:
        """Per-layer numbers that come from results, not from spans alone."""
        return {}


class Replay(Library):
    """``ScenarioRunner(make_scenario(...), "oef-coop").run()``; op = round."""

    def __init__(self, inputs: Dict[str, object]):
        from repro.scenarios import ScenarioRunner, make_scenario

        scenario = make_scenario(
            inputs["scenario"], seed=inputs["seed"], rounds=inputs["rounds"],
            **inputs["shape"],
        )
        self.runner = ScenarioRunner(scenario, "oef-coop")

    def repeat(self) -> Dict[str, object]:
        started = time.perf_counter()
        result = self.runner.run()
        wall = time.perf_counter() - started
        return {
            "wall_s": wall,
            "ops": result.num_rounds,
            "latency_s": wall,
            "failed": 0,
            "check": {"fingerprint": result.fingerprint()},
            "counts": {
                "scenarios.events_applied": result.num_events,
                "cluster.simulator.cold_solves": result.cold_solves,
                "warm_hits": result.warm_hits,
            },
        }

    def layers(self):
        return [layers.simulator_layers(), layers.gateway_layers()]

    def layer_metrics(self, totals, plain, traced):
        counts = [repeat["counts"] for repeat in traced]
        cold = sum(c["cluster.simulator.cold_solves"] for c in counts)
        warm = sum(c["warm_hits"] for c in counts)
        return {
            "scenarios.events_applied": counts[0]["scenarios.events_applied"],
            "cluster.simulator.cold_solves": counts[0]["cluster.simulator.cold_solves"],
            "cluster.simulator.warm_hit_ratio": warm / max(1, warm + cold),
        }


class Fleet(Library):
    """``FleetSimulator(...).run()`` plus the window summary ``repro
    fleet-sim`` prints; op = region-round.  Untraced repeats use the default
    backend; wrappers do not cross a process pool, so traced ones run serial."""

    phases = 3

    def __init__(self, inputs: Dict[str, object]):
        from repro.fleet.library import make_fleet_scenario

        self.fleet = make_fleet_scenario(
            inputs["scenario"], seed=inputs["seed"], regions=inputs["regions"],
            rounds=inputs["rounds"], **inputs["shape"],
        )
        os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
        self.path = os.path.join(self.workdir, "fleetmetrics.jsonl")
        self.backend = "auto"

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def repeat(self) -> Dict[str, object]:
        from repro.fleet import FleetSimulator

        if os.path.exists(self.path):
            os.remove(self.path)  # one run = one stream, as the CLI does
        started = time.perf_counter()
        result = FleetSimulator(
            self.fleet, backend=self.backend, metrics_path=self.path
        ).run()
        windows = result.window_summary()
        wall = time.perf_counter() - started
        walls = [region.wall_seconds for region in result.regions]
        with open(self.path, "rb") as handle:
            stream = handle.read()
        return {
            "wall_s": wall,
            "ops": result.total_rounds,
            "latency_s": wall,
            "failed": result.fairness_violations + (0 if windows else 1),
            "check": {"fingerprint": result.fingerprint()},
            "counts": {
                "fleet.rebalance.windows": len(result.quota.windows),
                "fleet.rebalance.checked_windows": result.quota.checked_windows,
                "fleet.simulator.region_wall_sum_s": sum(walls),
                "fleet.simulator.region_wall_max_s": max(walls),
                "fleet.metrics.records": stream.count(b"\n"),
                "fleet.metrics.bytes": len(stream),
            },
        }

    def prelude(self, seconds: float) -> List[Repeat]:
        """A third of a traced run stays on the default backend — what users
        get, and the base of ``parallel.speedup_vs_serial``; the plain/traced
        pair then runs serially, because wrappers do not cross a process pool."""
        self.default = run_for(self, seconds)
        self.backend = "serial"
        return self.default

    def layers(self):
        return [layers.fleet_layers(), layers.simulator_layers(), layers.gateway_layers()]

    def layer_metrics(self, totals, plain, traced):
        from repro.parallel import get_backend

        regions = self.fleet.num_regions
        workers = min(get_backend("auto", task_count=regions).max_workers, regions)
        counts = [repeat["counts"] for repeat in self.default]
        wall_sum = median([c["fleet.simulator.region_wall_sum_s"] for c in counts])
        wall_max = median([c["fleet.simulator.region_wall_max_s"] for c in counts])
        default_wall = median([repeat["wall_s"] for repeat in self.default])
        # in reference seconds: the two backends ran seconds apart
        speedup = median([r["scale"] * r["wall_s"] for r in plain]) / median(
            [r["scale"] * r["wall_s"] for r in self.default]
        )
        schedule = totals["fleet.rebalance.schedule"].total / len(traced)
        return {
            **{
                key: counts[0][key]
                for key in ("fleet.rebalance.windows", "fleet.rebalance.checked_windows",
                            "fleet.metrics.records", "fleet.metrics.bytes")
            },
            "fleet.simulator.region_wall_sum_s": wall_sum,
            "fleet.simulator.region_wall_max_s": wall_max,
            "fleet.simulator.region_skew": wall_max / (wall_sum / regions),
            # wall of the fan-out phase beyond a perfectly balanced split
            "fleet.simulator.fanout_overhead_s": (
                default_wall - schedule - wall_sum / workers
            ),
            "parallel.workers": workers,
            "parallel.speedup_vs_serial": speedup,
        }


class Solve(Library):
    """Cold ``CooperativeOEF().allocate`` then ``NonCooperativeOEF().allocate``
    on each generated instance; op = one instance under both."""

    def __init__(self, inputs: Dict[str, object]):
        from repro.core.serialization import instance_from_dict

        self.instances = [instance_from_dict(raw) for raw in inputs["instances"]]

    def repeat(self) -> Dict[str, object]:
        from repro.core.cooperative import CooperativeOEF
        from repro.core.noncooperative import NonCooperativeOEF
        from repro.solver import FORM_CACHE

        coop_walls: List[float] = []
        objectives: List[float] = []
        behind = 0
        started = time.perf_counter()
        for instance in self.instances:
            FORM_CACHE.clear()  # cold: the instances share a shape
            before = time.perf_counter()
            coop = CooperativeOEF().allocate(instance).total_efficiency()
            coop_walls.append(time.perf_counter() - before)
            noncoop = NonCooperativeOEF().allocate(instance).total_efficiency()
            objectives += [coop, noncoop]
            # the paper's ordering: cooperative OEF is at least as efficient
            behind += coop < noncoop * (1.0 - 1e-9)
        return {
            "wall_s": time.perf_counter() - started,
            "ops": len(self.instances),
            "latency_s": median(coop_walls),
            "failed": behind,
            "check": {"objectives": objectives},
            "counts": {},
        }


KINDS = {"replay": Replay, "fleet": Fleet, "solve": Solve}


def run_for(workload: Library, seconds: float, tracer: Tracer = None) -> List[Repeat]:
    """Repeat until ``seconds`` are spent, and at least :data:`MIN_REPEATS` times.

    The process-wide compiled-form cache is emptied before every repeat: a
    fresh CLI process would not have it.  The reference work runs between
    repeats; ``scale`` turns a repeat's seconds into reference seconds.
    """
    from repro.solver import FORM_CACHE

    repeats: List[Repeat] = []
    deadline = time.perf_counter() + seconds
    reference = calibrate.reference()
    while len(repeats) < MIN_REPEATS or time.perf_counter() < deadline:
        FORM_CACHE.clear()
        if tracer is None:
            repeats.append(workload.repeat())
        else:
            tracer.op += 1
            with tracer.span(ROOT):
                repeats.append(workload.repeat())
        before, reference = reference, calibrate.reference()
        repeats[-1]["scale"] = calibrate.scale(before, reference)
    return repeats


def traced_report(workload: Library, seconds: float, tracer: Tracer) -> Dict[str, object]:
    """Plain repeats, then the same repeats with the layers wrapped."""
    share = seconds / workload.phases
    before = workload.prelude(share)
    plain = run_for(workload, share)
    with layers.install(tracer, *workload.layers()):
        traced = run_for(workload, share, tracer)

    ops = sum(repeat["ops"] for repeat in traced)
    metrics, totals = layers.reduce(tracer, ROOT, ops, len(traced))
    metrics.update(workload.layer_metrics(totals, plain, traced))

    def per_op(repeats: List[Repeat]) -> float:
        return median(
            [repeat["scale"] * repeat["wall_s"] / repeat["ops"] for repeat in repeats]
        )

    metrics["trace.overhead_pct"] = 100.0 * (per_op(traced) / per_op(plain) - 1.0)
    return {"metrics": metrics, "repeats": before + plain + traced}


def main() -> int:
    from repro.solver import FORM_CACHE

    job = json.load(sys.stdin)
    workload = KINDS[job["kind"]](job["inputs"])
    try:
        FORM_CACHE.clear()
        report: Dict[str, object] = {"warmup": workload.repeat()}  # untimed
        report["setup_s"] = time.time() - job["spawned_at"]
        report["setup_reference_s"] = calibrate.settled_reference()
        if job["trace"]:
            tracer = Tracer()
            report.update(traced_report(workload, job["seconds"], tracer))
            if job["spans_path"]:
                tracer.write(job["spans_path"])
        else:
            report["repeats"] = run_for(workload, job["seconds"])
    finally:
        workload.close()
    # a fleet run's regions are forked pool children of this process
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # KiB
    report["peak_rss_mb"] = max(peak_rss_mb(), children)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
