"""Which public callables the traced run wraps, and how spans become metrics.

Layer = module.  Every time metric is the layer's **self time** divided by
the number of operations traced (requests, region-rounds, solve repeats),
or by the number of runs for the few things that happen once per ``run()``
— the ``per`` column of ``bench/README.md`` says which.  Because self times
add up to the traced wall, so do the metrics once multiplied back.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from tracing import Layer, LayerTotals, Tracer

_NONE = LayerTotals()

#: metric -> (span names whose self time it sums, seconds-to-unit factor, "op" | "run")
TIME_METRICS: Dict[str, Tuple[Tuple[str, ...], float, str]] = {
    # the staged replay of the request path (serve.py records these spans itself)
    "server.http11.read_us": (("server.http11.read",), 1e6, "op"),
    "server.protocol.parse_us": (("server.protocol.parse",), 1e6, "op"),
    "server.shards.route_us": (("server.shards.route",), 1e6, "op"),
    "server.shards.hop_us": (("server.shards.dispatch",), 1e6, "op"),
    "server.protocol.serialise_us": (("server.protocol.serialise",), 1e6, "op"),
    "server.http11.write_us": (("server.http11.write",), 1e6, "op"),
    "gateway.dispatch_us": (("gateway.dispatch",), 1e6, "op"),
    "gateway.fingerprint_us": (("gateway.fingerprint",), 1e6, "op"),
    "core.weighted.self_us": (("core.weighted.allocate",), 1e6, "op"),
    "core.cooperative.self_s": (("core.cooperative.allocate",), 1.0, "op"),
    "core.noncooperative.allocate_ms": (("core.noncooperative.allocate",), 1e3, "op"),
    "core.allocation_from_values_us": (("core.allocation_from_values",), 1e6, "op"),
    "solver.compile_us": (("solver.formcache", "solver.compile"), 1e6, "op"),
    "solver.solve_us": (("solver.solve_form",), 1e6, "op"),
    "solver.incremental.build_ms": (("solver.incremental.build",), 1e3, "op"),
    "solver.incremental.solve_ms": (("solver.incremental.solve",), 1e3, "op"),
    "solver.incremental.add_rows_ms": (("solver.incremental.add_rows",), 1e3, "op"),
    "solver.incremental.inspect_ms": (
        ("solver.incremental.delete_rows", "solver.incremental.inspect"), 1e3, "op"),
    "scenarios.materialize_ms": (("scenarios.materialize",), 1e3, "run"),
    "scenarios.distill_round_us": (("scenarios.distill_round",), 1e6, "op"),
    "cluster.profiler.profile_us": (("cluster.profiler.profile",), 1e6, "op"),
    "cluster.schedulers.decision_key_us": (("cluster.schedulers.decision_key",), 1e6, "op"),
    "cluster.schedulers.shares_ms": (("cluster.schedulers.shares",), 1e3, "op"),
    "cluster.simulator.self_us": (("cluster.simulator.run",), 1e6, "op"),
    "cluster.rounding.round_shares_us": (("cluster.rounding.round_shares",), 1e6, "op"),
    "cluster.placement.place_round_us": (("cluster.placement.place_round",), 1e6, "op"),
    "cluster.metrics.record_us": (("cluster.metrics.record",), 1e6, "op"),
    "fleet.scenario.materialize_ms": (("fleet.scenario.materialize",), 1e3, "run"),
    "fleet.rebalance.schedule_s": (("fleet.rebalance.schedule",), 1.0, "run"),
    "fleet.metrics.write_us": (("fleet.metrics.write",), 1e6, "op"),
    "fleet.metrics.aggregate_ms": (("fleet.metrics.aggregate",), 1e3, "run"),
    "jsonlio.append_us": (("jsonlio.append",), 1e6, "op"),
}

#: span-name prefixes that make up the "allocator" share the workloads were
#: chosen to contrast (idle on serve-hot / replay-steady, dominant elsewhere)
CORE_SOLVER = ("core.", "solver.")


def _lp_size(_args, solution):
    stats = solution.stats
    return (stats.num_constraints, stats.num_variables, bool(stats.warm_start_used))


def _session_size(args, _result):
    return (args[0].num_rows, args[0].num_cols)


def _rows_added(args, _result):
    return args[1].shape[0]


def _rows_deleted(args, _result):
    return len(args[1])


def _install_formcache(tracer: Tracer) -> None:
    """``FormCache.get_or_build``: the lookup is one span, a miss's builder another."""
    from repro.solver.formcache import FormCache

    def make(original):
        def get_or_build(cache, key, builder):
            def traced_builder():
                with tracer.span("solver.compile"):
                    return builder()

            with tracer.span("solver.formcache"):
                return original(cache, key, traced_builder)

        return get_or_build

    tracer.replace(FormCache, "get_or_build", make)


def allocator_layers() -> List[Layer]:
    """core + solver: everything below ``Allocator.allocate``."""
    import repro.core.cooperative as cooperative
    import repro.core.noncooperative as noncooperative
    from repro.core.weighted import WeightedOEF
    from repro.solver.incremental import IncrementalLP

    return [
        (WeightedOEF, "allocate", "core.weighted.allocate", None),
        (cooperative.CooperativeOEF, "allocate_with_state", "core.cooperative.allocate", None),
        (noncooperative.NonCooperativeOEF, "allocate_with_state",
         "core.noncooperative.allocate", None),
        (noncooperative.NonCooperativeOEF, "allocation_from_values",
         "core.allocation_from_values", None),
        # the allocators call the name their own module imported
        (cooperative, "solve_form", "solver.solve_form", _lp_size),
        (noncooperative, "solve_form", "solver.solve_form", _lp_size),
        (IncrementalLP, "__init__", "solver.incremental.build", None),
        (IncrementalLP, "solve", "solver.incremental.solve", _session_size),
        (IncrementalLP, "add_rows", "solver.incremental.add_rows", _rows_added),
        (IncrementalLP, "delete_rows", "solver.incremental.delete_rows", _rows_deleted),
        (IncrementalLP, "basic_row_mask", "solver.incremental.inspect", None),
        (IncrementalLP, "row_values", "solver.incremental.inspect", None),
    ]


def gateway_layers() -> List[Layer]:
    from repro.gateway import Gateway

    return [(Gateway, "dispatch", "gateway.dispatch", None)]


def simulator_layers() -> List[Layer]:
    """scenarios + cluster: one replay round, above the allocator."""
    import repro.scenarios.runner as runner
    from repro.cluster.metrics import MetricsCollector
    from repro.cluster.placement import Placer
    from repro.cluster.profiler import ProfilingAgent
    from repro.cluster.rounding import DeviationRounder
    from repro.cluster.schedulers import OEFScheduler
    from repro.cluster.simulator import ClusterSimulator
    from repro.scenarios.scenario import Scenario

    return [
        (Scenario, "materialize", "scenarios.materialize", None),
        (runner, "distill_round", "scenarios.distill_round", None),
        (ClusterSimulator, "run", "cluster.simulator.run", None),
        (ProfilingAgent, "profile_tenant", "cluster.profiler.profile", None),
        (OEFScheduler, "decision_key", "cluster.schedulers.decision_key", None),
        (OEFScheduler, "shares", "cluster.schedulers.shares", None),
        (DeviationRounder, "round_shares", "cluster.rounding.round_shares", None),
        (Placer, "place_round", "cluster.placement.place_round", None),
        (MetricsCollector, "record_round", "cluster.metrics.record", None),
    ]


def fleet_layers() -> List[Layer]:
    import repro.fleet.simulator as simulator
    import repro.jsonlio as jsonlio
    from repro.fleet.metrics import FleetMetricsWriter
    from repro.fleet.scenario import FleetScenario

    return [
        (FleetScenario, "materialize", "fleet.scenario.materialize", None),
        (simulator, "compute_quota_schedule", "fleet.rebalance.schedule", None),
        (simulator, "aggregate_stream", "fleet.metrics.aggregate", None),
        (FleetMetricsWriter, "__call__", "fleet.metrics.write", None),
        (FleetMetricsWriter, "close", "fleet.metrics.write", None),
        (jsonlio, "append_jsonl_lines", "jsonlio.append", None),
    ]


@contextmanager
def install(tracer: Tracer, *groups: List[Layer]) -> Iterator[Tracer]:
    """Wrap the allocator layers plus ``groups`` for the length of the block."""
    layers = allocator_layers() + [layer for group in groups for layer in group]
    with tracer.installed(layers):
        _install_formcache(tracer)
        yield tracer


def reduce(
    tracer: Tracer, root: str, ops: int, runs: int
) -> Tuple[Dict[str, float], Dict[str, LayerTotals]]:
    """Spans -> per-layer metrics, plus the per-name totals they came from.

    Times are self time per op (or per run, see :data:`TIME_METRICS`) of
    whichever layers were entered; counts are taken at the core/solver
    boundaries; the shares say what part of the traced wall (the ``root``
    spans) no layer accounts for, and what part is core + solver.
    """
    totals = tracer.totals()
    ops, runs = max(1, ops), max(1, runs)
    metrics: Dict[str, float] = {}
    for metric, (names, factor, per) in TIME_METRICS.items():
        present = [totals[name] for name in names if name in totals]
        if present:
            own = sum(layer.self_time for layer in present)
            metrics[metric] = factor * own / (ops if per == "op" else runs)

    forms = tracer.data("solver.solve_form")
    sessions = tracer.data("solver.incremental.solve")
    sizes = [(rows, cols) for rows, cols, _warm in forms] + list(sessions)
    metrics["solver.lp_count"] = len(sizes) / ops
    metrics["solver.incremental.solves"] = len(sessions) / ops
    metrics["solver.incremental.rows_added"] = sum(
        tracer.data("solver.incremental.add_rows")) / ops
    metrics["solver.incremental.rows_deleted"] = sum(
        tracer.data("solver.incremental.delete_rows")) / ops
    if sizes:
        metrics["solver.rows"] = sum(rows for rows, _ in sizes) / len(sizes)
        metrics["solver.cols"] = sum(cols for _, cols in sizes) / len(sizes)
    if forms:
        metrics["solver.warm_used_ratio"] = sum(warm for *_, warm in forms) / len(forms)
    allocates = sum(
        totals.get(name, _NONE).calls
        for name in ("core.cooperative.allocate", "core.noncooperative.allocate")
    )
    if allocates:
        metrics["core.lp_rounds"] = len(sizes) / allocates
    lookups = totals.get("solver.formcache", _NONE).calls
    if lookups:
        # a miss is a lookup whose builder ran
        misses = totals.get("solver.compile", _NONE).calls
        metrics["solver.formcache.hit_ratio"] = 1.0 - misses / lookups

    wall = totals[root].total
    metrics["trace.unattributed_share"] = totals[root].self_time / wall
    metrics["trace.core_solver_share"] = sum(
        layer.self_time for name, layer in totals.items() if name.startswith(CORE_SOLVER)
    ) / wall
    return metrics, totals
