"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``allocate``         solve a JSON instance with a chosen scheduler
                     (alias: ``solve``; ``--pipeline {default,bare}``
                     selects the gateway middleware pipeline)
``audit``            run the Table-1 property audit on a JSON instance
``audit-report``     summarize an audit ledger, or replay the seeded
                     scenario streams through an audited pipeline; exits 1
                     on any confirmed fairness violation (``docs/auditing.md``)
``compare``          efficiency/fairness summary of all schedulers on an instance
``frontier``         print the efficiency-fairness frontier of an instance
``list-schedulers``  render the scheduler registry (name, family, capabilities)
``list-middleware``  render the default gateway pipeline (stage order,
                     capability flags), mirroring ``list-schedulers``
``simulate``         replay a named dynamic scenario through the simulator
                     (warm-started rounds by default; ``--cold`` disables);
                     ``trace:<name>`` scenarios replay ingested traces
``list-scenarios``   render the scenario library (name, family, defaults,
                     description) — cluster scenarios, fleet scenarios,
                     and ingested ``trace:<name>`` replays in one table
``fleet-sim``        run a multi-region fleet simulation with per-round
                     metrics streamed to JSONL and a global quota layer
                     (exit 1 on any checked fairness violation; ``docs/fleet.md``)
``ingest-trace``     normalize an external trace file (CSV/JSONL) into
                     the trace store, making it available as a
                     ``trace:<name>`` scenario
``experiments``      run the paper experiments (all or a subset, ``--jobs N``)
``serve``            run the async sharded HTTP serving layer; ``--audit
                     RATE`` samples responses into the fairness auditor
                     (:mod:`repro.server`, ``docs/server.md``)
``demo``             write a demo instance JSON to get started

``compare``, ``frontier``, ``experiments``, ``simulate`` and
``fleet-sim`` accept ``--backend`` and ``--jobs N`` to fan independent
work out through :mod:`repro.parallel`; ``compare`` runs solves, which
fan out over threads only (no ``process``).

``repro --version`` prints the package version.

Every command resolves schedulers through the registry
(:mod:`repro.registry`) and solves through the middleware-pipeline
gateway (:mod:`repro.gateway`), so per-scheduler audit policy
(``pe_within``, ``efficiency_constraint``) comes from each allocator's
registered metadata — overridable with
``--pe-within`` / ``--efficiency-constraint`` — and new allocators
appear in every command the moment they self-register.

Instances use the ``repro/instance-v1`` JSON schema (see
:mod:`repro.core.serialization`).  Each command imports the modules it
uses when it runs, so building the parser loads no numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import __version__
from repro.exceptions import ReproError
from repro.parallel import BACKEND_NAMES

#: Backends for ``compare``, whose work is gateway solves: one
#: in-process pipeline, so threads are the only fan-out.
_SOLVE_BACKEND_NAMES = tuple(name for name in BACKEND_NAMES if name != "process")

#: ``--pipeline`` spellings: the full default stack or a bare solver.
_PIPELINE_NAMES = ("bare", "default")

#: CLI spelling -> audit keyword value for ``--pe-within``.
_PE_CHOICES = ("envy_free", "equal_throughput", "none")
_EFFICIENCY_CHOICES = ("none", "envy_free", "equal_throughput", "sharing_incentive")


def _in_range(cast, low, high):
    """An argparse ``type=``: ``cast(text)``, refused outside ``[low, high]``."""

    def parse(text: str):
        value = cast(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{text!r} is not in [{low}, {high}]")
        return value

    parse.__name__ = cast.__name__  # "invalid float value: 'x'"
    return parse


_RATE = _in_range(float, 0.0, 1.0)


def _alphas(text: str) -> List[float]:
    try:
        return [float(alpha) for alpha in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {text!r}"
        ) from None


def _print_table(rows: List[dict]) -> None:
    if not rows:
        return
    headers = list(dict.fromkeys(key for row in rows for key in row))

    def fmt(value):
        return f"{value:.4f}" if isinstance(value, float) else str(value)

    widths = {
        header: max(len(header), *(len(fmt(row.get(header, ""))) for row in rows))
        for header in headers
    }
    print("  ".join(h.ljust(widths[h]) for h in headers))
    for row in rows:
        print("  ".join(fmt(row.get(h, "")).ljust(widths[h]) for h in headers))


# -- commands ---------------------------------------------------------------
def _instance_and_gateway(args: argparse.Namespace):
    """The command's instance file, and a gateway over its ``--pipeline``."""
    from repro.core import load_instance
    from repro.gateway import Gateway, bare_pipeline

    bare = getattr(args, "pipeline", "default") == "bare"
    return load_instance(args.instance), Gateway(bare_pipeline() if bare else None)


def cmd_allocate(args: argparse.Namespace) -> int:
    from repro.core import allocation_to_dict

    instance, gateway = _instance_and_gateway(args)
    response = gateway.solve(instance, args.scheduler)
    payload = allocation_to_dict(response.allocation)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote allocation to {args.output}")
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    instance, gateway = _instance_and_gateway(args)
    overrides = {}
    if args.pe_within is not None:
        overrides["pe_within"] = None if args.pe_within == "none" else args.pe_within
    if args.efficiency_constraint is not None:
        overrides["efficiency_constraint"] = args.efficiency_constraint
    report = gateway.audit(
        instance, args.scheduler, sp_trials=args.sp_trials, **overrides
    )
    _print_table([report.as_row()])
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    instance, gateway = _instance_and_gateway(args)
    _print_table(
        gateway.compare(instance, backend=args.backend, max_workers=args.jobs)
    )
    return 0


def cmd_frontier(args: argparse.Namespace) -> int:
    instance, gateway = _instance_and_gateway(args)
    points = gateway.frontier(
        instance, alphas=args.alphas, backend=args.backend, max_workers=args.jobs
    )
    _print_table(
        [
            {
                "alpha": point.alpha,
                "total efficiency": point.total_efficiency,
                "min throughput": point.min_throughput,
                "jain index": point.jain,
            }
            for point in points
        ]
    )
    return 0


def cmd_list_schedulers(args: argparse.Namespace) -> int:
    from repro.registry import registry_rows

    _print_table(registry_rows())
    return 0


def cmd_list_middleware(args: argparse.Namespace) -> int:
    """Render the default gateway pipeline: stage order + capabilities."""
    from repro.gateway import Gateway

    _print_table(Gateway().describe())
    return 0


def cmd_list_scenarios(args: argparse.Namespace) -> int:
    """One table across all three scenario families: cluster, fleet, trace."""
    import repro.fleet.library  # noqa: F401 - registers the fleet family
    from repro.scenarios import scenario_rows
    from repro.traces import trace_rows

    _print_table(scenario_rows() + scenario_rows("fleet") + trace_rows())
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Replay one named scenario under one or more schedulers."""
    from repro.scenarios import (
        ScenarioRunner,
        make_scenario,
        scenario_sweep,
        sweep_summary,
    )

    scenario = make_scenario(args.scenario, seed=args.seed, rounds=args.rounds)
    warm = not args.cold
    rows = []
    warm_notes = []
    for scheduler in args.schedulers:
        if args.seeds:
            results = scenario_sweep(
                scenario,
                args.seeds,
                scheduler=scheduler,
                backend=args.backend or "auto",
                max_workers=args.jobs,
                warm=warm,
            )
            rows.append(sweep_summary(results))
        else:
            result = ScenarioRunner(
                scenario, scheduler=scheduler, warm=warm
            ).run()
            rows.append(result.summary_row())
            total = result.warm_hits + result.cold_solves
            warm_notes.append(
                f"{scheduler}: {result.warm_hits}/{total} rounds warm-started"
            )
    print(
        f"scenario {scenario.name!r}: {scenario.num_rounds} rounds x "
        f"{scenario.round_duration:.0f}s ({scenario.description})"
    )
    _print_table(rows)
    if args.cold:
        print("warm-start disabled (--cold): every round solved from scratch")
    elif warm_notes:
        print("; ".join(warm_notes))
    return 0


def cmd_fleet_sim(args: argparse.Namespace) -> int:
    """Run one fleet scenario: fan out regions, stream metrics, audit quotas."""
    import os
    import tempfile

    from repro.fleet import FleetSimulator, resolve_fleet_scenario

    fleet = resolve_fleet_scenario(
        args.scenario,
        seed=args.seed,
        regions=args.regions,
        rounds=args.rounds,
    )

    metrics_path = args.metrics
    if metrics_path is None:
        handle, metrics_path = tempfile.mkstemp(
            prefix=f"fleet-{fleet.seed}-", suffix=".jsonl"
        )
        os.close(handle)
    # one run = one stream: drop any previous content at this path so
    # window aggregates never mix runs (the sink itself only appends)
    if os.path.exists(metrics_path):
        os.remove(metrics_path)

    result = FleetSimulator(
        fleet,
        scheduler=args.scheduler,
        backend=args.backend or "auto",
        max_workers=args.jobs,
        rebalance=not args.no_rebalance,
        window_rounds=args.window_rounds,
        check_properties=not args.no_check,
        metrics_path=metrics_path,
    ).run()

    print(
        f"fleet {result.fleet!r}: {result.num_regions} regions x "
        f"{fleet.num_rounds} rounds, scheduler {result.scheduler}, "
        f"backend {result.backend}, {result.wall_seconds:.2f}s"
    )
    _print_table([region.as_row() for region in result.regions])
    windows = result.window_summary(args.window_rounds)
    if windows:
        print(f"streamed metrics: {metrics_path}")
        _print_table(windows)
    print(
        f"rebalance windows: {len(result.quota.windows)} "
        f"({result.quota.checked_windows} PE/SI-checked, "
        f"pre-pass {result.rebalance_seconds:.3f}s), "
        f"fan-out {result.fanout_seconds:.3f}s, "
        f"fairness violations: {result.fairness_violations}"
    )
    print(f"fleet fingerprint: {result.fingerprint()}")
    return 1 if result.fairness_violations else 0


def cmd_ingest_trace(args: argparse.Namespace) -> int:
    """Normalize one external trace file into the trace store."""
    import os

    from repro.traces import TraceStore, ingest_file

    records = ingest_file(args.file, fmt=args.format)
    store = TraceStore(args.store) if args.store else TraceStore.default()
    if store is None:
        print(
            "error: no trace store configured; pass --store or set "
            "$REPRO_TRACE_DIR",
            file=sys.stderr,
        )
        return 2
    name = args.name or os.path.splitext(os.path.basename(args.file))[0]
    path = store.save(name, records)
    print(f"ingested {len(records)} jobs from {args.file} -> {path}")
    print(f"replay with: repro simulate --scenario trace:{name}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_suite, suite_ok

    outcomes = run_suite(
        args.ids, backend=args.backend or "auto", jobs=args.jobs
    )
    return 0 if suite_ok(outcomes) else 1


def cmd_audit_report(args: argparse.Namespace) -> int:
    """Continuous-auditing report; exit 1 on any confirmed violation.

    Two modes.  With a ledger (``--ledger DIR`` or ``$REPRO_AUDIT_DIR``)
    and no ``--replay``, summarizes the records already on disk — the
    operational "what did the live auditor see" view.  Otherwise replays
    the seeded scenario streams through an audited default pipeline
    (``docs/auditing.md``): same scenarios + seed ⇒ identical records,
    which is how CI pins the Table-1 verdicts.  ``--inject-unfair``
    registers the starve-everyone negative control for the replay; the
    report then *must* exit 1 or the audit wall is broken.
    """
    from repro.auditor import (
        UNFAIR_SCHEDULER,
        AuditLedger,
        confirmed_violations,
        injected_unfair_scheduler,
        replay_audit,
        summarize_records,
    )
    from repro.auditor.report import (
        DEFAULT_REPLAY_SCENARIOS,
        DEFAULT_REPLAY_SCHEDULERS,
    )

    if args.no_ledger:
        ledger = None
    elif args.ledger:
        ledger = AuditLedger(args.ledger)
    else:
        ledger = AuditLedger.default()

    replay = args.replay or args.inject_unfair or ledger is None
    scenarios = args.scenarios or list(DEFAULT_REPLAY_SCENARIOS)
    if replay:
        schedulers = list(args.schedulers or DEFAULT_REPLAY_SCHEDULERS)
        replay_kwargs = dict(
            rounds=args.rounds,
            seed=args.seed,
            sp_trials=args.sp_trials,
            rate=args.rate,
            ledger=ledger,
        )
        if args.inject_unfair:
            with injected_unfair_scheduler():
                records = replay_audit(
                    scenarios, schedulers + [UNFAIR_SCHEDULER], **replay_kwargs
                )
        else:
            records = replay_audit(scenarios, schedulers, **replay_kwargs)
    else:
        records = ledger.all_records()
        if args.scenarios:
            records = [r for r in records if r["scenario"] in set(args.scenarios)]
        if args.schedulers:
            records = [
                r for r in records if r["scheduler"] in set(args.schedulers)
            ]

    rows = summarize_records(records)
    confirmed = confirmed_violations(records)
    errors = sum(1 for record in records if record["verdict"] == "error")
    if args.format == "json":
        summary = {
            "records": len(records),
            "summary": rows,
            "confirmed_violations": len(confirmed),
            "errors": errors,
        }
        print(json.dumps(summary, indent=2, default=float))
    else:
        if not records:
            print("no audit records" + ("" if replay else f" in {ledger.root}"))
            return 0
        _print_table(rows)
        if errors:
            print(f"{errors} audit(s) errored (not gating; see the ledger)")
        if confirmed:
            pairs = sorted({f"{r['scenario']}/{r['scheduler']}" for r in confirmed})
            print(f"{len(confirmed)} confirmed violation(s): " + ", ".join(pairs))
        else:
            print("no confirmed violations")
    return 1 if confirmed else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the async sharded serving layer until SIGINT/SIGTERM."""
    from repro.server import serve

    return serve(
        args.host,
        args.port,
        shards=args.shards,
        pipeline=args.pipeline,
        max_in_flight=args.max_in_flight,
        audit=args.audit,
        audit_ledger=args.audit_ledger,
        audit_seed=args.audit_seed,
    )


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import instance_to_dict
    from repro.workloads.generator import zoo_instance

    instance = zoo_instance(["vgg16", "resnet50", "transformer", "lstm"])
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(instance_to_dict(instance), handle, indent=2)
    print(f"wrote demo instance (4 tenants, paper cluster) to {args.output}")
    return 0


# -- parser -------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OEF: fair + efficient scheduling for heterogeneous GPU clusters",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scheduler_help = "scheduler name or alias (see `repro list-schedulers`)"

    allocate = sub.add_parser(
        "allocate", aliases=["solve"], help="solve a JSON instance"
    )
    allocate.add_argument("instance", help="path to an instance JSON file")
    allocate.add_argument("--scheduler", default="oef-coop", help=scheduler_help)
    allocate.add_argument("--output", help="write the allocation JSON here")
    allocate.add_argument(
        "--pipeline",
        choices=_PIPELINE_NAMES,
        default="default",
        help="gateway middleware pipeline to solve through: the full "
        "default stack or a bare terminal solver (differential testing; "
        "allocations are bit-identical either way)",
    )
    allocate.set_defaults(func=cmd_allocate)

    audit = sub.add_parser("audit", help="Table-1 property audit")
    audit.add_argument("instance")
    audit.add_argument("--scheduler", default="oef-coop", help=scheduler_help)
    audit.add_argument("--sp-trials", type=int, default=4)
    audit.add_argument(
        "--pe-within",
        choices=_PE_CHOICES,
        default=None,
        help="override the registered Pareto-improvement domain",
    )
    audit.add_argument(
        "--efficiency-constraint",
        choices=_EFFICIENCY_CHOICES,
        default=None,
        help="override the registered optimal-efficiency constraint set",
    )
    audit.set_defaults(func=cmd_audit)

    audit_report = sub.add_parser(
        "audit-report",
        help="summarize the continuous-audit ledger or replay the "
        "seeded audit streams (exit 1 on a confirmed violation)",
    )
    audit_report.add_argument(
        "--ledger",
        default=None,
        metavar="DIR",
        help="audit ledger directory (default: $REPRO_AUDIT_DIR); "
        "summarized as-is unless --replay/--inject-unfair runs a "
        "fresh replay (which appends here)",
    )
    audit_report.add_argument(
        "--no-ledger",
        action="store_true",
        help="ignore any configured ledger (replay in memory only)",
    )
    audit_report.add_argument(
        "--replay",
        action="store_true",
        help="replay the seeded scenario streams through an audited "
        "pipeline instead of reading the ledger",
    )
    audit_report.add_argument(
        "--inject-unfair",
        action="store_true",
        help="register the deliberately unfair negative-control "
        "scheduler for the replay; the report must then exit 1",
    )
    audit_report.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="NAME",
        help="scenario streams to replay or filter to "
        "(default: steady tenant-churn)",
    )
    audit_report.add_argument(
        "--schedulers",
        nargs="+",
        default=None,
        metavar="NAME",
        help="schedulers to replay or filter to "
        "(default: oef-coop gandiva-fair gavel)",
    )
    audit_report.add_argument("--rounds", type=int, default=None)
    audit_report.add_argument("--seed", type=int, default=7)
    audit_report.add_argument("--sp-trials", type=int, default=2)
    audit_report.add_argument(
        "--rate", type=_RATE, default=1.0,
        help="replay sampling rate in [0, 1] (default: audit everything)",
    )
    audit_report.add_argument(
        "--format", choices=["text", "json"], default="text"
    )
    audit_report.set_defaults(func=cmd_audit_report)

    def add_parallel_flags(command, default_backend=None, choices=BACKEND_NAMES):
        command.add_argument(
            "--backend",
            choices=choices,
            default=default_backend,
            help="execution backend for independent solves "
            f"(default: {default_backend or 'serial'})",
        )
        command.add_argument(
            "--jobs",
            "-j",
            type=int,
            default=None,
            help="max concurrent workers (default: one per core)",
        )

    compare = sub.add_parser("compare", help="compare all schedulers")
    compare.add_argument("instance")
    add_parallel_flags(compare, choices=_SOLVE_BACKEND_NAMES)
    compare.set_defaults(func=cmd_compare)

    frontier = sub.add_parser("frontier", help="efficiency-fairness frontier")
    frontier.add_argument("instance")
    frontier.add_argument(
        "--alphas", type=_alphas, default="0,0.25,0.5,0.75,0.9,1.0"
    )
    add_parallel_flags(frontier)
    frontier.set_defaults(func=cmd_frontier)

    list_schedulers = sub.add_parser(
        "list-schedulers", help="show the scheduler registry"
    )
    list_schedulers.set_defaults(func=cmd_list_schedulers)

    list_middleware = sub.add_parser(
        "list-middleware", help="show the default gateway pipeline stages"
    )
    list_middleware.set_defaults(func=cmd_list_middleware)

    simulate = sub.add_parser(
        "simulate", help="replay a named dynamic-workload scenario"
    )
    simulate.add_argument(
        "--scenario",
        required=True,
        help="named scenario from the library, or trace:<name> for an "
        "ingested trace (see `repro list-scenarios`); unknown names "
        "fail with a did-you-mean error",
    )
    simulate.add_argument(
        "--rounds", type=int, default=None,
        help="scheduling rounds to simulate (default: the scenario's own)",
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--scheduler",
        dest="schedulers",
        nargs="+",
        default=["oef-coop"],
        help="scheduler name(s)/alias(es) to replay the scenario under",
    )
    simulate.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=None,
        help="run a multi-seed sweep instead of one replay "
        "(aggregated row per scheduler; uses --backend/--jobs)",
    )
    simulate.add_argument(
        "--cold",
        action="store_true",
        help="disable warm-started rounds: re-solve the allocation LP "
        "from scratch every round (warm replay is bit-identical, so "
        "this exists for benchmarking and differential testing)",
    )
    add_parallel_flags(simulate)
    simulate.set_defaults(func=cmd_simulate)

    list_scenarios = sub.add_parser(
        "list-scenarios", help="show the scenario library"
    )
    list_scenarios.set_defaults(func=cmd_list_scenarios)

    fleet_sim = sub.add_parser(
        "fleet-sim", help="run a multi-region fleet simulation"
    )
    fleet_sim.add_argument(
        "--scenario",
        required=True,
        help="fleet scenario name (spot-preemption, hetero-generations, "
        "multiregion-failover, tenant-swarm), any cluster scenario, or "
        "trace:<name> — non-fleet scenarios are sharded across regions",
    )
    fleet_sim.add_argument(
        "--regions", type=int, default=None,
        help="number of regions (default: the scenario's own, usually 4)",
    )
    fleet_sim.add_argument(
        "--rounds", type=int, default=None,
        help="scheduling rounds per region (default: the scenario's own)",
    )
    fleet_sim.add_argument("--seed", type=int, default=0)
    fleet_sim.add_argument(
        "--scheduler", default="oef-coop",
        help="regional scheduler (registry name or alias)",
    )
    fleet_sim.add_argument(
        "--window-rounds", type=int, default=6,
        help="rounds per global rebalance window",
    )
    fleet_sim.add_argument(
        "--no-rebalance", action="store_true",
        help="disable the global quota layer (regions stay independent)",
    )
    fleet_sim.add_argument(
        "--no-check", action="store_true",
        help="skip the per-window PE/sharing-incentive property checks",
    )
    fleet_sim.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="stream per-round fleet metrics to this JSONL file "
        "(default: a fresh temp file; the path is printed either way)",
    )
    add_parallel_flags(fleet_sim)
    fleet_sim.set_defaults(func=cmd_fleet_sim)

    ingest_trace = sub.add_parser(
        "ingest-trace", help="normalize an external trace into the store"
    )
    ingest_trace.add_argument(
        "file", help="trace file: CSV or JSONL with per-job rows"
    )
    ingest_trace.add_argument(
        "--name", default=None,
        help="trace name for trace:<name> replay (default: the file stem)",
    )
    ingest_trace.add_argument(
        "--format", choices=["csv", "jsonl"], default=None,
        help="input format (default: sniffed from the file extension)",
    )
    ingest_trace.add_argument(
        "--store", default=None, metavar="DIR",
        help="trace store directory (default: $REPRO_TRACE_DIR, else traces/)",
    )
    ingest_trace.set_defaults(func=cmd_ingest_trace)

    experiments = sub.add_parser("experiments", help="run paper experiments")
    experiments.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    add_parallel_flags(experiments, default_backend="auto")
    experiments.set_defaults(func=cmd_experiments)

    serve = sub.add_parser(
        "serve", help="run the async sharded HTTP serving layer"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_in_range(int, 0, 65535), default=8080,
                       help="listen port (0 picks a free one)")
    serve.add_argument(
        "--shards", type=int, default=2,
        help="gateway workers behind the consistent-hash ring",
    )
    serve.add_argument(
        "--pipeline",
        choices=_PIPELINE_NAMES,
        default="default",
        help="middleware pipeline each shard solves through",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=None,
        help="per-shard admission bound; excess solves shed as HTTP 429 "
        "with Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--audit", type=_RATE, default=None, metavar="RATE",
        help="sample this fraction of responses (in [0, 1]) into the "
        "continuous fairness auditor and serve GET /audit/report "
        "(default: auditing off)",
    )
    serve.add_argument(
        "--audit-ledger", default=None, metavar="DIR",
        help="append audit records to this ledger directory "
        "(default: $REPRO_AUDIT_DIR, else in-memory only)",
    )
    serve.add_argument(
        "--audit-seed", type=int, default=0,
        help="seed for the audit sampler and strategyproofness probes",
    )
    serve.set_defaults(func=cmd_serve)

    demo = sub.add_parser("demo", help="write a demo instance JSON")
    demo.add_argument("--output", default="instance.json")
    demo.set_defaults(func=cmd_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; any :class:`ReproError` (bad input, unknown name,
    corrupt ledger or trace line) ends as ``error: …`` and exit 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
