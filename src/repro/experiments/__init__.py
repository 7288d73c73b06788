"""Paper experiments: one module per table/figure (see DESIGN.md §4).

Each module's one entry point is ``run()``, returning an
:class:`ExperimentResult` or a list of them.  Run everything with
``python -m repro experiments``, one experiment with e.g.
``python -m repro experiments fig8``, and write the markdown report
with ``python -m repro.experiments.report``.
"""

from repro.experiments import (
    fig1_motivation,
    fig2_conflict,
    fig4_strategyproofness,
    fig5_sharing_incentive,
    fig6_envy_freeness,
    fig7_noncoop_throughput,
    fig8_coop_throughput,
    fig9_jct,
    fig10_overhead,
    scenario_comparison,
    straggler_ablation,
    table1_properties,
)
from repro.experiments.common import ExperimentResult

ALL_EXPERIMENTS = [
    ("fig1", fig1_motivation),
    ("table1", table1_properties),
    ("fig2", fig2_conflict),
    ("fig4", fig4_strategyproofness),
    ("fig5", fig5_sharing_incentive),
    ("fig6", fig6_envy_freeness),
    ("fig7", fig7_noncoop_throughput),
    ("fig8", fig8_coop_throughput),
    ("fig9", fig9_jct),
    ("straggler", straggler_ablation),
    ("fig10", fig10_overhead),
    ("scenarios", scenario_comparison),
]

# imported after ALL_EXPERIMENTS exists: the runner resolves experiment
# modules through this table (lazily, so the import is cycle-free)
from repro.experiments.runner import (  # noqa: E402
    ExperimentOutcome,
    experiment_ids,
    run_experiment,
    run_suite,
    suite_ok,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentOutcome",
    "ExperimentResult",
    "experiment_ids",
    "run_experiment",
    "run_suite",
    "suite_ok",
]
