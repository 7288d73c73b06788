"""Scheduler comparison across every named dynamic scenario.

Goes beyond the paper: the original evaluation replays static job mixes,
while this experiment replays each scenario in the library (``steady``,
``bursty``, ``diurnal``, ``tenant-churn``, ``philly-replay``) under the
OEF cooperative stack and the two heterogeneity-aware baselines — each
the same scheduler, options and placer the figures run (§6.1.3) — all
fed the *same* seeded event stream per scenario.  Rows report completed
jobs, mean JCT, utilisation, Jain fairness, the weighted-envy proxy,
and starvation rounds — the dynamic-load counterpart of Fig. 8/9.

Run scaled down (8 rounds, small populations) so the whole grid stays a
few seconds; pass ``rounds``/``seed`` to :func:`run` for larger sweeps.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult
from repro.scenarios import ScenarioRunner, make_scenario, scenario_names

#: Registry names/aliases replayed per scenario, each on the §6.1.3 stack
#: the figures use: OEF with its optimised placer and min-demand rule, the
#: baselines with the naive placer and their evaluation options.
SCHEDULERS: Sequence[str] = ("oef-coop", "gandiva-fair", "gavel")


def run(rounds: int = 8, seed: int = 0) -> ExperimentResult:
    rows = []
    for name in scenario_names():
        scenario = make_scenario(name, seed=seed, rounds=rounds)
        for scheduler in SCHEDULERS:
            result = ScenarioRunner(scenario, scheduler=scheduler).run()
            row = result.summary_row()
            row.pop("seed")
            rows.append(row)
    return ExperimentResult(
        experiment="scenario comparison (dynamic workloads, beyond the paper)",
        rows=rows,
        notes=[
            f"every scheduler replays the identical seed-{seed} event "
            "stream per scenario; differences are purely scheduling",
            "envy = worst-case weighted-throughput shortfall per round "
            "(0 = envy-free proxy holds)",
        ],
    )
