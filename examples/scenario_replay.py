"""Replay dynamic scenarios: philly-replay vs bursty under two schedulers.

Builds two seeded scenario recipes from the library and replays each
under the OEF cooperative stack and the Gavel baseline.  Because a
recipe re-materialises the *identical* event stream for every run, the
per-scheduler differences below are purely scheduling — same arrivals,
same bursts, same jobs.

Also shows a multi-seed sweep of ``bursty`` riding the parallel
execution backends: ``scenario_sweep`` replays one runner's settings
(scheduler, config overrides, round sink) over the seeds, and the
aggregate metrics are identical whichever backend ran the sweep.

Run:  python examples/scenario_replay.py
"""

from repro.scenarios import (
    ScenarioRunner,
    make_scenario,
    scenario_sweep,
    sweep_summary,
)

ROUNDS = 12
SCHEDULERS = ("oef-coop", "gavel")


def replay(scenario_name: str) -> None:
    scenario = make_scenario(scenario_name, seed=7, rounds=ROUNDS)
    script = scenario.materialize()
    print(
        f"\n== {scenario_name} ==  ({len(script.initial_tenants)} initial "
        f"tenants, {len(script.events)} timed events)"
    )
    for scheduler in SCHEDULERS:
        result = ScenarioRunner(scenario, scheduler=scheduler).run()
        print(
            f"{scheduler:<10} jobs done {result.completed_jobs:3d}   "
            f"mean JCT {result.mean_jct / 3600.0:5.2f} h   "
            f"util {result.mean_utilization:4.0%}   "
            f"jain {result.mean_jain:.3f}   "
            f"envy {result.mean_envy:.3f}   "
            f"starvation {result.total_starvation:3d}"
        )


def sweep() -> None:
    print("\n== bursty, seeds 1-4, thread backend ==")
    runner = ScenarioRunner(make_scenario("bursty", rounds=ROUNDS), "oef-coop")
    results = scenario_sweep(runner, seeds=[1, 2, 3, 4], backend="thread")
    summary = sweep_summary(results)
    for key, value in summary.items():
        print(f"  {key}: {value:.3f}" if isinstance(value, float) else f"  {key}: {value}")


def main() -> None:
    for name in ("philly-replay", "bursty"):
        replay(name)
    sweep()


if __name__ == "__main__":
    main()
