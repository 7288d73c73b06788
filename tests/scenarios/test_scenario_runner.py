"""ScenarioRunner, warm/cold differential replay, backend sweeps, and the CLI."""

import io
from contextlib import redirect_stdout

import pytest

from repro.cli import main as cli_main
from repro.exceptions import ValidationError
from repro.scenarios import (
    ScenarioResult,
    ScenarioRunner,
    make_scenario,
    scenario_names,
    scenario_sweep,
    sweep_summary,
)

ROUNDS = 6
COLD = {"warm_start": False}


def _replay(scenario, scheduler="oef-coop", config_overrides=None):
    """One replay plus the per-round records its round sink saw."""
    records = []
    result = ScenarioRunner(
        scenario, scheduler, config_overrides=config_overrides,
        round_sink=records.append,
    ).run()
    return result, records


class TestScenarioRunner:
    def test_end_to_end_result_shape(self):
        result, records = _replay(make_scenario("bursty", seed=7, rounds=ROUNDS))
        assert isinstance(result, ScenarioResult)
        assert result.scenario_name == "bursty"
        assert result.scheduler == "oef-coop"
        assert 0 < result.num_rounds <= ROUNDS
        assert result.num_events > 0
        assert result.completed_jobs > 0
        assert len(records) == result.num_rounds
        for record in records:
            assert 0.0 <= record.utilization <= 1.0
            assert 0.0 <= record.jain <= 1.0
            assert 0.0 <= record.envy <= 1.0

    def test_runner_accepts_scenario_name_string(self):
        result = ScenarioRunner("steady", scheduler="gavel").run()
        assert result.scenario_name == "steady"
        assert result.scheduler == "gavel"

    def test_repeated_runs_are_identical(self):
        runner = ScenarioRunner(make_scenario("tenant-churn", seed=4, rounds=ROUNDS))
        assert runner.run().summary_row() == runner.run().summary_row()

    def test_same_stream_under_two_schedulers(self):
        scenario = make_scenario("bursty", seed=3, rounds=ROUNDS)
        oef = ScenarioRunner(scenario, scheduler="oef-coop").run()
        gavel = ScenarioRunner(scenario, scheduler="gavel").run()
        # identical workload (events), different scheduling outcomes allowed
        assert oef.num_events == gavel.num_events
        assert oef.seed == gavel.seed

    def test_recipe_params_reach_the_replay(self):
        scenario = make_scenario("bursty", seed=1, rounds=ROUNDS, num_bursts=1)
        result = ScenarioRunner(scenario, "max-min").run()
        assert result.scheduler == "max-min"
        assert result.num_events == 4  # one burst x burst_jobs default

    def test_summary_row_keys(self):
        row = ScenarioRunner(make_scenario("steady", rounds=4)).run().summary_row()
        assert set(row) == {
            "scenario", "scheduler", "seed", "rounds", "events", "jobs done",
            "mean JCT (h)", "utilization", "jain", "envy", "starvation",
        }


class TestDifferentialReplay:
    """Warm replay must be bit-identical to cold, for every library scenario.

    The differential harness of the incremental solve engine: the
    :meth:`ScenarioResult.fingerprint` covers every per-round record,
    every per-round scheduler estimate/actual, and every completion at
    full float precision, so equality here means the warm engine changed
    *nothing* but wall time.
    """

    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_warm_equals_cold_everywhere(self, name):
        scenario = make_scenario(name, seed=2, rounds=ROUNDS)
        warm, warm_records = _replay(scenario)
        cold, cold_records = _replay(scenario, config_overrides=COLD)
        assert warm.fingerprint() == cold.fingerprint()
        assert warm_records == cold_records
        assert warm.summary_row() == cold.summary_row()
        assert cold.warm_hits == 0

    def test_warm_engine_actually_fires(self):
        result = ScenarioRunner(make_scenario("steady", seed=0, rounds=ROUNDS)).run()
        assert result.warm_hits > 0
        assert result.warm_hits + result.cold_solves == result.num_rounds

    def test_warm_equals_cold_for_baseline_scheduler(self):
        scenario = make_scenario("bursty", seed=5, rounds=ROUNDS)
        warm = ScenarioRunner(scenario, scheduler="gavel").run()
        cold = ScenarioRunner(
            scenario, scheduler="gavel", config_overrides=COLD
        ).run()
        assert warm.fingerprint() == cold.fingerprint()

    def test_elastic_scheduler_never_warm_starts(self):
        # job-level decisions depend on live job state the decision key
        # cannot cover, so every round must solve cold even with the memo on
        scenario = make_scenario("steady", seed=0, rounds=3)
        result = ScenarioRunner(scenario, scheduler="oef-elastic-coop").run()
        assert result.warm_hits == 0
        assert result.cold_solves == result.num_rounds

    def test_fingerprint_distinguishes_real_differences(self):
        steady = ScenarioRunner(make_scenario("steady", seed=0, rounds=4)).run()
        other_seed = ScenarioRunner(make_scenario("steady", seed=1, rounds=4)).run()
        other_sched = ScenarioRunner(
            make_scenario("steady", seed=0, rounds=4), scheduler="gavel"
        ).run()
        assert steady.fingerprint() != other_seed.fingerprint()
        assert steady.fingerprint() != other_sched.fingerprint()
        # and is reproducible for an identical replay
        again = ScenarioRunner(make_scenario("steady", seed=0, rounds=4)).run()
        assert steady.fingerprint() == again.fingerprint()

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_warm_and_cold_sweeps_agree_on_every_backend(self, backend):
        """scenario fingerprints: warm/cold x serial/thread/process all equal."""
        seeds = [1, 2]
        warm = scenario_sweep(
            ScenarioRunner("bursty"), seeds, backend=backend, max_workers=2
        )
        cold = scenario_sweep(
            ScenarioRunner("bursty", config_overrides=COLD),
            seeds, backend=backend, max_workers=2,
        )
        serial_warm = scenario_sweep(ScenarioRunner("bursty"), seeds, backend="serial")
        assert [r.fingerprint() for r in warm] == [r.fingerprint() for r in cold]
        assert [r.warm_hits for r in cold] == [0, 0]  # the override travelled
        assert [r.fingerprint() for r in warm] == [
            r.fingerprint() for r in serial_warm
        ]


class TestSweepDeterminism:
    """Same scenario + seeds => identical metrics on every backend."""

    def test_serial_and_thread_backends_agree(self):
        seeds = [1, 2, 3]
        runner = ScenarioRunner("bursty", "oef-coop")
        serial = scenario_sweep(runner, seeds, backend="serial")
        threaded = scenario_sweep(runner, seeds, backend="thread", max_workers=3)
        assert [r.summary_row() for r in serial] == [
            r.summary_row() for r in threaded
        ]
        assert sweep_summary(serial) == sweep_summary(threaded)

    def test_process_backend_agrees_without_degrading(self):
        import warnings

        seeds = [1, 2]
        runner = ScenarioRunner("tenant-churn")
        serial = scenario_sweep(runner, seeds, backend="serial")
        # recipes must be picklable: no thread-degradation RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            processed = scenario_sweep(
                runner, seeds, backend="process", max_workers=2
            )
        assert [r.summary_row() for r in serial] == [
            r.summary_row() for r in processed
        ]

    def test_results_come_back_in_seed_order(self):
        results = scenario_sweep(
            ScenarioRunner("steady"), [5, 3, 9], backend="thread"
        )
        assert [r.seed for r in results] == [5, 3, 9]

    def test_sweep_keeps_the_runner_scheduler(self):
        (result,) = scenario_sweep(
            ScenarioRunner(make_scenario("steady", rounds=3), "gavel"), [4],
            backend="serial",
        )
        assert (result.scheduler, result.seed) == ("gavel", 4)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValidationError, match="at least one seed"):
            scenario_sweep(ScenarioRunner("steady"), [])

    def test_a_recipe_is_not_a_runner(self):
        with pytest.raises(ValidationError, match="takes a ScenarioRunner"):
            scenario_sweep("steady", [1])


class TestCLISimulate:
    def _run(self, *argv):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(list(argv))
        return code, buffer.getvalue()

    def test_single_replay(self):
        code, out = self._run(
            "simulate", "--scenario", "bursty", "--rounds", "3", "--seed", "7"
        )
        assert code == 0
        assert "bursty" in out and "oef-coop" in out
        assert "jobs done" in out

    def test_multi_scheduler_multi_seed_sweep(self):
        code, out = self._run(
            "simulate", "--scenario", "steady", "--rounds", "3",
            "--scheduler", "oef-coop", "gavel",
            "--seeds", "1", "2", "--backend", "thread", "--jobs", "2",
        )
        assert code == 0
        assert "gavel" in out
        assert "mean jobs done" in out  # aggregated sweep rows

    def test_list_scenarios(self):
        code, out = self._run("list-scenarios")
        assert code == 0
        for name in ("steady", "bursty", "diurnal", "tenant-churn", "philly-replay"):
            assert name in out

    def test_cold_flag(self):
        code, out = self._run(
            "simulate", "--scenario", "steady", "--rounds", "3", "--cold"
        )
        assert code == 0
        assert "warm-start disabled" in out

    def test_warm_note_printed_by_default(self):
        code, out = self._run(
            "simulate", "--scenario", "steady", "--rounds", "3"
        )
        assert code == 0
        assert "warm-started" in out

    def test_cold_and_warm_tables_match(self):
        _, warm_out = self._run(
            "simulate", "--scenario", "bursty", "--rounds", "4", "--seed", "3"
        )
        _, cold_out = self._run(
            "simulate", "--scenario", "bursty", "--rounds", "4", "--seed", "3",
            "--cold",
        )
        # identical scheduling outcomes: the summary tables line up exactly
        warm_table = [l for l in warm_out.splitlines() if l.startswith("bursty")]
        cold_table = [l for l in cold_out.splitlines() if l.startswith("bursty")]
        assert warm_table == cold_table
