"""Deviation rounding (§4.3): capacity, convergence, min-demand rule."""

import numpy as np
import pytest

from repro.cluster import DeviationRounder
from repro.cluster.rounding import RoundingResult
from repro.exceptions import ValidationError
from round_views import round_dict


class TestDeviationRounder:
    def test_integral_output(self):
        rounder = DeviationRounder()
        result = round_dict(rounder, {"a": np.array([1.4, 0.6])}, [8.0, 8.0])
        assert result.grants["a"].dtype.kind == "i"

    def test_capacity_never_exceeded(self):
        rounder = DeviationRounder()
        ideal = {f"t{i}": np.array([0.7, 0.7]) for i in range(10)}
        for _ in range(20):
            result = round_dict(rounder, ideal, [4.0, 4.0])
            total = np.sum(list(result.grants.values()), axis=0)
            assert np.all(total <= 4 + 1e-9)

    def test_long_run_average_converges_to_ideal(self):
        rounder = DeviationRounder()
        ideal = {"a": np.array([0.5, 1.5]), "b": np.array([1.5, 0.5])}
        totals = {"a": np.zeros(2), "b": np.zeros(2)}
        rounds = 40
        for _ in range(rounds):
            result = round_dict(rounder, ideal, [2.0, 2.0])
            for name in totals:
                totals[name] += result.grants[name]
        np.testing.assert_allclose(totals["a"] / rounds, [0.5, 1.5], atol=0.06)
        np.testing.assert_allclose(totals["b"] / rounds, [1.5, 0.5], atol=0.06)

    def test_fractional_share_eventually_served(self):
        # a tenant with ideal 0.25 must run once every ~4 rounds
        rounder = DeviationRounder()
        ideal = {
            "small": np.array([0.25]),
            "big": np.array([0.75]),
        }
        grants = []
        for _ in range(8):
            result = round_dict(rounder, ideal, [1.0])
            grants.append(int(result.grants["small"][0]))
        assert sum(grants) == 2  # 8 * 0.25

    def test_min_demand_zeroes_small_grants(self):
        rounder = DeviationRounder()
        ideal = {"a": np.array([1.0, 0.0]), "b": np.array([3.0, 0.0])}
        result = round_dict(
            rounder, ideal, [4.0, 4.0], min_demands={"a": 2, "b": 1}
        )
        assert result.grants["a"].sum() == 0
        assert "a" in result.zeroed_tenants

    def test_zeroing_accumulates_deviation_until_runnable(self):
        rounder = DeviationRounder()
        ideal = {"a": np.array([1.0]), "b": np.array([3.0])}
        granted = []
        for _ in range(4):
            result = round_dict(rounder, ideal, [4.0], min_demands={"a": 2, "b": 1})
            granted.append(result.grants["a"].tolist())
        # the deviation zeroed in round 0 buys a 2-GPU grant in round 1
        assert granted == [[0], [2], [0], [2]]

    def test_redistribution_keeps_work_conserving(self):
        rounder = DeviationRounder()
        ideal = {"a": np.array([1.0]), "b": np.array([3.0])}
        result = round_dict(rounder, ideal, [4.0], min_demands={"a": 2, "b": 1})
        if result.grants["a"].sum() == 0:
            assert result.grants["b"].sum() == 4

    def test_zeroed_devices_go_to_a_runnable_tenant_in_the_same_round(self):
        rounder = DeviationRounder()
        ideal = {"a": np.array([1.0, 0.0]), "b": np.array([3.0, 2.0])}
        result = round_dict(rounder, ideal, [4.0, 2.0], min_demands={"a": 2, "b": 1})
        assert result.zeroed_tenants == ["a"]
        assert result.rows() == (["a", "b"], [[0, 0], [4, 2]])
        # b's extra device is owed back: its deviation goes negative
        np.testing.assert_array_equal(rounder.deviation("b"), [-1.0, 0.0])

    def test_forget_drops_state(self):
        rounder = DeviationRounder()
        round_dict(rounder, {"a": np.array([0.4])}, [1.0])
        assert rounder.deviation("a").shape == (1,)
        rounder.forget("a")
        assert rounder.deviation("a").size == 0

    def test_forgotten_row_reused_from_zero(self):
        rounder = DeviationRounder()
        round_dict(rounder, {"a": np.array([0.4]), "b": np.array([0.3])}, [1.0])
        rounder.forget("a")
        round_dict(rounder, {"c": np.array([0.2]), "b": np.array([0.3])}, [1.0])
        fresh = DeviationRounder()
        round_dict(fresh, {"c": np.array([0.2])}, [0.0])
        np.testing.assert_array_equal(rounder.deviation("c"), fresh.deviation("c"))
        assert rounder.deviation("a").size == 0

    def test_new_type_count_starts_from_zero(self):
        rounder = DeviationRounder()
        round_dict(rounder, {"a": np.array([0.4])}, [1.0])
        round_dict(rounder, {"a": np.array([0.4, 0.4])}, [1.0, 1.0])
        fresh = DeviationRounder()
        round_dict(fresh, {"a": np.array([0.4, 0.4])}, [1.0, 1.0])
        np.testing.assert_array_equal(rounder.deviation("a"), fresh.deviation("a"))

    def test_shape_mismatch_rejected(self):
        rounder = DeviationRounder()
        with pytest.raises(ValidationError):
            round_dict(rounder, {"a": np.array([0.4])}, [1.0, 1.0])

    def test_empty_input(self):
        rounder = DeviationRounder()
        result = round_dict(rounder, {}, [2.0])
        assert result.grants == {}
        assert result.rows() == ([], [])
        assert result.matrix.shape == (0, 1)

    def test_rows_are_the_grants_as_python_ints(self):
        rounder = DeviationRounder()
        ideal = {"a": np.array([1.4, 0.6]), "b": np.array([0.6, 1.4])}
        for _ in range(5):
            result = round_dict(rounder, ideal, [2.0, 2.0])
            tenants, rows = result.rows()
            assert tenants == list(result.grants) == ["a", "b"]
            assert result.matrix.dtype.kind == "i"
            assert result.grants is result.grants  # derived once
            for row, grant in zip(rows, result.grants.values()):
                assert row == grant.tolist()
                assert {type(count) for count in row} == {int}

    def test_a_result_built_from_arrays_derives_its_rows(self):
        result = RoundingResult(["a"], np.array([[1, 2]]), ["b"])
        assert result.rows() == (["a"], [[1, 2]])
        assert {type(count) for count in result.rows()[1][0]} == {int}
        assert result.zeroed_tenants == ["b"]

    def test_no_devices_granted_beyond_requests(self):
        rounder = DeviationRounder()
        result = round_dict(
            rounder, {"a": np.array([0.5, 0.0])}, [8.0, 8.0]
        )
        # nobody asked for type 2; largest-remainder must not hand it out
        assert result.grants["a"][1] == 0

    def test_equal_remainders_go_to_the_first_rows(self):
        # 12 remainders of 0.5 compete for 9 devices: the first nine win,
        # whichever sort kernel numpy dispatches on this CPU
        ideal = {
            f"t{row:02d}": np.array([0.5 if row % 2 else 0.25]) for row in range(24)
        }
        grants = round_dict(DeviationRounder(), ideal, [9.0]).grants
        granted = [row for row, grant in enumerate(grants.values()) if grant[0]]
        assert granted == list(range(1, 18, 2))

    def test_oversubscribed_shave_takes_the_first_of_equal_grants(self):
        target = np.full(6, 2.0)
        np.testing.assert_array_equal(
            DeviationRounder._largest_remainder(target, 9), [0, 1, 2, 2, 2, 2]
        )




class TestPreparedQuestion:
    """One question prepared per epoch rounds like a fresh one every round."""

    @staticmethod
    def _ideal():
        return {"a": np.array([0.4, 1.3]), "b": np.array([2.2, 0.3])}

    def _rounds_alike(self, live, question, fresh, ideal, rounds=5):
        for _ in range(rounds):
            got = live.round_shares(question)
            want = round_dict(fresh, ideal, [4.0, 2.0], {"a": 2, "b": 1})
            assert got.zeroed_tenants == want.zeroed_tenants
            for name in ideal:
                np.testing.assert_array_equal(got.grants[name], want.grants[name])
                np.testing.assert_array_equal(
                    live.deviation(name), fresh.deviation(name)
                )

    def test_reuse_matches_rounding_the_dicts(self):
        live, fresh = DeviationRounder(), DeviationRounder()
        question = live.prepare(self._ideal(), [4.0, 2.0], {"a": 2, "b": 1})
        self._rounds_alike(live, question, fresh, self._ideal())

    def test_the_caller_editing_its_inputs_changes_nothing(self):
        live, fresh = DeviationRounder(), DeviationRounder()
        ideal, capacities, demands = self._ideal(), [4.0, 2.0], {"a": 2, "b": 1}
        question = live.prepare(ideal, capacities, demands)
        ideal["a"][:] = 9.0
        ideal["c"] = np.array([1.0, 1.0])
        capacities[0] = 0.0
        demands["b"] = 5
        self._rounds_alike(live, question, fresh, self._ideal())

    def test_a_row_changing_hands_is_seen(self):
        # "a" is forgotten and "c" takes its row: a reused question must
        # not write a's deviation into c's row
        live, fresh = DeviationRounder(), DeviationRounder()
        for rounder in (live, fresh):
            round_dict(rounder, {"c": np.array([0.1, 0.1])}, [4.0, 2.0])
        question = live.prepare(self._ideal(), [4.0, 2.0], {"a": 2, "b": 1})
        self._rounds_alike(live, question, fresh, self._ideal(), rounds=1)
        for rounder in (live, fresh):
            rounder.forget("c")
            rounder.forget("a")
            round_dict(rounder, {"c": np.array([0.7, 0.2])}, [4.0, 2.0])
        self._rounds_alike(live, question, fresh, self._ideal())
        np.testing.assert_array_equal(live.deviation("c"), fresh.deviation("c"))


class TestStarvationGuarantee:
    """§4.3: a zeroed tenant's deviation builds until it gets a runnable grant."""

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "§4.3 hand case (ROADMAP item 1): with two tenants of demand 8 and "
            "ideal 4 on one type of 8 devices, over 200 rounds t0 never runs, "
            "100 rounds grant nothing and |dev| reaches 800; the oversubscribed "
            "shave cuts the most-owed tenant first"
        ),
    )
    def test_two_tenants_of_half_the_type_each_run(self):
        rounder = DeviationRounder()
        ideal = {"t0": np.array([4.0]), "t1": np.array([4.0])}
        demands = {"t0": 8, "t1": 8}
        runs = dict.fromkeys(ideal, 0)
        idle_rounds = 0
        worst = 0.0
        for _ in range(200):
            grants = round_dict(rounder, ideal, [8.0], demands).grants
            for name, grant in grants.items():
                runs[name] += int(grant.sum() >= demands[name])
                worst = max(worst, float(np.abs(rounder.deviation(name)).max()))
            idle_rounds += all(grant.sum() == 0 for grant in grants.values())
        assert min(runs.values()) > 0
        assert idle_rounds == 0
        assert worst <= 8

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "§4.3 hand case (ROADMAP item 1): with tenants of demand 4/4/8 and "
            "ideal 2/2/4 on one type of 8 devices, over 200 rounds t2 never "
            "runs, 100 rounds grant nothing and |dev| reaches 800"
        ),
    )
    def test_three_tenants_of_demand_4_4_8_each_run(self):
        rounder = DeviationRounder()
        ideal = {"t0": np.array([2.0]), "t1": np.array([2.0]), "t2": np.array([4.0])}
        demands = {"t0": 4, "t1": 4, "t2": 8}
        runs = dict.fromkeys(ideal, 0)
        idle_rounds = 0
        worst = 0.0
        for _ in range(200):
            grants = round_dict(rounder, ideal, [8.0], demands).grants
            for name, grant in grants.items():
                runs[name] += int(grant.sum() >= demands[name])
                worst = max(worst, float(np.abs(rounder.deviation(name)).max()))
            idle_rounds += all(grant.sum() == 0 for grant in grants.values())
        assert min(runs.values()) > 0
        assert idle_rounds == 0
        assert worst <= 8
