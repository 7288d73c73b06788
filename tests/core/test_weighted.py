"""Weighted OEF and virtual-user expansion (§4.2.3–4.2.4)."""

import numpy as np
import pytest

from repro.core import (
    JobTypeSpec,
    TenantSpec,
    VirtualUserExpansion,
    WeightedOEF,
)
from repro.exceptions import ValidationError


def _two_tenants(weight2: float = 1.0):
    return [
        TenantSpec.single("u1", [1.0, 2.0], weight=1.0),
        TenantSpec.single("u2", [1.0, 5.0], weight=weight2),
    ]


class TestSpecs:
    def test_job_type_normalised(self):
        job = JobTypeSpec.of("j", [2.0, 4.0])
        assert job.speedups == (1.0, 2.0)

    def test_job_type_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            JobTypeSpec.of("j", [1.0, 0.0])

    def test_job_type_rejects_matrix(self):
        with pytest.raises(ValidationError):
            JobTypeSpec.of("j", [[1.0, 2.0]])

    def test_tenant_requires_job_types(self):
        with pytest.raises(ValidationError):
            TenantSpec.of("t", [])

    def test_tenant_rejects_zero_weight(self):
        with pytest.raises(ValidationError):
            TenantSpec.single("t", [1.0, 2.0], weight=0.0)

    def test_tenant_rejects_mixed_type_counts(self):
        with pytest.raises(ValidationError):
            TenantSpec.of(
                "t",
                [JobTypeSpec.of("a", [1, 2]), JobTypeSpec.of("b", [1, 2, 3])],
            )


def _multiplicities(tenants):
    """``"tenant/job type"`` -> the weight that row enters the LP with."""
    expansion = VirtualUserExpansion(tenants)
    return dict(zip(expansion.expanded_matrix().users, expansion.weights.tolist()))


class TestExpansion:
    """Weights are multiplicities of one row each, never replica counts."""

    def test_unit_weights_unit_multiplicity_each(self):
        assert _multiplicities(_two_tenants()) == {"u1/u1/job": 1.0, "u2/u2/job": 1.0}

    def test_integer_weight_is_a_two_to_one_multiplicity(self):
        counts = _multiplicities(_two_tenants(weight2=2.0))
        assert counts["u2/u2/job"] == 2 * counts["u1/u1/job"]

    def test_fractional_weight_stays_fractional(self):
        tenants = [
            TenantSpec.single("a", [1, 2], weight=1.5),
            TenantSpec.single("b", [1, 2], weight=1.0),
        ]
        counts = _multiplicities(tenants)
        # 3:2 without scaling anything to integers
        assert counts == {"a/a/job": 1.5, "b/b/job": 1.0}

    def test_job_types_split_weight(self):
        tenants = [
            TenantSpec.of(
                "t",
                [JobTypeSpec.of("x", [1, 2]), JobTypeSpec.of("y", [1, 3])],
                weight=1.0,
            ),
            TenantSpec.single("s", [1, 4]),
        ]
        counts = _multiplicities(tenants)
        # tenant t: 1/2 weight per job type; tenant s: weight 1
        assert counts == {"t/x": 0.5, "t/y": 0.5, "s/s/job": 1.0}

    def test_expanded_matrix_has_one_row_per_tenant_job_type(self):
        expansion = VirtualUserExpansion(_two_tenants(weight2=2.0))
        matrix = expansion.expanded_matrix()
        assert matrix.num_users == 2  # weight 2 is a multiplier, not a second row
        assert matrix.users == ["u1/u1/job", "u2/u2/job"]
        np.testing.assert_array_equal(expansion.weights, [1.0, 2.0])

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValidationError):
            VirtualUserExpansion(
                [TenantSpec.single("x", [1, 2]), TenantSpec.single("x", [1, 3])]
            )

    def test_mismatched_gpu_type_counts_rejected(self):
        with pytest.raises(ValidationError):
            VirtualUserExpansion(
                [TenantSpec.single("a", [1, 2]), TenantSpec.single("b", [1, 2, 3])]
            )


class TestRowsFold:
    """Plain tuples fold like specs, and ``merge`` keeps the loop's bits."""

    def test_rows_and_specs_give_the_same_bytes(self):
        rows = [("a", 1.5, [("x", [1.0, 2.0]), ("y", [2.0, 3.0])]), ("b", 1.0, [("z", [1, 5])])]
        specs = [
            TenantSpec.of(name, [JobTypeSpec.of(job, v) for job, v in jobs], weight=w)
            for name, w, jobs in rows
        ]
        for mode in ("cooperative", "noncooperative"):
            by_rows = WeightedOEF(mode=mode).allocate(rows, [1.0, 2.0])
            by_specs = WeightedOEF(mode=mode).allocate(specs, [1.0, 2.0])
            assert by_rows.expanded.matrix.tobytes() == by_specs.expanded.matrix.tobytes()
            assert by_rows.weights.tobytes() == by_specs.weights.tobytes()
            for name in ("a", "b"):
                assert (by_rows.tenant_shares[name].tobytes()
                        == by_specs.tenant_shares[name].tobytes())

    def test_merge_matches_the_per_row_loop_bit_for_bit(self):
        from repro.core import Allocation, ProblemInstance

        rng = np.random.default_rng(29)
        for _case in range(60):
            types = int(rng.integers(1, 11))
            tenants = [
                (f"t{t}", float(rng.choice([0.5, 1.0, 1.3])), [
                    (f"j{j}", np.concatenate(
                        [[1.0], 1.0 + np.sort(rng.uniform(0.0, 3.0, types - 1))]))
                    for j in range(int(rng.integers(1, 4)))
                ])
                for t in range(int(rng.integers(1, 8)))
            ]
            expansion = VirtualUserExpansion(tenants)
            matrix = expansion.expanded_matrix()
            shares = rng.uniform(0.0, 1.0, (matrix.num_users, types))
            shares[rng.uniform(size=shares.shape) < 0.3] = 0.0
            allocation = Allocation(shares, ProblemInstance(matrix, shares.sum(axis=0) + 1))
            merged = expansion.merge(allocation)
            rows = zip(matrix.values, allocation.matrix)
            for name, _weight, jobs in tenants:
                # the loop version: one W_l @ x_l per row, np.sum over the rows
                own = [next(rows) for _job in jobs]
                want = [float(w @ x) for w, x in own]
                got = [merged.job_type_throughput[name][job] for job, _v in jobs]
                assert np.array(got).tobytes() == np.array(want).tobytes()
                assert merged.tenant_throughput[name] == sum(want, 0.0)
                assert (merged.tenant_shares[name].tobytes()
                        == np.sum([x.copy() for _w, x in own], axis=0).tobytes())


def _floats(values):
    return np.array(list(values), dtype=float).tobytes()


def _assert_same_merge(got, want):
    assert got.expanded.matrix.tobytes() == want.expanded.matrix.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()
    assert list(got.tenant_shares) == list(want.tenant_shares)
    for name, share in want.tenant_shares.items():
        assert got.tenant_shares[name].tobytes() == share.tobytes()
        assert got.tenant_throughput[name] == want.tenant_throughput[name]
        assert list(got.job_type_shares[name]) == list(want.job_type_shares[name])
        for job, job_share in want.job_type_shares[name].items():
            assert got.job_type_shares[name][job].tobytes() == job_share.tobytes()
        assert (_floats(got.job_type_throughput[name].values())
                == _floats(want.job_type_throughput[name].values()))
    assert (_floats(got.tenant_throughput.values())
            == _floats(want.tenant_throughput.values()))


def _random_rows(rng, types):
    """Tenant rows with weights other than 1, up to three job types each,
    and profiles repeated across and within tenants (some entered scaled,
    which normalises to the same bytes)."""
    pool = [np.concatenate([[1.0], 1.0 + np.sort(rng.uniform(0.0, 3.0, types - 1))])
            for _ in range(int(rng.integers(1, 6)))]
    return [
        (f"t{t}", float(rng.choice([0.5, 1.0, 1.3, 2.0])), [
            (f"j{j}", pool[int(rng.integers(len(pool)))] * float(rng.choice([1.0, 2.0, 3.7])))
            for j in range(int(rng.integers(1, 4)))
        ])
        for t in range(int(rng.integers(1, 12)))
    ]


class TestOneFold:
    """The lean fold gives the 5.1 chain's bytes (``reference_fold.py``):
    ``VirtualUserExpansion`` -> ``ProblemInstance`` -> ``grouped`` ->
    ``allocate_with_state`` -> ``merge``."""

    @pytest.mark.parametrize("mode", ["cooperative", "noncooperative"])
    def test_merged_allocation_matches_the_5_1_chain(self, mode):
        import reference_fold
        from repro.core import CooperativeOEF, NonCooperativeOEF, ProblemInstance

        solver = CooperativeOEF if mode == "cooperative" else NonCooperativeOEF
        rng = np.random.default_rng(38)
        for _case in range(40):
            types = int(rng.integers(1, 7))
            tenants = _random_rows(rng, types)
            capacities = rng.uniform(0.5, 8.0, types)
            old, new = reference_fold.VirtualUserExpansion(tenants), VirtualUserExpansion(tenants)
            old_matrix, new_matrix = old.expanded_matrix(), new.expanded_matrix()
            assert new_matrix.values.tobytes() == old_matrix.values.tobytes()
            assert new_matrix.users == old_matrix.users
            assert new.weights.tobytes() == old.weights.tobytes()
            instance = ProblemInstance(new_matrix, capacities)
            assert (instance.capacities.tobytes()
                    == reference_fold.check_capacities(old_matrix, capacities).tobytes())
            want_groups = reference_fold.grouped(instance, old.weights)
            groups = instance.grouped(new.weights)
            for field in ("speedups", "multiplicity", "member_group", "member_fraction"):
                want = getattr(want_groups, field)
                assert getattr(groups, field).dtype == want.dtype
                assert getattr(groups, field).tobytes() == want.tobytes()
            allocation = solver().allocate_with_state(instance, weights=new.weights)
            _assert_same_merge(new.merge(allocation), old.merge(allocation))
            _assert_same_merge(
                WeightedOEF(mode=mode).allocate(tenants, capacities), old.merge(allocation)
            )

    @pytest.mark.parametrize("mode", ["cooperative", "noncooperative"])
    def test_multi_job_tenants_fold_as_the_row_chain_across_the_cut_line(self, mode):
        """No library recipe has a tenant with several models, so no replay
        fingerprint sees ``merge`` split one: here every case has tenants
        training two or three job types of their own profiles, at weights
        other than 1, some folding with another tenant's, and every third
        case has enough distinct profiles to take ``oef-coop``'s cuts.
        The references are the per-row chain (expansion, ``ProblemInstance``,
        ``grouped``, ``merge``) as the live code and as 5.1's."""
        import reference_fold
        from repro.core import CooperativeOEF, NonCooperativeOEF, ProblemInstance

        solver = CooperativeOEF if mode == "cooperative" else NonCooperativeOEF
        rng = np.random.default_rng(51)
        cut_cases = 0
        for case in range(12):
            wide = case % 3 == 0  # about 30 distinct profiles: past the cut line
            types = int(rng.integers(2, 6))
            pool = [np.concatenate([[1.0], 1.0 + np.sort(rng.uniform(0.0, 3.0, types - 1))])
                    for _ in range(80 if wide else int(rng.integers(2, 8)))]
            tenants = [
                (f"t{t}", float(rng.choice([0.5, 1.3, 2.0, 3.0])), [
                    (f"j{j}", pool[int(rng.integers(len(pool)))]) for j in range(1 + (t + case) % 3)
                ])
                for t in range(20 if wide else int(rng.integers(3, 12)))
            ]
            capacities = rng.uniform(0.5, 8.0, types)
            got = WeightedOEF(mode=mode).allocate(tenants, capacities)

            rows = VirtualUserExpansion(tenants)
            instance = ProblemInstance(rows.expanded_matrix(), capacities)
            cut_cases += solver is CooperativeOEF and (
                instance.grouped(rows.weights).count > CooperativeOEF.CUTTING_PLANE_THRESHOLD)
            allocation = solver().allocate_with_state(instance, weights=rows.weights)
            allocation.matrix.setflags(write=False)
            _assert_same_merge(got, rows.merge(allocation))

            old = reference_fold.VirtualUserExpansion(tenants)
            old_instance = ProblemInstance(old.expanded_matrix(), capacities)
            groups = reference_fold.grouped(old_instance, old.weights)
            _assert_same_merge(
                got, old.merge(solver().allocate_with_state(old_instance, groups=groups))
            )
            assert got.expanded.instance.speedups.users == old.expanded_matrix().users
            for name, jobs in got.job_type_shares.items():
                assert not got.tenant_shares[name].flags.writeable
                assert all(not share.flags.writeable for share in jobs.values())
        assert cut_cases == (4 if mode == "cooperative" else 0)

    @pytest.mark.parametrize(
        "tenants, capacities",
        [
            ([], [1.0, 1.0]),
            ([("a", 1.0, [])], [1.0, 1.0]),
            ([("a", 0.0, [("x", [1.0, 2.0])])], [1.0, 1.0]),
            ([("a", -1.0, [("x", [1.0, 2.0])])], [1.0, 1.0]),
            ([("a", float("nan"), [("x", [1.0, 2.0])])], [1.0, 1.0]),
            ([("a", 1.0, [("x", [1.0, 2.0])]), ("a", 1.0, [("y", [1.0, 3.0])])], [1.0, 1.0]),
            ([("a", 1.0, [("x", [1.0, 2.0]), ("y", [1.0, 2.0, 3.0])])], [1.0, 1.0]),
            ([("a", 1.0, [("x", [])])], [1.0, 1.0]),
            ([("a", 1.0, [("x", [[1.0, 2.0]])])], [1.0, 1.0]),
            ([("a", 1.0, [("x", [1.0, float("inf")])])], [1.0, 1.0]),
            ([("a", 1.0, [("x", [float("nan"), 1.0])])], [1.0, 1.0]),
            ([("a", 1.0, [("x", [1.0, 0.0])])], [1.0, 1.0]),
            ([("a", 1.0, [("x", [-1.0, -2.0])])], [1.0, 1.0]),
            # finite and positive, but not once divided by the first entry
            ([("a", 1.0, [("x", [1e-300, 1e300])])], [1.0, 1.0]),
            ([("a", 1.0, [("x", [1e300, 1e-300])])], [1.0, 1.0]),
            ([("a", 1.0, [("x", [1.0, 2.0])])], [1.0, 1.0, 1.0]),
            ([("a", 1.0, [("x", [1.0, 2.0])])], [1.0, -1.0]),
            ([("a", 1.0, [("x", [1.0, 2.0])])], [1.0, float("nan")]),
            ([("a", 1.0, [("x", [1.0, 2.0])])], [0.0, 0.0]),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide")
    def test_every_validation_error_keeps_its_message(self, tenants, capacities):
        import reference_fold

        with pytest.raises(ValidationError) as want:
            old = reference_fold.VirtualUserExpansion(tenants)
            reference_fold.check_capacities(old.expanded_matrix(), capacities)
        for mode in ("cooperative", "noncooperative"):
            with pytest.raises(ValidationError) as got:
                WeightedOEF(mode=mode).allocate(tenants, capacities)
            assert str(got.value) == str(want.value)


class TestNonFiniteWeights:
    """NaN and infinite weights stop at the fold, not in the LP."""

    @pytest.mark.parametrize("mode", ["cooperative", "noncooperative"])
    def test_an_infinite_tenant_weight_is_refused(self, mode):
        tenants = [("a", float("inf"), [("x", [1.0, 2.0])]), ("b", 1.0, [("y", [1.0, 3.0])])]
        with pytest.raises(ValidationError, match="tenant 'a': weight must be finite"):
            WeightedOEF(mode=mode).allocate(tenants, [1.0, 1.0])

    @pytest.mark.parametrize("weight, says", [(float("nan"), "positive"), (float("inf"), "finite")])
    def test_a_spec_refuses_them(self, weight, says):
        with pytest.raises(ValidationError, match=f"weight must be {says}"):
            TenantSpec.single("a", [1.0, 2.0], weight=weight)


class TestWeightedAllocation:
    def test_weight_doubles_throughput_noncoop(self):
        merged = WeightedOEF(mode="noncooperative").allocate(
            _two_tenants(weight2=2.0), [1.0, 1.0]
        )
        ratio = merged.tenant_throughput["u2"] / merged.tenant_throughput["u1"]
        assert ratio == pytest.approx(2.0, rel=1e-5)

    def test_paper_weighted_example(self):
        # §4.2.3: W = [[1,2],[1,5]] with pi2 = 2 -> u2 gets 2/3 of GPU2
        merged = WeightedOEF(mode="noncooperative").allocate(
            _two_tenants(weight2=2.0), [1.0, 1.0]
        )
        assert merged.tenant_shares["u2"][1] == pytest.approx(2 / 3, rel=1e-4)
        assert merged.tenant_shares["u1"][0] == pytest.approx(1.0, rel=1e-4)

    def test_multiple_job_types_get_equal_throughput_noncoop(self):
        # §4.2.4: u1 adds a second job type <1,3>; the two virtual users of
        # u1 each achieve the common per-virtual-user throughput
        tenants = [
            TenantSpec.of(
                "u1",
                [JobTypeSpec.of("a", [1, 2]), JobTypeSpec.of("b", [1, 3])],
            ),
            TenantSpec.single("u2", [1, 5]),
        ]
        merged = WeightedOEF(mode="noncooperative").allocate(tenants, [1.0, 1.0])
        job_tp = merged.job_type_throughput["u1"]
        assert job_tp["a"] == pytest.approx(job_tp["b"], rel=1e-5)
        # u2 (weight 1 split over 2 replicas... none) gets same total as u1
        assert merged.tenant_throughput["u2"] == pytest.approx(
            merged.tenant_throughput["u1"], rel=1e-5
        )

    def test_cooperative_mode_respects_weights_as_replicas(self):
        merged = WeightedOEF(mode="cooperative").allocate(
            _two_tenants(weight2=2.0), [1.0, 1.0]
        )
        # the heavy tenant must do at least as well as its weighted equal
        # split: 2/3 of each GPU type
        heavy = merged.tenant_throughput["u2"]
        assert heavy >= (2 / 3) * (1.0 + 5.0) - 1e-6

    def test_total_efficiency_helper(self):
        merged = WeightedOEF().allocate(_two_tenants(), [1.0, 1.0])
        assert merged.total_efficiency() == pytest.approx(
            sum(merged.tenant_throughput.values())
        )

    def test_shares_respect_capacity(self):
        merged = WeightedOEF().allocate(_two_tenants(weight2=3.0), [2.0, 2.0])
        total = np.sum(list(merged.tenant_shares.values()), axis=0)
        assert np.all(total <= 2.0 + 1e-6)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValidationError):
            WeightedOEF(mode="anarchic")

    def test_merge_requires_matching_allocation(self):
        expansion = VirtualUserExpansion(_two_tenants())
        other = VirtualUserExpansion(
            _two_tenants() + [TenantSpec.single("u3", [1.0, 3.0])]
        )
        other_matrix = other.expanded_matrix()
        from repro.core import Allocation, ProblemInstance

        allocation = Allocation(
            np.zeros((other_matrix.num_users, 2)),
            ProblemInstance(other_matrix, [1.0, 1.0]),
        )
        with pytest.raises(ValidationError):
            expansion.merge(allocation)

    def test_merged_allocation_keeps_rows_and_weights_for_auditing(self):
        merged = WeightedOEF(mode="cooperative").allocate(
            _two_tenants(weight2=2.0), [1.0, 1.0]
        )
        assert merged.expanded.instance.speedups.users == ["u1/u1/job", "u2/u2/job"]
        np.testing.assert_array_equal(merged.weights, [1.0, 2.0])
        np.testing.assert_array_equal(
            merged.expanded.matrix[1], merged.tenant_shares["u2"]
        )
