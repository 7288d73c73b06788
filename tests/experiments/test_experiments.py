"""Integration tests: the experiments' tables have the right shape.

What the tables say about the paper's claims is checked once, at the
experiments' own shapes, in ``tests/claims/test_paper_claims.py``; these
use scaled-down parameters and check only structure and formatting.
"""

from repro.experiments import fig8_coop_throughput, fig10_overhead


class TestFig7And8:
    def test_tabulate_formats(self):
        table = fig8_coop_throughput.run(
            num_tenants=8, jobs_per_tenant=3, num_rounds=3
        )
        assert len(table.rows) == 3


class TestFig10:
    def test_overhead_scales(self):
        result = fig10_overhead.run_overhead(user_counts=(20, 40), num_gpu_types=5)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["OEF (non-coop) s"] < row["OEF (coop) s"] + 1.0

    def test_result_formatting(self):
        result = fig10_overhead.run_sensitivity(biases=(0.0,))
        assert "Fig. 10(b)" in result.format()
