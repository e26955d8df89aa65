"""Analytic cost model: formulas, monotonicity, crossover, report shape."""

import math

import numpy as np
import pytest

from shortlong.efficiency import (CROSSOVER_COMPRESSION, CostModel, flops,
                                  report_rows, speedup, write_report_csv)
from shortlong.losses import RAMode


class TestFlops:
    def test_vanilla(self):
        assert flops(CostModel(1000, 0.5), "vanilla") == 2_000_000

    def test_chosen_only_at_eighth_compression(self):
        assert flops(CostModel(1000, 0.125), "solo") == pytest.approx(1_031_250)

    def test_full_compression(self):
        assert flops(CostModel(1000, 1.0), "solo") == pytest.approx(3_000_000)

    def test_both_mode_extension(self):
        cm = CostModel(1000, 0.5, ra_mode=RAMode.BOTH)
        assert flops(cm, "solo") == pytest.approx((2 * 0.25 + 2) * 1e6)

    def test_kl_approx_reads_one_long_row(self):
        """kl_approx penalizes only the chosen response's gap, so it pays one
        long pass, as chosen-only does."""
        cm = CostModel(1000, 0.5, ra_mode=RAMode.KL_APPROX)
        assert flops(cm, "solo") == flops(CostModel(1000, 0.5), "solo") == 1_500_000

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf])
    def test_non_finite_length_rejected(self, n):
        with pytest.raises(ValueError, match="long_tokens must be"):
            CostModel(n, 0.5)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            CostModel(1000, 0.0)
        with pytest.raises(ValueError):
            CostModel(1000, 1.5)
        with pytest.raises(ValueError):
            CostModel(-5, 0.5)
        with pytest.raises(ValueError):
            flops(CostModel(10, 0.5), "mystery")


class TestSpeedup:
    def test_no_compression_costs_more(self):
        assert speedup(1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_break_even_point(self):
        assert speedup(1.0 / math.sqrt(2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_eighth_compression(self):
        assert speedup(0.125) == pytest.approx(1.9393939393939394, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, -0.1, 1.01):
            with pytest.raises(ValueError):
                speedup(bad)

    def test_equals_flops_ratio_for_any_length(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = float(rng.uniform(1, 1e6))
            c = float(rng.uniform(1e-6, 1.0))
            cm = CostModel(n, c)
            assert speedup(c) == pytest.approx(
                flops(cm, "vanilla") / flops(cm, "solo"), rel=1e-12)

    def test_strictly_decreasing_in_compression(self):
        cs = np.linspace(0.01, 1.0, 500)
        vals = [speedup(c) for c in cs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_supremum_two_never_attained(self):
        assert speedup(1e-6) < 2.0
        assert speedup(1e-6) == pytest.approx(2.0, abs=1e-8)


class TestReport:
    def test_crossover_flag(self):
        rows = report_rows([CostModel(100, 0.5), CostModel(100, 0.8)])
        assert rows[0]["crossover"] is True
        assert rows[1]["crossover"] is False
        assert CROSSOVER_COMPRESSION == pytest.approx(0.70711, abs=1e-5)

    def test_chosen_only_rows_equal_the_closed_form(self):
        rows = report_rows([CostModel(1000, c) for c in (0.125, 0.25, 0.5, 1.0)])
        assert [r["speedup"] for r in rows] == [speedup(c) for c in (0.125, 0.25, 0.5, 1.0)]
        assert [r["crossover"] for r in rows] == [True, True, True, False]

    @pytest.mark.parametrize("mode", list(RAMode))
    def test_columns_follow_the_row_ra_mode(self, mode):
        for c in (0.125, 0.5, 0.7, 1.0):
            row = report_rows([CostModel(1000, c, ra_mode=mode)])[0]
            assert row["speedup"] == row["flops_vanilla"] / row["flops_solo"]
            assert row["crossover"] is (row["flops_solo"] < row["flops_vanilla"])
        # both-sides pays a second long pass: no compression makes it cheaper.
        both = report_rows([CostModel(1000, 0.125, ra_mode=RAMode.BOTH)])[0]
        assert both["speedup"] == pytest.approx(2 / (2 * 0.125 ** 2 + 2))
        assert both["crossover"] is False

    def test_csv_emission(self, tmp_path):
        path = tmp_path / "speedup.csv"
        write_report_csv([CostModel(1000, c) for c in (0.125, 0.25, 0.5, 1.0)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("long_tokens,compression,flops_vanilla,flops_solo,"
                            "speedup,crossover")
        assert len(lines) == 5
