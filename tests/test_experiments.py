"""Tests for the experiment harness: every series must have the paper's
shape (who wins, by what factor, where crossovers fall), inside the band
of its row in ``repro.experiments.paper.CLAIMS``. Most run at reduced
parameters; ``repro verify`` (``tests/test_cli.py``) checks every row at
the artifacts' own parameters."""

import pytest

from repro.experiments import (
    fig3_parsec_overhead,
    fig4_swaptions_breakdown,
    fig5_interval_sweep,
    fig6a_fluidanimate,
    fig6b_bitmap_scan,
    remus_comparison,
    table1_cost_breakdown,
    table3_vmi_costs,
)
from repro.experiments.bitmap_experiments import functional_scan_check
from repro.experiments.paper import CLAIMS
from repro.vmi.costmodel import VmiCostModel


def check_claims(result, *claim_ids):
    """Each claim's measure of ``result`` falls inside the claim's band."""
    for claim_id in claim_ids:
        claim = CLAIMS[claim_id]
        measured, passed = claim.check(result)
        assert passed, "%s: measured %r, band %s" % (claim_id, measured,
                                                     claim.band)


class TestFig3:
    @pytest.fixture(scope="class")
    def fig3(self):
        return fig3_parsec_overhead(native_runtime_ms=1500.0)

    def test_full_geomean_near_9_8_percent(self, fig3):
        check_claims(fig3, "fig3.parsec_overhead")

    def test_no_opt_and_asan_in_40_60_band(self, fig3):
        check_claims(fig3, "fig3.no_opt_geomean", "fig3.asan_geomean")

    def test_optimizations_strictly_ordered(self, fig3):
        check_claims(fig3, "fig3.geomean_step_by_level")

    def test_crimes_beats_asan_on_every_benchmark(self, fig3):
        check_claims(fig3, "fig3.full_over_asan")

    def test_fluidanimate_extremes(self, fig3):
        check_claims(fig3, "fig3.no_opt_fluidanimate",
                     "fig3.asan_fluidanimate", "fig3.full_fluidanimate")


class TestFig4:
    @pytest.fixture(scope="class")
    def fig4(self):
        return fig4_swaptions_breakdown()

    def test_totals_match_paper_anchors(self, fig4):
        # Paper: 29.86 ms -> 10.21 ms, a 67% reduction.
        check_claims(fig4, "fig4.no_opt_pause_ms", "fig4.full_pause_ms",
                     "fig4.pause_reduction")

    def test_copy_dominates_no_opt_only(self, fig4):
        check_claims(fig4, "fig4.no_opt_copy_share", "fig4.full_copy_share")

    def test_bitscan_drops_only_with_full(self, fig4):
        check_claims(fig4, "fig4.no_opt_over_pre_map_bitscan",
                     "fig4.full_over_pre_map_bitscan")

    def test_memcpy_pays_map_twice(self, fig4):
        check_claims(fig4, "fig4.memcpy_over_no_opt_map")

    def test_premap_map_constant_and_small_copy(self, fig4):
        check_claims(fig4, "fig4.pre_map_over_full_map",
                     "fig4.pre_map_over_no_opt_copy")


class TestFig5:
    @pytest.fixture(scope="class")
    def fig5(self):
        return fig5_interval_sweep(intervals=(60, 120, 200))

    def test_runtime_decreases_with_interval(self, fig5):
        check_claims(fig5, "fig5.runtime_drop")

    def test_pause_increases_with_interval(self, fig5):
        check_claims(fig5, "fig5.pause_growth_ms")

    def test_pause_scale_matches_fig5b(self, fig5):
        check_claims(fig5, "fig5.pause_at_200ms")

    def test_dirty_pages_increase_and_scale(self, fig5):
        check_claims(fig5, "fig5.dirty_page_growth",
                     "fig5.dirty_pages_at_200ms")


class TestFig6a:
    def test_full_much_faster_than_no_opt_at_small_intervals(self):
        fig6a = fig6a_fluidanimate(intervals=(60, 200),
                                   native_runtime_ms=1200.0)
        check_claims(fig6a, "fig6a.full_speedup_at_60ms",
                     "fig6a.slowdown_60_over_200ms")


class TestFig6b:
    def test_cost_series_shapes(self):
        rows = fig6b_bitmap_scan(sizes_gb=(1, 8, 16))
        check_claims({"rows": rows}, "fig6b.word_over_bit_cost",
                     "fig6b.bit_by_bit_growth", "fig6b.bit_by_bit_16gib_ms")

    def test_functional_equivalence(self):
        check = functional_scan_check(frame_count=32768, dirty_fraction=0.01)
        check_claims({"check": check}, "fig6b.scans_identical")
        assert check["bits_saved_fraction"] > 0.5


class TestTable1:
    @pytest.fixture(scope="class")
    def table1(self):
        return table1_cost_breakdown(epochs=30)

    def test_copy_dominates_each_row(self, table1):
        check_claims(table1, "table1.copy_share")

    def test_rows_ordered_by_load(self, table1):
        check_claims(table1, "table1.copy_step_by_load_ms")

    def test_values_match_paper_anchors(self, table1):
        check_claims(table1, *[
            "table1.light_%s_ms" % phase
            for phase in ("suspend", "vmi", "bitscan", "map", "copy",
                          "resume")
        ], "table1.high_copy_ms")


class TestTable3:
    def test_cost_split(self):
        rows = table3_vmi_costs(iterations=10)
        check_claims(rows, *[claim_id for claim_id in CLAIMS
                             if claim_id.startswith("table3.")])


class TestHeadlineClaims:
    def test_remus_improvement_near_33_percent(self):
        check_claims(remus_comparison(), "remus.improvement")

    def test_canary_validation_rate(self):
        # §5.5: "our scanner can validate 90,000 canaries per millisecond".
        check_claims(VmiCostModel(), "vmi.canary_rate_per_ms")
