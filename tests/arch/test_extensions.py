"""Tests for the extension tiers: variability MC, analytical estimator,
banked macro."""

import math
import random

import pytest

from fecam.arch import TcamMacro, estimate_search, evaluate_array
from fecam.designs import DesignKind
from fecam.devices import (MonteCarloResult, VariationParams, divider_yield,
                           sample_vth_shifts)
from fecam.errors import CalibrationError, OperationError


class TestVariationParams:
    def test_mvt_state_has_largest_sigma(self):
        p = VariationParams()
        s_hvt = p.fefet_state_sigma(0.0, 0.9)
        s_mvt = p.fefet_state_sigma(0.5, 0.9)
        s_lvt = p.fefet_state_sigma(1.0, 0.9)
        assert s_mvt > s_hvt == pytest.approx(s_lvt)

    def test_more_domains_reduce_mvt_sigma(self):
        few = VariationParams(n_domains=10)
        many = VariationParams(n_domains=1000)
        assert few.fefet_state_sigma(0.5, 0.9) > many.fefet_state_sigma(0.5, 0.9)

    def test_pelgrom_scaling(self):
        p = VariationParams()
        small = p.mos_sigma(40e-9, 20e-9)
        big = p.mos_sigma(40e-9, 720e-9)
        assert small == pytest.approx(p.sigma_vth_mos_ref)
        assert big < small
        assert small / big == pytest.approx(math.sqrt(720 / 20), rel=1e-6)

    def test_validation(self):
        with pytest.raises(CalibrationError):
            VariationParams(n_domains=0)
        with pytest.raises(CalibrationError):
            VariationParams(sigma_pr_rel=-0.1)


class TestMonteCarlo:
    def test_zero_variation_gives_full_yield(self):
        quiet = VariationParams(sigma_vth_fefet=0.0, sigma_pr_rel=0.0,
                                sigma_vth_mos_ref=0.0, n_domains=10 ** 9)
        r = divider_yield(DesignKind.DG_1T5, samples=10, params=quiet)
        assert r.yield_fraction == 1.0
        assert r.worst_mismatch_margin > 0.08

    def test_yield_degrades_with_sigma(self):
        mild = divider_yield(DesignKind.SG_1T5, samples=60,
                             params=VariationParams(sigma_vth_fefet=0.01,
                                                    n_domains=500))
        harsh = divider_yield(DesignKind.SG_1T5, samples=60,
                              params=VariationParams(sigma_vth_fefet=0.08,
                                                     n_domains=20))
        assert mild.yield_fraction > harsh.yield_fraction

    def test_result_statistics(self):
        r = divider_yield(DesignKind.DG_1T5, samples=40)
        assert isinstance(r, MonteCarloResult)
        assert len(r.mismatch_margins) == 40
        assert r.margin_percentile(0.0) <= r.margin_percentile(0.99)
        assert 0.0 <= r.yield_fraction <= 1.0

    def test_seed_reproducible(self):
        a = divider_yield(DesignKind.DG_1T5, samples=25, seed=7)
        b = divider_yield(DesignKind.DG_1T5, samples=25, seed=7)
        assert a.mismatch_margins == b.mismatch_margins

    def test_validation(self):
        with pytest.raises(OperationError):
            divider_yield(DesignKind.DG_2FEFET)
        with pytest.raises(OperationError):
            divider_yield(DesignKind.DG_1T5, samples=0)

    def test_sample_shift_keys(self):
        rng = random.Random(0)
        shifts = sample_vth_shifts(DesignKind.DG_1T5, VariationParams(), rng)
        assert set(shifts) == {"fe_hvt", "fe_lvt", "fe_mvt", "tn", "tp", "tml"}


class TestAnalyticalEstimator:
    def test_all_designs_estimate(self):
        for d in DesignKind:
            e = estimate_search(d, 64)
            assert e.latency_total > 0
            assert e.energy_per_bit > 0
            assert e.ml_capacitance > 1e-15

    def test_latency_grows_with_word_length(self):
        for d in DesignKind:
            assert (estimate_search(d, 128).latency_total
                    > estimate_search(d, 16).latency_total)

    def test_orderings_match_spice_tier(self):
        """The closed-form model reproduces the headline orderings."""
        lat = {d: estimate_search(d, 64).latency_per_eval for d in DesignKind}
        assert lat[DesignKind.SG_2FEFET] < lat[DesignKind.DG_2FEFET]
        assert lat[DesignKind.SG_1T5] < lat[DesignKind.SG_2FEFET]
        assert lat[DesignKind.DG_1T5] < lat[DesignKind.DG_2FEFET]

    def test_within_3x_of_spice(self):
        """Cross-check against the transient tier (same physics inputs):
        latency within 3x, energy within 4x."""
        for d in DesignKind.fefet_designs():
            for n in (32, 64):
                spice = evaluate_array(d, word_length=n)
                quick = estimate_search(d, n)
                ratio = quick.latency_per_eval / spice.latency_1step
                assert 1 / 3 < ratio < 3, (d, n, ratio)
                ratio = quick.energy_per_bit / spice.search_energy_avg
                assert 1 / 4 < ratio < 4, (d, n, ratio)

    def test_validation(self):
        with pytest.raises(OperationError):
            estimate_search(DesignKind.DG_1T5, 1)


class TestTcamMacro:
    def test_for_capacity_rounds_up(self):
        m = TcamMacro.for_capacity(DesignKind.DG_1T5, entries=100, word=32,
                                   rows_per_bank=64)
        assert m.banks == 2
        assert m.capacity == 128
        assert m.bits == 128 * 32

    def test_area_scales_with_banks(self):
        small = TcamMacro(DesignKind.DG_1T5, rows=64, word=32, banks=2)
        big = TcamMacro(DesignKind.DG_1T5, rows=64, word=32, banks=8)
        # Cells scale 4x; the shared driver mats are amortized (a 2-bank
        # macro already pays a full mat), so the total scales a bit less.
        assert 3.0 * small.area() < big.area() < 4.0 * small.area()

    def test_summary_units(self):
        m = TcamMacro(DesignKind.DG_1T5, rows=64, word=32, banks=4)
        s = m.summary()
        # 64*32*4 cells of 0.156 um^2 plus periphery: ~1.3e-3 mm^2.
        assert 1e-3 < s["area_mm2"] < 5e-3
        assert s["search_latency_ns"] > 1.0
        assert s["throughput_msps"] > 10

    def test_cmos_macro_has_no_write_energy(self):
        m = TcamMacro(DesignKind.CMOS_16T, rows=64, word=32, banks=1)
        assert m.write_energy() == 0.0

    def test_validation(self):
        with pytest.raises(OperationError):
            TcamMacro(DesignKind.DG_1T5, rows=0)
        with pytest.raises(OperationError):
            TcamMacro.for_capacity(DesignKind.DG_1T5, entries=0, word=32)

    def test_search_energy_scales_with_banks(self):
        e1 = TcamMacro(DesignKind.DG_1T5, rows=64, word=32, banks=1)
        e4 = TcamMacro(DesignKind.DG_1T5, rows=64, word=32, banks=4)
        assert e4.search_energy() > 3.5 * e1.search_energy()
