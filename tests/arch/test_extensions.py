"""Tests for the extension tiers: analytical estimator, banked macro."""

import pytest

from fecam.arch import TcamMacro, estimate_search
from fecam.designs import DesignKind
from fecam.errors import OperationError
from fecam.metrics import DesignPoint, evaluate


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
                spice = evaluate(DesignPoint(d, word_length=n), "spice")
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
