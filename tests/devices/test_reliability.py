"""Tests for the endurance/retention reliability models."""

import math

import pytest

from fecam.designs import DesignKind
from fecam.devices import EnduranceModel, RetentionModel, reliability_report
from fecam.errors import CalibrationError, OperationError

YEAR = 365.25 * 24 * 3600.0


class TestEndurance:
    def test_paper_anchor_points(self):
        """DG ±2 V writes reach the 1e10 level [18]; ±4 V thick-stack
        writes are orders of magnitude worse (the paper's Sec. I claim)."""
        m = EnduranceModel()
        assert m.cycles_to_failure(2.0) == pytest.approx(1e10, rel=0.01)
        assert m.cycles_to_failure(4.0) == pytest.approx(1e6, rel=0.01)

    def test_lower_voltage_always_better(self):
        m = EnduranceModel()
        cycles = [m.cycles_to_failure(v) for v in (1.6, 2.0, 3.2, 4.0)]
        assert all(a > b for a, b in zip(cycles, cycles[1:]))

    def test_degradation_monotone_and_bounded(self):
        m = EnduranceModel()
        losses = [m.mw_degradation(n, 2.0) for n in (0, 1e3, 1e6, 1e9, 1e10)]
        assert losses[0] == 0.0
        assert all(b >= a for a, b in zip(losses, losses[1:]))
        assert m.mw_degradation(1e10, 2.0) == pytest.approx(0.25, rel=0.05)
        assert m.mw_degradation(1e30, 2.0) <= 1.0

    def test_lifetime_years(self):
        m = EnduranceModel()
        # 1e10 cycles at 100 writes/s ~ 3.2 years.
        assert m.lifetime_years(2.0, 100.0) == pytest.approx(
            1e10 / 100.0 / YEAR, rel=1e-6)

    def test_validation(self):
        m = EnduranceModel()
        with pytest.raises(OperationError):
            m.cycles_to_failure(0.0)
        with pytest.raises(OperationError):
            m.mw_degradation(-1, 2.0)
        with pytest.raises(OperationError):
            m.lifetime_years(2.0, 0.0)

    def test_polarity_independent(self):
        """Write stress depends on |V|: a -2 V pulse ages like +2 V."""
        m = EnduranceModel()
        assert m.cycles_to_failure(-2.0) == m.cycles_to_failure(2.0)

    def test_sub_cycle_counts_cost_nothing(self):
        assert EnduranceModel().mw_degradation(0.5, 2.0) == 0.0


class TestRetention:
    def test_full_states_retain_decade(self):
        r = RetentionModel()
        s10y = r.fraction_after(1.0, 10 * YEAR)
        assert s10y > 0.65  # still clearly LVT after the rated decade

    def test_mvt_decays_faster(self):
        r = RetentionModel()
        t = 2 * YEAR
        loss_full = 1.0 - r.fraction_after(1.0, t)
        loss_mvt = abs(r.fraction_after(0.6, t) - 0.6)
        # Normalize by distance to the depolarized endpoint.
        assert loss_mvt / 0.1 > loss_full / 0.5

    def test_depolarized_is_stationary(self):
        r = RetentionModel()
        assert r.fraction_after(0.5, 100 * YEAR) == pytest.approx(0.5)

    def test_vth_drift_scales_with_memory_window(self):
        r = RetentionModel()
        drift_sg = r.vth_drift_after(DesignKind.SG_1T5, 1.0, YEAR)
        drift_dg = r.vth_drift_after(DesignKind.DG_1T5, 1.0, YEAR)
        # Same fractional loss, but the SG window is 2x the DG FG window.
        assert drift_sg == pytest.approx(2.0 * drift_dg, rel=0.01)

    def test_validation(self):
        r = RetentionModel()
        with pytest.raises(CalibrationError):
            r.tau(1.5)
        with pytest.raises(OperationError):
            r.fraction_after(1.0, -1.0)


class TestReport:
    def test_dg_beats_sg_endurance(self):
        sg = reliability_report(DesignKind.SG_2FEFET)
        dg = reliability_report(DesignKind.DG_1T5)
        assert dg["cycles_to_failure"] > 1e3 * sg["cycles_to_failure"]

    def test_x_state_drift_reported_for_1t5(self):
        r = reliability_report(DesignKind.DG_1T5)
        assert r["retention_vth_drift_x_v"] is not None
        assert r["retention_vth_drift_x_v"] > 0  # the MVT level drifts
        r2 = reliability_report(DesignKind.DG_2FEFET)
        assert r2["retention_vth_drift_x_v"] is None

    def test_cmos_rejected(self):
        with pytest.raises(OperationError):
            reliability_report(DesignKind.CMOS_16T)

    def test_report_knobs_flow_through(self):
        slow = reliability_report(DesignKind.DG_1T5,
                                  writes_per_second=1.0)
        fast = reliability_report(DesignKind.DG_1T5,
                                  writes_per_second=1000.0)
        assert slow["lifetime_years_at_rate"] == pytest.approx(
            1000.0 * fast["lifetime_years_at_rate"], rel=1e-9)
        short = reliability_report(DesignKind.DG_1T5, retention_years=1.0)
        long = reliability_report(DesignKind.DG_1T5, retention_years=10.0)
        assert long["retention_vth_drift_lvt_v"] > \
            short["retention_vth_drift_lvt_v"]

    def test_tau_interpolates_between_floor_and_full(self):
        r = RetentionModel()
        assert r.tau(1.0) == pytest.approx(r.tau_full)
        assert r.tau(0.0) == pytest.approx(r.tau_full)
        assert r.tau(0.5) == pytest.approx(r.tau_full / r.mvt_penalty)
        assert r.tau(0.0) > r.tau(0.25) > r.tau(0.5)
