"""Tests for the architecture tier: areas, wires, drivers, encoder, FoM."""

import pytest

from fecam.arch import (PAPER_TABLE4, PriorityEncoder, SharedDriverMat,
                        WIRE_14NM, cell_geometry, column_wire,
                        driver_params_for, ml_wire)
from fecam.designs import DesignKind
from fecam.errors import CalibrationError, OperationError
from fecam.metrics import DesignPoint, evaluate


class TestGeometry:
    def test_paper_areas_reproduced(self):
        """Tab. IV cell areas come out of the feature accounting."""
        expected = {DesignKind.CMOS_16T: 0.286, DesignKind.SG_2FEFET: 0.095,
                    DesignKind.DG_2FEFET: 0.204, DesignKind.SG_1T5: 0.108,
                    DesignKind.DG_1T5: 0.156}
        for design, area in expected.items():
            assert cell_geometry(design).area_um2 == pytest.approx(area, rel=0.02)

    def test_ordering_claims(self):
        """2SG smallest; every FeFET cell beats 16T CMOS; DG variants pay
        the P-well penalty over their SG siblings."""
        a = {d: cell_geometry(d).area for d in DesignKind}
        assert a[DesignKind.SG_2FEFET] == min(a.values())
        for d in DesignKind.fefet_designs():
            assert a[d] < a[DesignKind.CMOS_16T]
        assert a[DesignKind.DG_2FEFET] > a[DesignKind.SG_2FEFET]
        assert a[DesignKind.DG_1T5] > a[DesignKind.SG_1T5]

    def test_paper_improvement_factors(self):
        """1.83x (DG) and 2.65x (SG) cell-area improvement vs 16T CMOS."""
        cmos = cell_geometry(DesignKind.CMOS_16T).area
        assert cmos / cell_geometry(DesignKind.DG_1T5).area == pytest.approx(
            1.83, rel=0.03)
        assert cmos / cell_geometry(DesignKind.SG_1T5).area == pytest.approx(
            2.65, rel=0.03)

    def test_width_height_consistent(self):
        g = cell_geometry(DesignKind.DG_1T5)
        assert g.width * g.height == pytest.approx(g.area)
        assert g.width / g.height == pytest.approx(g.aspect)


class TestWires:
    def test_ml_wire_scales_with_word(self):
        w16 = ml_wire(DesignKind.DG_1T5, 16)
        w64 = ml_wire(DesignKind.DG_1T5, 64)
        assert w64.capacitance == pytest.approx(4 * w16.capacitance)
        assert w64.resistance == pytest.approx(4 * w16.resistance)

    def test_column_wire_scales_with_rows(self):
        c = column_wire(DesignKind.SG_1T5, 64)
        assert c.capacitance == pytest.approx(
            WIRE_14NM.c_per_m * cell_geometry(DesignKind.SG_1T5).height * 64)

    def test_elmore_delay_positive(self):
        assert ml_wire(DesignKind.DG_1T5, 64).elmore_delay > 0


class TestDrivers:
    def test_hv_driver_scales_with_voltage(self):
        sg = driver_params_for(DesignKind.SG_1T5)
        dg = driver_params_for(DesignKind.DG_1T5)
        assert sg.max_voltage == 4.0 and dg.max_voltage == 2.0
        assert sg.area > 3 * dg.area  # quadratic HV overhead
        assert sg.leakage_power > dg.leakage_power

    def test_cmos_has_no_driver(self):
        with pytest.raises(OperationError):
            driver_params_for(DesignKind.CMOS_16T)

    def test_sharing_only_for_dg(self):
        for d in (DesignKind.DG_1T5, DesignKind.DG_2FEFET):
            assert SharedDriverMat(d, 64, 64).sharing_supported
        for d in (DesignKind.SG_1T5, DesignKind.SG_2FEFET):
            assert not SharedDriverMat(d, 64, 64).sharing_supported

    def test_sharing_halves_drivers(self):
        mat = SharedDriverMat(DesignKind.DG_1T5, 64, 64)
        assert mat.driver_count(shared=True) * 2 == mat.driver_count(shared=False)
        assert mat.driver_area(True) < mat.driver_area(False)
        assert mat.utilization(True) > mat.utilization(False)


class TestEncoder:
    def test_priority_semantics(self):
        enc = PriorityEncoder(4)
        assert enc.encode([False, True, True, False]) == (True, 1)
        assert enc.encode([False] * 4) == (False, None)
        assert enc.encode_all([True, False, True, False]) == [0, 2]

    def test_input_validation(self):
        with pytest.raises(OperationError):
            PriorityEncoder(0)
        with pytest.raises(OperationError):
            PriorityEncoder(4).encode([True])

    def test_cost_scales(self):
        small = PriorityEncoder(16).cost()
        big = PriorityEncoder(256).cost()
        assert big.gates > small.gates
        assert big.area > small.area
        assert big.delay > small.delay


class TestEvaluateArray:
    def test_fom_row_well_formed(self):
        fom = evaluate(DesignPoint(DesignKind.DG_1T5, word_length=16,
                                   rows=64), "spice")
        row = fom.as_row()
        assert row["design"] == "1.5T1DG-Fe"
        assert row["cell_area_um2"] == pytest.approx(0.156, rel=0.02)
        assert row["write_energy_fj"] == pytest.approx(0.41, rel=0.02)
        assert row["latency_1step_ps"] > 0
        assert row["energy_avg_fj"] > 0

    def test_early_termination_average(self):
        lo = evaluate(DesignPoint(DesignKind.DG_1T5, word_length=16,
                                  step1_miss_rate=1.0), "spice")
        hi = evaluate(DesignPoint(DesignKind.DG_1T5, word_length=16,
                                  step1_miss_rate=0.0), "spice")
        assert lo.search_energy_avg < hi.search_energy_avg
        assert lo.search_energy_avg == pytest.approx(lo.search_energy_1step)
        assert hi.search_energy_avg == pytest.approx(hi.search_energy_total)

    def test_bad_miss_rate(self):
        with pytest.raises(OperationError):
            DesignPoint(DesignKind.DG_1T5, word_length=16,
                        step1_miss_rate=1.5)

    def test_paper_reference_table_complete(self):
        assert set(PAPER_TABLE4) == set(DesignKind)
        assert PAPER_TABLE4[DesignKind.DG_1T5]["write_energy_fj"] == 0.41
