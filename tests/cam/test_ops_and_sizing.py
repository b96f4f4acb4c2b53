"""Tests for the write controller, search policy, and divider sizing."""

import pytest

from fecam.cam import (SearchPolicy, WriteController, divider_margins,
                       explore_sizing, slbar_level, two_step_search_outcome)
from fecam.designs import DesignKind
from fecam.devices import cell_sizing, make_fefet
from fecam.errors import OperationError


class TestWriteController:
    def test_cmos_rejected(self):
        with pytest.raises(OperationError):
            WriteController(DesignKind.CMOS_16T)

    def test_erase_then_program(self):
        wc = WriteController(DesignKind.DG_1T5)
        f = make_fefet(DesignKind.DG_1T5, "F", "a", "b", "c", "d",
                       initial_s=1.0)
        wc.erase(f)
        assert f.s < 0.05
        wc.program_one(f)
        assert f.s > 0.95

    def test_program_x_lands_on_target(self):
        wc = WriteController(DesignKind.DG_1T5)
        target = cell_sizing(DesignKind.DG_1T5).s_x
        f = make_fefet(DesignKind.DG_1T5, "F", "a", "b", "c", "d")
        wc.erase(f)
        pulses = wc.program_x(f)
        assert pulses >= 1
        assert abs(f.s - target) < 0.08

    def test_program_x_sg(self):
        wc = WriteController(DesignKind.SG_1T5)
        target = cell_sizing(DesignKind.SG_1T5).s_x
        f = make_fefet(DesignKind.SG_1T5, "F", "a", "b", "c", "d")
        wc.erase(f)
        wc.program_x(f)
        assert abs(f.s - target) < 0.08

    def test_write_energy_ladder(self):
        """Paper Tab. IV: 1.63 / 0.81 / 0.82 / 0.41 fJ (4:2:2:1)."""
        e = {d: WriteController(d).write_energy_per_cell()
             for d in DesignKind.fefet_designs()}
        assert e[DesignKind.SG_2FEFET] == pytest.approx(1.63e-15, rel=0.02)
        assert e[DesignKind.DG_2FEFET] == pytest.approx(0.81e-15, rel=0.02)
        assert e[DesignKind.SG_1T5] == pytest.approx(0.82e-15, rel=0.02)
        assert e[DesignKind.DG_1T5] == pytest.approx(0.41e-15, rel=0.02)
        sg = e[DesignKind.SG_2FEFET]
        assert sg == pytest.approx(2 * e[DesignKind.DG_2FEFET], rel=0.01)
        assert sg == pytest.approx(2 * e[DesignKind.SG_1T5], rel=0.01)
        assert sg == pytest.approx(4 * e[DesignKind.DG_1T5], rel=0.01)

    def test_x_write_energy_extra_step(self):
        wc = WriteController(DesignKind.DG_1T5)
        assert wc.write_energy_per_cell("X") > wc.write_energy_per_cell("1")

    def test_write_pair(self):
        wc = WriteController(DesignKind.DG_1T5)
        f1 = make_fefet(DesignKind.DG_1T5, "F1", "a", "b", "c", "d")
        f2 = make_fefet(DesignKind.DG_1T5, "F2", "a", "b", "c", "e")
        report = wc.write_pair(f1, f2, "1X")
        assert f1.s > 0.9
        assert 0.5 < f2.s < 0.9
        assert report.steps == 3
        assert report.energy_per_cell > 0

    def test_write_2fefet_cell_complementary(self):
        wc = WriteController(DesignKind.DG_2FEFET)
        fa = make_fefet(DesignKind.DG_2FEFET, "A", "a", "b", "c", "d")
        fb = make_fefet(DesignKind.DG_2FEFET, "B", "a", "b", "c", "e")
        wc.write_2fefet_cell(fa, fb, "0")
        assert fa.s < 0.1 and fb.s > 0.9
        wc.write_2fefet_cell(fa, fb, "X")
        assert fa.s < 0.1 and fb.s < 0.1

    def test_wrong_design_pairing(self):
        wc = WriteController(DesignKind.DG_2FEFET)
        f1 = make_fefet(DesignKind.DG_2FEFET, "F1", "a", "b", "c", "d")
        f2 = make_fefet(DesignKind.DG_2FEFET, "F2", "a", "b", "c", "e")
        with pytest.raises(OperationError):
            wc.write_pair(f1, f2, "1X")


class TestSearchPolicy:
    def test_match_runs_two_steps(self):
        out = two_step_search_outcome("1X", "10")
        assert out.matched and out.steps_run == 2 and out.resolved_in_step == 0

    def test_step1_miss_terminates_early(self):
        out = two_step_search_outcome("0X", "10")
        assert not out.matched and out.steps_run == 1

    def test_step2_miss_runs_both(self):
        out = two_step_search_outcome("X0", "11")
        assert not out.matched and out.steps_run == 2
        assert out.resolved_in_step == 2

    def test_policy_disable(self):
        out = two_step_search_outcome("0X", "10",
                                      SearchPolicy(early_termination=False))
        assert out.steps_run == 2


class TestDividerSizing:
    @pytest.mark.parametrize("design", [DesignKind.SG_1T5, DesignKind.DG_1T5])
    def test_frozen_sizing_is_functional(self, design):
        m = divider_margins(design)
        assert m.functional
        assert m.mismatch_margin > 0.08
        assert m.match_margin > 0.08

    def test_slbar_levels_ordered(self):
        # The mismatch levels must straddle the threshold from above and
        # all match/don't-care levels from below.
        m = divider_margins(DesignKind.DG_1T5)
        lv = m.levels
        assert lv.v_store1_search0 > m.tml_vth > lv.v_storeX_search0
        assert lv.v_store0_search1 > m.tml_vth > lv.v_storeX_search1

    def test_slbar_level_input_validation(self):
        with pytest.raises(OperationError):
            slbar_level(DesignKind.DG_1T5, 0.5, "2")
        with pytest.raises(OperationError):
            divider_margins(DesignKind.DG_2FEFET)

    def test_explore_sizing_ranks_candidates(self):
        results = explore_sizing(DesignKind.DG_1T5,
                                 tn_lengths=(240e-9,), tp_lengths=(240e-9,),
                                 tml_vths=(0.30, 0.35), s_x_values=(0.70, 0.74))
        assert len(results) == 4
        scores = [min(r.mismatch_margin, r.match_margin) for r in results]
        assert scores == sorted(scores, reverse=True)
