"""Integration tests: word-level search sims and full-array netlists.

These are the heavyweight circuit tests; content is kept at modest word
lengths so the suite stays fast while still exercising every design and
scenario.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fecam.cam import (TcamArrayCircuit, scenario_content,
                       simulate_word_search, ternary_match)
from fecam.cam.word import (SCENARIOS_SINGLE_STEP, SCENARIOS_TWO_STEP,
                            WordTimings)
from fecam.designs import DesignKind
from fecam.errors import OperationError

TWO_STEP = (DesignKind.SG_1T5, DesignKind.DG_1T5)
SINGLE = (DesignKind.SG_2FEFET, DesignKind.DG_2FEFET, DesignKind.CMOS_16T)
#: Every (FeFET design, scenario) pair the array can run.
ARRAY_SCENARIOS = [(d, s) for d in TWO_STEP for s in SCENARIOS_TWO_STEP] + [
    (d, s) for d in SINGLE[:2] for s in SCENARIOS_SINGLE_STEP]


class TestScenarioContent:
    def test_match_content(self):
        stored, query = scenario_content(DesignKind.DG_1T5, 8, "match")
        assert stored == query
        assert stored.count("1") == 4

    def test_step_miss_positions(self):
        stored, q1 = scenario_content(DesignKind.DG_1T5, 8, "step1_miss")
        assert stored[0] != q1[0]
        stored, q2 = scenario_content(DesignKind.DG_1T5, 8, "step2_miss")
        assert stored[1] != q2[1]

    def test_odd_length_rejected(self):
        with pytest.raises(OperationError):
            scenario_content(DesignKind.DG_1T5, 7, "match")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(OperationError):
            simulate_word_search(DesignKind.DG_1T5, 8, "bogus")


class TestWordSearch:
    @pytest.mark.parametrize("design", TWO_STEP)
    def test_two_step_scenarios(self, design):
        for scenario in ("match", "step1_miss", "step2_miss"):
            r = simulate_word_search(design, 16, scenario)
            assert r.functionally_correct, (design, scenario)

    @pytest.mark.parametrize("design", SINGLE)
    def test_single_step_scenarios(self, design):
        for scenario in ("match", "miss"):
            r = simulate_word_search(design, 16, scenario)
            assert r.functionally_correct, (design, scenario)

    def test_early_termination_runs_one_step(self):
        r = simulate_word_search(DesignKind.DG_1T5, 16, "step1_miss")
        assert r.steps_run == 1
        r2 = simulate_word_search(DesignKind.DG_1T5, 16, "step2_miss")
        assert r2.steps_run == 2

    def test_one_step_cheaper_than_two(self):
        r1 = simulate_word_search(DesignKind.DG_1T5, 16, "step1_miss")
        r2 = simulate_word_search(DesignKind.DG_1T5, 16, "step2_miss")
        assert r1.energy_total < r2.energy_total
        assert r1.latency < r2.latency

    def test_energy_groups_cover_total(self):
        r = simulate_word_search(DesignKind.DG_1T5, 16, "match")
        assert sum(r.energy_by_group.values()) == pytest.approx(r.energy_total)
        assert "ml_precharge" in r.energy_by_group
        assert "select_lines" in r.energy_by_group

    def test_custom_content(self):
        r = simulate_word_search(DesignKind.DG_1T5, scenario="custom",
                                 stored="1X0X10XX", query="11011000")
        assert r.functionally_correct

    def test_match_keeps_ml_above_threshold(self):
        r = simulate_word_search(DesignKind.SG_1T5, 16, "match")
        assert r.ml_min > 0.4

    def test_x_heavy_word_survives(self):
        # An all-X word matches everything — the aggregate TML leak and
        # inter-step coupling must not discharge the ML.
        for design in TWO_STEP:
            r = simulate_word_search(design, 16, "x",
                                     stored="X" * 16, query="10" * 8)
            assert r.matched, design

    @pytest.mark.parametrize("scenario", SCENARIOS_TWO_STEP)
    @pytest.mark.parametrize("design", TWO_STEP)
    def test_gap_not_longer_than_line_edge_rejected(self, design, scenario):
        # Step 2's query edge would start before step 1's has finished.
        with pytest.raises(OperationError, match="t_gap.*t_trans_lines"):
            simulate_word_search(design, 64, scenario,
                                 timings=WordTimings(t_gap=0.2e-9))

    @pytest.mark.parametrize("design", SINGLE)
    def test_single_step_designs_accept_a_short_gap(self, design):
        r = simulate_word_search(design, 16, "miss",
                                 timings=WordTimings(t_gap=0.2e-9))
        assert r.functionally_correct


class TestArrayCircuit:
    @pytest.mark.parametrize("design", [DesignKind.DG_1T5, DesignKind.SG_1T5,
                                        DesignKind.DG_2FEFET,
                                        DesignKind.SG_2FEFET])
    def test_fig5_2x4_array(self, design):
        """The paper's Fig. 5(c)/(d) 2x4 array, functionally verified."""
        arr = TcamArrayCircuit(design, rows=2, cols=4)
        arr.program(0, "10X1")
        arr.program(1, "0110")
        r = arr.search("1011")
        assert r.functionally_correct
        assert r.matches == [True, False]
        assert r.match_address == 0

    def test_priority_address(self):
        arr = TcamArrayCircuit(DesignKind.DG_1T5, rows=3, cols=4)
        arr.program(0, "0000")
        arr.program(1, "XXXX")
        arr.program(2, "1111")
        r = arr.search("1111")
        assert r.matches == [False, True, True]
        assert r.match_address == 1

    def test_validation(self):
        with pytest.raises(OperationError):
            TcamArrayCircuit(DesignKind.CMOS_16T, rows=2, cols=4)
        with pytest.raises(OperationError):
            TcamArrayCircuit(DesignKind.DG_1T5, rows=2, cols=3)
        arr = TcamArrayCircuit(DesignKind.DG_1T5, rows=1, cols=4)
        with pytest.raises(OperationError):
            arr.search("1111")  # unprogrammed
        with pytest.raises(OperationError):
            arr.program(0, "111")  # wrong length

    def test_word_model_agrees_with_full_array(self):
        """The reduced (multiplier) word model and the unreduced netlist
        must agree on match outcomes."""
        stored, query = "1X010X", "110100"
        word = simulate_word_search(DesignKind.DG_1T5, scenario="x",
                                    stored=stored, query=query)
        arr = TcamArrayCircuit(DesignKind.DG_1T5, rows=1, cols=6)
        arr.program(0, stored)
        full = arr.search(query)
        assert word.matched == full.matches[0] == ternary_match(stored, query)

    @pytest.mark.parametrize("bits", [4, 16])
    @pytest.mark.parametrize("design,scenario", ARRAY_SCENARIOS,
                             ids=lambda v: getattr(v, "name", v))
    def test_array_of_word_rows_prices_four_words(self, design, scenario,
                                                  bits):
        """A 4-row array whose every row is one word scenario is four of
        that word: the word model's multiplier reduction and its 1/M
        column-line share are exact, in energy and per-row latency.  At
        4 bits both plan their timings for the same width."""
        stored, query = scenario_content(design, bits, scenario)
        word = simulate_word_search(design, bits, scenario)
        arr = TcamArrayCircuit(design, rows=4, cols=bits)
        for row in range(4):
            arr.program(row, stored)
        full = arr.search(query)
        assert full.matches == [word.matched] * 4
        assert full.t_end == word.t_end
        assert full.energy_total / (4 * word.energy_total) == \
            pytest.approx(1.0, abs=1e-5)
        for latency in full.latencies:
            if word.latency is None:
                assert latency is None
            else:
                assert latency == pytest.approx(word.latency, rel=1e-3)


@settings(max_examples=6, deadline=None)
@given(st.lists(st.sampled_from("01X"), min_size=8, max_size=8),
       st.lists(st.sampled_from("01"), min_size=8, max_size=8))
def test_word_search_matches_specification(stored_syms, query_bits):
    """Property: circuit-level search equals the ternary_match spec."""
    stored = "".join(stored_syms)
    query = "".join(query_bits)
    r = simulate_word_search(DesignKind.DG_1T5, scenario="prop",
                             stored=stored, query=query)
    assert r.matched == ternary_match(stored, query)
