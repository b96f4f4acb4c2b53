"""Tests for the unified metrics API (DesignPoint / evaluate / sweep)."""

import numpy as np
import pytest

from fecam.arch import PAPER_TABLE4
from fecam.cam.word import WordTimings
from fecam.designs import DesignKind
from fecam.errors import OperationError
from fecam.metrics import (ANALYTICAL_ENERGY_FACTOR,
                           ANALYTICAL_LATENCY_FACTOR, DesignPoint,
                           FIDELITIES, clear_registry, evaluate, sweep,
                           sweep_records)

# Stated cross-tier tolerance (fecam.metrics): the closed-form tier
# must agree with SPICE within these factors.
LATENCY_FACTOR = ANALYTICAL_LATENCY_FACTOR
ENERGY_FACTOR = ANALYTICAL_ENERGY_FACTOR


class TestDesignPoint:
    def test_defaults_and_equality(self):
        a = DesignPoint(DesignKind.DG_1T5)
        b = DesignPoint(DesignKind.DG_1T5, word_length=64, rows=64, banks=1)
        assert a == b
        assert hash(a) == hash(b)

    def test_frozen(self):
        point = DesignPoint(DesignKind.DG_1T5)
        with pytest.raises(AttributeError):
            point.rows = 128

    def test_validation(self):
        with pytest.raises(OperationError):
            DesignPoint(DesignKind.DG_1T5, word_length=1)
        with pytest.raises(OperationError):
            DesignPoint(DesignKind.DG_1T5, rows=0)
        with pytest.raises(OperationError):
            DesignPoint(DesignKind.DG_1T5, banks=0)
        with pytest.raises(OperationError):
            DesignPoint(DesignKind.DG_1T5, step1_miss_rate=1.5)
        with pytest.raises(OperationError):
            DesignPoint("not-a-design")

    def test_mapping_timings_normalized(self):
        """Dict overrides become a hashable WordTimings — and key equal
        to the explicitly-constructed plan (the legacy cache broke on
        unhashable overrides)."""
        from_dict = DesignPoint(DesignKind.DG_1T5,
                                timings={"t_step": 2e-9})
        explicit = DesignPoint(DesignKind.DG_1T5,
                               timings=WordTimings(t_step=2e-9))
        assert isinstance(from_dict.timings, WordTimings)
        assert from_dict == explicit
        assert from_dict.key("analytical") == explicit.key("analytical")

    def test_default_timings_fold_to_none(self):
        """An all-defaults plan (or empty mapping) is the same point as
        no override at all — one registry slot, no duplicate SPICE."""
        assert DesignPoint(DesignKind.DG_1T5, timings={}).timings is None
        assert DesignPoint(DesignKind.DG_1T5,
                           timings=WordTimings()).timings is None
        assert (DesignPoint(DesignKind.DG_1T5, timings={})
                == DesignPoint(DesignKind.DG_1T5))

    def test_overrides_equal_to_the_schedule_fold_to_none(self):
        """The fold compares resolved plans: spelling out a value of the
        design's own schedule is no override."""
        assert DesignPoint(DesignKind.DG_1T5,
                           timings={"t_gap": 0.5e-9}).timings is None
        assert DesignPoint(DesignKind.DG_1T5, word_length=64,
                           timings={"t_step": 1.8e-9}).timings is None
        # 1.5T1Fe's slow line edge is not the 2FeFET schedule.
        assert DesignPoint(DesignKind.DG_2FEFET,
                           timings={"t_trans_lines": 0.25e-9}).timings \
            == WordTimings(t_trans_lines=0.25e-9)

    def test_key_rounds_miss_rate(self):
        a = DesignPoint(DesignKind.DG_1T5, step1_miss_rate=0.9)
        b = DesignPoint(DesignKind.DG_1T5, step1_miss_rate=0.90004)
        assert a.key("paper") == b.key("paper")


class TestEvaluateValidation:
    def test_bad_fidelity(self):
        with pytest.raises(OperationError):
            evaluate(DesignPoint(DesignKind.DG_1T5), "hdl")

    def test_needs_design_point(self):
        with pytest.raises(OperationError):
            evaluate(DesignKind.DG_1T5, "paper")

    def test_fidelities_constant(self):
        assert FIDELITIES == ("paper", "analytical", "spice")


class TestPaperTier:
    def test_reproduces_table4_exactly(self):
        """Every non-None published Table IV figure comes back verbatim."""
        for design in DesignKind:
            row = evaluate(DesignPoint(design), "paper").as_row()
            for key, published in PAPER_TABLE4[design].items():
                if published is None:
                    continue
                assert row[key] == published, (design, key)

    def test_missing_1step_falls_back_to_total(self):
        fom = evaluate(DesignPoint(DesignKind.SG_2FEFET), "paper")
        assert fom.latency_1step == fom.latency_total
        assert fom.search_energy_1step == fom.search_energy_total

    def test_custom_miss_rate_reweights(self):
        lo = evaluate(DesignPoint(DesignKind.SG_1T5, step1_miss_rate=1.0),
                      "paper")
        hi = evaluate(DesignPoint(DesignKind.SG_1T5, step1_miss_rate=0.0),
                      "paper")
        assert lo.search_energy_avg == pytest.approx(lo.search_energy_1step)
        assert hi.search_energy_avg == pytest.approx(hi.search_energy_total)

    def test_paper_tier_is_instant(self):
        """No transient simulation behind the paper tier (call-counted)."""
        import fecam.cam.word as word_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("paper tier invoked the SPICE tier")

        original = word_mod.simulate_word_search
        clear_registry()
        word_mod.simulate_word_search = boom
        try:
            for design in DesignKind:
                evaluate(DesignPoint(design), "paper")
                evaluate(DesignPoint(design), "analytical")
        finally:
            word_mod.simulate_word_search = original
            clear_registry()


def _agreement_grid():
    """Every FeFET design over the Fig. 7 word lengths.  N=32, the
    original single point, keeps its bare design id."""
    for design in DesignKind.fefet_designs():
        for n in (16, 32, 64, 128):
            marks = ()
            if design is DesignKind.SG_2FEFET and n == 128:
                marks = pytest.mark.xfail(strict=True, reason=(
                    "known residual: the closed-form tier overestimates "
                    "2SG search energy at N=128 by 2.547x, just past "
                    "ANALYTICAL_ENERGY_FACTOR=2.5"))
            yield pytest.param(design, n, marks=marks, id=(
                design.name if n == 32 else f"{design.name}-{n}"))


class TestCrossTierConsistency:
    @pytest.mark.parametrize("design,word_length", _agreement_grid())
    def test_analytical_agrees_with_spice(self, design, word_length):
        point = DesignPoint(design, word_length=word_length)
        quick = evaluate(point, "analytical")
        truth = evaluate(point, "spice")
        for attr, factor in (("latency_1step", LATENCY_FACTOR),
                             ("latency_total", LATENCY_FACTOR),
                             ("search_energy_1step", ENERGY_FACTOR),
                             ("search_energy_total", ENERGY_FACTOR),
                             ("search_energy_avg", ENERGY_FACTOR)):
            ratio = getattr(quick, attr) / getattr(truth, attr)
            assert 1.0 / factor < ratio < factor, (design, attr, ratio)

    def test_area_and_write_identical_across_computed_tiers(self):
        """Geometry and the write tier are closed-form everywhere."""
        quick = evaluate(DesignPoint(DesignKind.DG_1T5, word_length=32),
                         "analytical")
        truth = evaluate(DesignPoint(DesignKind.DG_1T5, word_length=32),
                         "spice")
        assert quick.cell_area == truth.cell_area
        assert quick.macro_area == truth.macro_area
        assert quick.write_energy_per_cell == truth.write_energy_per_cell
        assert quick.write_voltage == truth.write_voltage


class TestRegistry:
    def test_cache_hits_are_identical_objects(self):
        a = evaluate(DesignPoint(DesignKind.SG_1T5), "paper")
        b = evaluate(DesignPoint(DesignKind.SG_1T5), "paper")
        assert a is b

    def test_deterministic_across_clear(self):
        point = DesignPoint(DesignKind.DG_1T5, word_length=48)
        first = evaluate(point, "analytical")
        clear_registry()
        second = evaluate(point, "analytical")
        assert first is not second
        assert first == second

    def test_timings_override_shares_slot_with_equivalent(self):
        a = evaluate(DesignPoint(DesignKind.DG_1T5,
                                 timings={"t_gap": 0.6e-9}), "paper")
        b = evaluate(DesignPoint(DesignKind.DG_1T5,
                                 timings=WordTimings(t_gap=0.6e-9)),
                     "paper")
        assert a is b

    def test_timings_only_key_the_spice_tier(self):
        """Paper/analytical have no transient schedule to override: every
        timing variant of a point shares their one cached answer instead
        of fragmenting the registry with identical Foms."""
        base = DesignPoint(DesignKind.DG_1T5)
        tweaked = DesignPoint(DesignKind.DG_1T5, timings={"t_step": 5e-9})
        for fidelity in ("paper", "analytical"):
            assert evaluate(base, fidelity) is evaluate(tweaked, fidelity)
        assert base.key("spice") != tweaked.key("spice")

    def test_unsupported_timings_type_rejected(self):
        """A list of pairs must fail at construction with a named error,
        not as a bare TypeError inside the registry lookup."""
        with pytest.raises(OperationError):
            DesignPoint(DesignKind.DG_1T5, timings=[("t_step", 2e-9)])

    def test_spice_tier_accepts_mapping_timings(self):
        """The legacy cache raised TypeError on dict overrides."""
        fom = evaluate(DesignPoint(DesignKind.DG_1T5, word_length=16,
                                   timings={"dt": 25e-12}), "spice")
        assert fom.latency_total > 0

    def test_spice_tier_honours_a_t_step_override(self):
        """An explicit evaluation window reaches the transient schedule."""
        default = evaluate(DesignPoint(DesignKind.DG_1T5, word_length=16),
                           "spice")
        longer = evaluate(DesignPoint(DesignKind.DG_1T5, word_length=16,
                                      timings={"t_step": 2e-9}), "spice")
        assert longer.latency_total > default.latency_total


class TestFom:
    def test_edp_consistent(self):
        fom = evaluate(DesignPoint(DesignKind.DG_1T5), "paper")
        assert fom.edp == pytest.approx(
            fom.search_energy_avg * fom.word_length * fom.latency_total)
        assert fom.as_row()["edp_fj_ns"] > 0

    def test_banks_scale_macro_area(self):
        one = evaluate(DesignPoint(DesignKind.DG_1T5, banks=1), "paper")
        four = evaluate(DesignPoint(DesignKind.DG_1T5, banks=4), "paper")
        assert four.macro_area > 3.9 * one.macro_area  # + global encoder
        assert four.driver_count == 4 * one.driver_count
        assert four.encoder_delay > one.encoder_delay
        # Per-bit search figures are bank-independent.
        assert four.search_energy_avg == one.search_energy_avg


class TestSweep:
    def test_columnar_shape_and_order(self):
        table = sweep(designs=(DesignKind.SG_1T5, DesignKind.DG_1T5),
                      word_lengths=(16, 64), fidelity="paper")
        assert len(table["design"]) == 4
        assert table["design"].tolist() == ["1.5T1SG-Fe", "1.5T1SG-Fe",
                                            "1.5T1DG-Fe", "1.5T1DG-Fe"]
        assert table["word_length"].tolist() == [16, 64, 16, 64]
        assert table["energy_avg_fj"].dtype == np.float64

    def test_cmos_write_energy_is_nan(self):
        table = sweep(designs=(DesignKind.CMOS_16T,), fidelity="paper")
        assert np.isnan(table["write_energy_fj"][0])

    def test_analytical_latency_grows_with_word_length(self):
        table = sweep(designs=(DesignKind.DG_1T5,),
                      word_lengths=(16, 32, 64, 128),
                      fidelity="analytical")
        lat = table["latency_total_ps"]
        assert (np.diff(lat) > 0).all()

    def test_records_transpose(self):
        table = sweep(designs=(DesignKind.SG_1T5,), fidelity="paper")
        records = sweep_records(table)
        assert len(records) == 1
        assert records[0]["design"] == "1.5T1SG-Fe"
        assert records[0]["word_length"] == 64
        assert isinstance(records[0]["energy_avg_fj"], float)
