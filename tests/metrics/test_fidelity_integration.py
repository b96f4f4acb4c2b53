"""Fidelity integration: frozen EnergyModel, StoreConfig.fidelity, and
the no-SPICE guarantee for analytical/paper-priced stores."""

import dataclasses

import pytest

import fecam.cam.word as word_mod
from fecam.designs import DesignKind
from fecam.errors import OperationError
from fecam.functional import EnergyModel, TernaryCAM
from fecam.metrics import DesignPoint, clear_registry, evaluate
from fecam.store import CamStore, StoreConfig


class _SpiceCounter:
    """Counts (and optionally fakes) word-level SPICE invocations."""

    def __init__(self, fake=False):
        self.calls = 0
        self.fake = fake
        self._original = word_mod.simulate_word_search

    def __enter__(self):
        clear_registry()
        word_mod.simulate_word_search = self._stub
        return self

    def __exit__(self, *exc):
        word_mod.simulate_word_search = self._original
        clear_registry()

    def _stub(self, *args, **kwargs):
        self.calls += 1
        if not self.fake:
            return self._original(*args, **kwargs)

        class _Fake:
            latency = 1e-9
            energy_per_bit = 1e-15
        return _Fake()


class TestFrozenEnergyModel:
    def test_fields_immutable(self):
        model = EnergyModel(DesignKind.DG_1T5, 8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.e_1step_per_bit = 1e-15

    def test_resolve_returns_new_instance(self):
        model = EnergyModel(DesignKind.DG_1T5, 8, fidelity="paper")
        resolved = model.resolve()
        assert resolved is not model
        assert model.e_1step_per_bit is None  # original untouched
        assert resolved.e_1step_per_bit is not None
        assert resolved.resolve() is resolved  # already priced

    def test_explicit_fields_resolve_to_self(self):
        model = EnergyModel(DesignKind.DG_1T5, 8, e_1step_per_bit=1e-15,
                            e_2step_per_bit=2e-15, latency_1step=1e-9,
                            latency_2step=2e-9,
                            write_energy_per_cell=0.4e-15)
        assert model.resolve() is model

    def test_bad_fidelity_rejected(self):
        with pytest.raises(OperationError):
            EnergyModel(DesignKind.DG_1T5, 8, fidelity="verilog")

    def test_shared_model_not_cross_contaminated(self):
        """One unresolved model shared by two arrays stays unresolved in
        the sharer's hands; each array keeps its own priced copy."""
        shared = EnergyModel(DesignKind.DG_1T5, 8, fidelity="paper")
        a = TernaryCAM(rows=2, width=8, energy_model=shared)
        b = TernaryCAM(rows=2, width=8, energy_model=shared)
        a.write(0, "10101010")
        assert shared.e_1step_per_bit is None
        assert a.energy_model.resolved
        assert not b.energy_model.resolved  # b has not priced anything yet
        b.write(0, "10101010")
        assert a.energy_spent == b.energy_spent

    def test_what_if_swap_takes_effect(self):
        cam = TernaryCAM(rows=1, width=8, energy_model=EnergyModel(
            DesignKind.DG_1T5, 8, e_1step_per_bit=1e-15,
            e_2step_per_bit=2e-15, latency_1step=1e-9, latency_2step=2e-9,
            write_energy_per_cell=0.0))
        cam.write(0, "11111111")
        before = cam.search("11111111").energy
        cam.energy_model = dataclasses.replace(cam.energy_model,
                                               e_2step_per_bit=4e-15)
        after = cam.search("11111111").energy
        assert after == pytest.approx(2 * before)

    def test_default_resolution_matches_legacy_spice_path(self):
        resolved = EnergyModel(DesignKind.DG_1T5, 16).resolve()
        fom = evaluate(DesignPoint(DesignKind.DG_1T5, word_length=16),
                       "spice")
        assert resolved.fidelity == "spice"
        assert resolved.e_1step_per_bit == fom.search_energy_1step
        assert resolved.e_2step_per_bit == fom.search_energy_total
        assert resolved.latency_1step == fom.latency_1step
        assert resolved.latency_2step == fom.latency_total
        assert resolved.write_energy_per_cell == fom.write_energy_per_cell


class TestStoreFidelity:
    def test_config_validates_fidelity(self):
        with pytest.raises(OperationError):
            StoreConfig(width=8, rows=4, fidelity="fast")

    def test_default_fidelity_is_spice(self):
        config = StoreConfig(width=8, rows=4)
        assert config.fidelity == "spice"
        assert config.resolve_energy_model().fidelity == "spice"

    def test_explicit_priced_model_wins_over_fidelity(self):
        model = EnergyModel(DesignKind.DG_1T5, 8, e_1step_per_bit=1e-15,
                            e_2step_per_bit=2e-15, latency_1step=1e-9,
                            latency_2step=2e-9, write_energy_per_cell=0.0)
        config = StoreConfig(width=8, rows=4, energy_model=model,
                             fidelity="analytical")
        assert config.resolve_energy_model() is model

    def test_unresolved_model_fidelity_conflict_rejected(self):
        """An unpriced explicit model whose fidelity contradicts the
        config's would silently re-route pricing; it must raise."""
        config = StoreConfig(width=8, rows=4,
                             energy_model=EnergyModel(DesignKind.DG_1T5, 8),
                             fidelity="analytical")
        with pytest.raises(OperationError):
            config.resolve_energy_model()
        with pytest.raises(OperationError):
            CamStore(config)
        # Aligned fidelities pass through untouched.
        aligned = StoreConfig(
            width=8, rows=4, fidelity="analytical",
            energy_model=EnergyModel(DesignKind.DG_1T5, 8,
                                     fidelity="analytical"))
        assert aligned.resolve_energy_model().fidelity == "analytical"

    @pytest.mark.parametrize("banks", [1, 4], ids=["array", "fabric"])
    def test_analytical_store_never_invokes_spice(self, banks):
        """The acceptance guarantee: an analytical-fidelity store builds
        and prices searches with zero SPICE-tier calls, on both
        backends."""
        with _SpiceCounter() as counter:
            store = CamStore(StoreConfig(width=8, rows=8, banks=banks,
                                         fidelity="analytical"))
            store.insert("1010XXXX", key="r0")
            result = store.search("10101111")
            assert result.best.key == "r0"
            assert result.energy > 0
            assert result.latency > 0
            assert counter.calls == 0

    def test_paper_store_never_invokes_spice(self):
        with _SpiceCounter() as counter:
            store = CamStore(StoreConfig(width=8, rows=4,
                                         fidelity="paper"))
            store.insert("1111XXXX", key="r0")
            store.search("11111111")
            assert counter.calls == 0

    def test_spice_store_invokes_spice_tier(self):
        """Default fidelity still resolves through the transient tier
        (two scenario runs for a two-step design)."""
        with _SpiceCounter(fake=True) as counter:
            store = CamStore(StoreConfig(width=8, rows=4))
            store.insert("1010XXXX", key="r0")
            store.search("10101111")
            assert counter.calls == 2  # step1_miss + step2_miss

    def test_fidelity_tiers_price_differently(self):
        """Same workload, different tier, different (all nonzero) cost —
        the knob actually reaches the pricing."""
        energies = {}
        for fidelity in ("paper", "analytical"):
            store = CamStore(StoreConfig(width=16, rows=4,
                                         fidelity=fidelity))
            store.insert("1010" * 4, key="r0")
            energies[fidelity] = store.search("1010" * 4).energy
        assert energies["paper"] > 0
        assert energies["analytical"] > 0
        assert energies["paper"] != energies["analytical"]
