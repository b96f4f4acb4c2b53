"""Tests for the `fecam.store` associative-store API: config
resolution, the result model, backend injection, and reprs.

The per-backend write/erase/update/search/search_batch/stats/cache
battery lives in ``tests/store/test_backend_conformance.py``, which
runs one shared suite over ``FabricBackend(banks=1)``,
``FabricBackend(banks=4)`` and the cluster — add backend behavior tests
there, not here."""

import pytest

from fecam.designs import DesignKind
from fecam.errors import OperationError, TernaryValueError
from fecam.functional import EnergyModel, TernaryCAM
from fecam.store import (CamStore, FabricBackend, Match, Query,
                         QueryResult, StoreConfig)


def fast_model(width):
    """Explicit figures of merit: no circuit evaluation in unit tests."""
    return EnergyModel(DesignKind.DG_1T5, width, e_1step_per_bit=0.8e-15,
                       e_2step_per_bit=1.3e-15, latency_1step=0.7e-9,
                       latency_2step=2.3e-9, write_energy_per_cell=0.4e-15)


class TestStoreConfig:
    def test_validation(self):
        with pytest.raises(OperationError):
            StoreConfig(banks=0)
        with pytest.raises(OperationError):
            StoreConfig(cache_size=-1)
        with pytest.raises(OperationError):
            StoreConfig(backend="gpu")
        with pytest.raises(OperationError):
            StoreConfig(placement="random")
        with pytest.raises(OperationError):
            StoreConfig(backend="array", banks=4)
        with pytest.raises(OperationError):
            StoreConfig(width=0)
        with pytest.raises(OperationError):
            StoreConfig(rows=0)

    def test_resolved_fills_missing_only(self):
        config = StoreConfig(width=16).resolved(width=8, rows=32)
        assert config.width == 16  # explicit value wins
        assert config.rows == 32
        with pytest.raises(OperationError):
            StoreConfig().resolved(width=8)  # rows still missing

    def test_rows_per_bank_rounds_up(self):
        assert StoreConfig(rows=10, banks=4).rows_per_bank == 3


class TestQueryModel:
    def test_coerce(self):
        q = Query.coerce("1010")
        assert q == Query(bits="1010", mask=None)
        assert Query.coerce(q) is q
        with pytest.raises(TernaryValueError):
            Query.coerce(1010)

    def test_result_helpers(self):
        m = Match(key="k", word="10", priority=0, bank=0, row=0)
        result = QueryResult(query=Query("10"), matches=[m])
        assert result.best is m
        assert result.match_keys == ["k"]
        assert len(result) == 1
        empty = QueryResult(query=Query("10"))
        assert empty.best is None and bool(empty)

    def test_match_is_the_fabrics_entry_record(self):
        from fecam.fabric import Match as FabricMatch

        assert Match is FabricMatch
        store = CamStore(StoreConfig(width=8, rows=4,
                                     energy_model=fast_model(8)))
        inserted = store.insert("1010XXXX", key="a")
        # One record per entry: what insert returns, what the fabric
        # stores, and what a search yields are the same object.
        assert inserted is store.get("a")
        assert inserted is store.backend.fabric.entry("a")
        assert store.search("10101111").matches[0] is inserted

    def test_batch_results_name_what_matched_at_search_time(self):
        """A delete plus an insert that reuses the freed row, both after
        the search, must not change what the earlier results name —
        even though nothing read them before the writes."""
        store = CamStore(StoreConfig(width=8, rows=4,
                                     energy_model=fast_model(8)))
        store.insert("1010XXXX", key="old")
        results = store.search_batch(["10101111", "00000000"],
                                     use_cache=False)
        freed = store.get("old").row
        store.delete("old")
        assert store.insert("10XXXXXX", key="new").row == freed
        assert store.search("10101111", use_cache=False).match_keys \
            == ["new"]
        assert results[0].match_keys == ["old"]
        assert results[0].matches[0].key == "old"
        assert results[0].query == Query("10101111")
        assert results[1].match_keys == []


class TestBackendInjection:
    def test_backend_plus_config_rejected(self):
        config = StoreConfig(width=8, rows=4)
        backend = FabricBackend(config.resolved())
        with pytest.raises(OperationError):
            CamStore(config, backend=backend)

    def test_injected_backend_continues_the_sequence(self):
        config = StoreConfig(width=8, rows=8, energy_model=fast_model(8))
        placements = [("old0", "XXXXXXXX", 0, None, 0, 0, 0),
                      ("old5", "XXXXXXXX", 5, None, 5, 0, 5)]
        store = CamStore(
            backend=FabricBackend.from_placements(config, placements))
        fresh = store.insert("XXXXXXXX", key="fresh")
        # Fresh entries sort strictly after every adopted one: no
        # priority collision, no outranking of adopted seq 5.
        assert fresh.priority > 5 and fresh.seq > 5
        assert store.search("11111111").match_keys == \
            ["old0", "old5", "fresh"]

    def test_geometry_conflicts_rejected_at_construction(self):
        from fecam.apps import SeedIndex, TcamCache, TcamRouter

        with pytest.raises(OperationError):
            StoreConfig(width=16).with_geometry(width=32, rows=4)
        with pytest.raises(OperationError):
            StoreConfig(rows=99).with_geometry(width=32, rows=4)
        with pytest.raises(OperationError):
            TcamCache(lines=2, block_bits=4, address_bits=16,
                      store_config=StoreConfig(width=16))
        with pytest.raises(OperationError):
            SeedIndex("ACGTACGT", k=4,
                      store_config=StoreConfig(width=32))
        router = TcamRouter(capacity=4,
                            store_config=StoreConfig(width=16))
        router.add_route("10.0.0.0/8", "hop")
        with pytest.raises(OperationError) as excinfo:
            router.lookup("10.1.1.1")  # rebuild applies the geometry
        assert "width" in str(excinfo.value)


class TestContainersAndReprs:
    def test_ternary_cam_contains(self):
        cam = TernaryCAM(rows=4, width=8, energy_model=fast_model(8))
        cam.write(0, "1010XXXX")
        assert "1010XXXX" in cam
        assert "1010**??" in cam       # alias forms normalize
        assert "10101111" not in cam   # a query that matches != stored
        assert "1010" not in cam       # wrong width
        assert "10Z0XXXX" not in cam   # un-normalizable
        assert 1234 not in cam
        cam.erase(0)
        assert "1010XXXX" not in cam

    def test_ternary_cam_repr(self):
        cam = TernaryCAM(rows=4, width=8, energy_model=fast_model(8))
        cam.write(0, "1010XXXX")
        text = repr(cam)
        assert "4x8" in text and "1/4" in text and \
            str(DesignKind.DG_1T5) in text

    def test_fabric_repr(self):
        from fecam.fabric import TcamFabric

        fabric = TcamFabric(banks=2, rows_per_bank=4, width=8,
                            energy_model=fast_model(8))
        fabric.insert("1010XXXX", key="a")
        text = repr(fabric)
        assert "banks=2" in text and "1/8" in text
        assert str(DesignKind.DG_1T5) in text
        assert "a" in fabric and len(fabric) == 1


class TestPackWordsErrors:
    def test_length_error_names_word_index(self):
        from fecam.functional import pack_words

        with pytest.raises(TernaryValueError) as excinfo:
            pack_words(["1010", "101", "1111"], 4)
        assert "word 1" in str(excinfo.value)

    def test_symbol_error_names_word_and_position(self):
        from fecam.functional import pack_words

        with pytest.raises(TernaryValueError) as excinfo:
            pack_words(["1010", "10Z0"], 4)
        message = str(excinfo.value)
        assert "word 1" in message and "'Z'" in message and \
            "position 2" in message

    def test_non_ascii_error_names_word_index(self):
        from fecam.functional import pack_words

        with pytest.raises(TernaryValueError) as excinfo:
            pack_words(["1010", "10é0"], 4)
        assert "word 1" in str(excinfo.value)
