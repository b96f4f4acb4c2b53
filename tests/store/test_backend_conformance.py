"""Backend conformance: one shared battery, every backend configuration.

Every :class:`~fecam.store.SearchBackend` must satisfy the identical
store contract — write/erase/update/search/search_batch/stats/cache
semantics.  This suite is that contract, written once and run over
every supported backend configuration through a parametrized fixture:

* ``fabric-1`` — :class:`FabricBackend` with a single bank;
* ``fabric-4`` — :class:`FabricBackend` sharded over four banks;
* ``cluster``  — :class:`~fecam.cluster.ClusterBackend`: the same
  fabric behind a shared-memory arena, searches served by two worker
  *processes* over zero-copy views.  Running the identical battery
  proves the multi-process path is bit-identical — matches, energy,
  latency, counters — to the in-process backend.

Adding a backend (or a bank count) to ``BACKEND_CONFIGS`` runs the
whole battery against it with zero new test code — the replacement for
the historical per-backend test duplication in ``tests/store/``.
"""

import pytest

from fecam.cluster import ClusterBackend
from fecam.designs import DesignKind
from fecam.errors import OperationError, TernaryValueError
from fecam.functional import EnergyModel
from fecam.store import CamStore, FabricBackend, Query, StoreConfig

#: Every backend configuration the battery must pass on.
BACKEND_CONFIGS = [
    pytest.param(dict(backend="fabric", banks=1), id="fabric-1"),
    pytest.param(dict(backend="fabric", banks=4), id="fabric-4"),
    pytest.param(dict(backend="cluster", banks=2), id="cluster"),
]

_EXPECTED_BACKEND = {"fabric": FabricBackend, "cluster": ClusterBackend}


def fast_model(width):
    """Explicit figures of merit: no circuit evaluation in unit tests."""
    return EnergyModel(DesignKind.DG_1T5, width, e_1step_per_bit=0.8e-15,
                       e_2step_per_bit=1.3e-15, latency_1step=0.7e-9,
                       latency_2step=2.3e-9, write_energy_per_cell=0.4e-15)


@pytest.fixture(params=BACKEND_CONFIGS)
def backend_kw(request):
    """The backend selector of one conformance run."""
    return dict(request.param)


@pytest.fixture
def store_factory(backend_kw):
    """Build a store on the parametrized backend configuration.

    ``cluster`` is not a :data:`~fecam.store.config.BACKEND_KINDS`
    config value (it wraps a fabric config), so it is built explicitly
    and injected via ``CamStore(backend=...)``; its worker processes
    and shared segments are torn down when the test ends.
    """
    backends = []

    def make(width=8, rows=8, **kw):
        kw.setdefault("energy_model", fast_model(width))
        if backend_kw["backend"] == "cluster":
            config = StoreConfig(width=width, rows=rows, backend="fabric",
                                 banks=backend_kw["banks"], **kw)
            backend = ClusterBackend(config, workers=2)
            backends.append(backend)
            return CamStore(backend=backend)
        return CamStore(StoreConfig(width=width, rows=rows,
                                    **backend_kw, **kw))

    yield make
    for backend in backends:
        backend.close()


@pytest.fixture
def store(store_factory):
    return store_factory()


class TestBackendSelection:
    def test_fixture_builds_the_advertised_backend(self, store, backend_kw):
        assert isinstance(store.backend,
                          _EXPECTED_BACKEND[backend_kw["backend"]])
        assert store.banks == backend_kw["banks"]
        assert store.stats.backend == store.backend.name

    @pytest.mark.parametrize("spelling", ["array", "auto"])
    def test_every_config_spelling_builds_the_one_backend(self, spelling):
        """``StoreConfig.backend`` is inert (the frozen benchmark still
        passes it): every spelling builds a working fabric store."""
        store = CamStore(StoreConfig(width=8, rows=4, backend=spelling,
                                     energy_model=fast_model(8)))
        assert isinstance(store.backend, FabricBackend)
        assert store.banks == 1 and store.stats.backend == "fabric"
        store.insert("1010XXXX", key="a")
        store.insert("10101111", key="b")
        assert store.search("10101111").match_keys == ["a", "b"]
        assert [(m.bank, m.row) for m in store.entries()] == \
            [(0, 0), (0, 1)]


class TestWriteEraseUpdate:
    def test_insert_search_delete_update(self, store):
        store.insert("1010XXXX", key="a")
        store.insert("10101111", key="b")
        assert store.search("10101111").match_keys == ["a", "b"]
        assert store.search_first("10101010").key == "a"
        store.delete("b")
        assert "b" not in store and "a" in store
        assert store.search("10101111").match_keys == ["a"]
        store.update("a", "0000XXXX")
        assert store.search("10101111").match_keys == []
        assert store.search("00001111").match_keys == ["a"]

    def test_erased_rows_are_reusable_and_never_ghost_match(
            self, store_factory):
        store = store_factory(rows=2)
        store.insert("11111111", key="a")
        store.insert("00000000", key="b")
        store.delete("a")
        assert store.search("11111111").match_keys == []  # no ghost
        store.insert("1111XXXX", key="c")  # the freed row is reusable
        assert len(store) == 2
        assert store.search("11111111").match_keys == ["c"]

    def test_generation_advances_once_per_operation(self, store):
        base = store.generation
        store.insert("1010XXXX", key="a")
        store.insert_many(["0101XXXX", "11110000"], keys=["b", "c"])
        store.update("a", "1010XX00")
        store.delete("b")
        assert store.generation == base + 4

    def test_priority_order_overrides_insertion(self, store):
        store.insert("XXXXXXXX", key="low", priority=10)
        store.insert("XXXXXXXX", key="high", priority=1)
        assert store.search("11110000").match_keys == ["high", "low"]
        assert [m.key for m in store.entries()] == ["high", "low"]

    def test_auto_keys_are_unique(self, store):
        m1 = store.insert("1111XXXX")
        m2 = store.insert("1111XXXX")
        assert m1.key != m2.key
        assert len(store) == 2

    def test_bulk_insert_fills_none_keys_with_unique_autos(self, store):
        matches = store.insert_many(
            ["1111XXXX", "0000XXXX", "1010XXXX"], keys=[None, "b", None])
        assert matches[1].key == "b"
        assert matches[0].key != matches[2].key
        assert len(store) == 3

    def test_duplicate_key_rejected(self, store):
        store.insert("1111XXXX", key="k")
        with pytest.raises(OperationError):
            store.insert("0000XXXX", key="k")
        with pytest.raises(OperationError):
            store.insert_many(["0000XXXX"], keys=["k"])
        with pytest.raises(OperationError):
            store.insert_many(["0000XXXX", "1111XXXX"], keys=["x", "x"])

    def test_insert_many_matches_scalar_loop(self, store_factory):
        bulk = store_factory(rows=16)
        loop = store_factory(rows=16)
        words = ["1010XXXX", "0101XXXX", "11110000", "XXXXXXXX"]
        bulk.insert_many(words, keys=list("abcd"), payloads=[1, 2, 3, 4])
        for key, payload, word in zip("abcd", [1, 2, 3, 4], words):
            loop.insert(word, key=key, payload=payload)
        for query in ("10101111", "01010000", "11110000"):
            lhs, rhs = bulk.search(query), loop.search(query)
            assert lhs.match_keys == rhs.match_keys
            assert lhs.energy == rhs.energy
            assert lhs.latency == rhs.latency

    def test_bad_word_in_bulk_insert_is_atomic(self, store):
        with pytest.raises(TernaryValueError) as excinfo:
            store.insert_many(["1010XXXX", "10Z0XXXX"], keys=["a", "b"])
        assert "word 1" in str(excinfo.value)
        assert len(store) == 0 and "a" not in store

    def test_alias_words_normalized(self, store):
        store.insert("1010**??", key="a")
        assert store.get("a").word == "1010XXXX"
        store.insert_many(["0101****"], keys=["b"])
        assert store.get("b").word == "0101XXXX"

    def test_capacity_enforced(self, store_factory):
        store = store_factory(rows=3)
        # Fabric capacity may round up to banks * rows_per_bank.
        for i in range(store.capacity):
            store.insert("11111111", key=i)
        with pytest.raises(OperationError):
            store.insert("1010XXXX")
        with pytest.raises(OperationError):
            store_factory(rows=1).insert_many(
                ["11111111"] * 8, keys=list(range(8)))

    def test_payload_roundtrip(self, store):
        store.insert("1111XXXX", key="a", payload={"hop": 3})
        assert store.search_first("11111111").payload == {"hop": 3}
        store.update("a", "1111XXXX", payload={"hop": 4})
        assert store.get("a").payload == {"hop": 4}


class TestSearch:
    def test_mask_excludes_positions(self, store):
        store.insert("11110000", key="a")
        assert store.search("11110011").match_keys == []
        masked = store.search("11110011", mask="11111100")
        assert masked.match_keys == ["a"]
        assert store.search(Query("11110011",
                                  mask="11111100")).match_keys == ["a"]

    def test_mixed_masks_in_batch_rejected(self, store):
        with pytest.raises(OperationError):
            store.search_batch([Query("11110000", mask="11111100"),
                                Query("11110000", mask="00111111")])
        # A masked Query must not leak its mask onto an unmasked
        # neighbour (which sequential semantics would search unmasked).
        with pytest.raises(OperationError):
            store.search_batch([Query("11110000", mask="11111100"),
                                "11110000"])
        with pytest.raises(OperationError):
            store.search_batch([Query("11110000", mask="11111100")],
                               mask="00111111")
        # Agreeing masks are fine.
        store.insert("11110000", key="a")
        results = store.search_batch(
            [Query("11110011", mask="11111100"), "11110011"],
            mask="11111100")
        assert [r.match_keys for r in results] == [["a"], ["a"]]

    def test_search_batch_matches_scalar_loop(self, store_factory):
        store = store_factory(rows=16)
        store.insert_many(["1010XXXX", "0101XXXX", "10101111"],
                          keys=list("abc"))
        queries = ["10101111", "01011111", "10101111", "00000000"]
        batched = store.search_batch(queries, use_cache=False)
        scalars = [store.search(q, use_cache=False) for q in queries]
        assert [r.match_keys for r in batched] == \
            [r.match_keys for r in scalars]
        assert [r.energy for r in batched] == [r.energy for r in scalars]
        assert [r.latency for r in batched] == \
            [r.latency for r in scalars]
        assert store.search_batch([]) == []


class TestStats:
    def test_counters_and_repr(self, store):
        store.insert("1111XXXX", key="a")
        store.search("11111111")
        stats = store.stats
        assert stats.occupancy == 1 and stats.capacity >= 8
        assert stats.searches == 1 and stats.array_searches == 1
        assert stats.writes == 1
        assert stats.energy_total > 0
        assert stats.worst_latency > 0
        assert stats.backend == store.backend.name
        text = repr(store)
        assert store.backend.name in text and \
            f"1/{store.capacity}" in text


class TestCacheSemantics:
    def test_cache_hits_cost_nothing(self, store_factory):
        store = store_factory(cache_size=8)
        store.insert("1010XXXX", key="a")
        first = store.search("10101111")
        energy = store.stats.energy_total
        assert not first.cached
        again = store.search("10101111")
        assert again.cached and again.energy == 0.0 and \
            again.latency == 0.0
        assert again.match_keys == first.match_keys
        assert store.stats.energy_total == energy  # no array fired
        assert store.stats.cache_hits == 1
        assert store.stats.array_searches == 1
        assert store.stats.searches == 2

    def test_any_write_invalidates(self, store_factory):
        store = store_factory(cache_size=8)
        store.insert("1010XXXX", key="a")
        assert store.search("10101111").match_keys == ["a"]
        store.insert("10101111", key="b")
        assert store.search("10101111").match_keys == ["a", "b"]
        store.delete("a")
        assert store.search("10101111").match_keys == ["b"]
        store.update("b", "0000XXXX")
        assert store.search("10101111").match_keys == []

    def test_batch_duplicates_computed_once(self, store_factory):
        store = store_factory(cache_size=8)
        store.insert("1010XXXX", key="a")
        results = store.search_batch(["10101111"] * 5)
        assert [r.match_keys for r in results] == [["a"]] * 5
        assert store.stats.array_searches == 1
        assert store.stats.cache_hits == 4
        assert sum(r.cached for r in results) == 4

    def test_cached_result_isolated_from_mutation(self, store_factory):
        store = store_factory(cache_size=8)
        store.insert("1010XXXX", key="a")
        store.search("10101111").matches.clear()  # caller misbehaves
        assert store.search("10101111").match_keys == ["a"]

    def test_use_cache_false_bypasses(self, store_factory):
        store = store_factory(cache_size=8)
        store.insert("1010XXXX", key="a")
        store.search("10101111")
        result = store.search("10101111", use_cache=False)
        assert not result.cached and result.energy > 0

    def test_mask_is_part_of_cache_key(self, store_factory):
        store = store_factory(cache_size=8)
        store.insert("11110000", key="a")
        miss = store.search("11110011")
        hit = store.search("11110011", mask="11111100")
        assert miss.match_keys == [] and hit.match_keys == ["a"]
        assert not hit.cached
        assert store.search("11110011", mask="11111100").cached
