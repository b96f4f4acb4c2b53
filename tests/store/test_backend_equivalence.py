"""Property tests: sharding is invisible.

The headline guarantee of `fecam.store`: a one-bank store and the same
table sharded over 2–4 banks return the identical matches in the
identical global priority order, and — because every row's
step-1/step-2 behavior is independent of which bank holds it — the same
per-query energy and latency, with or without the query cache.
(What one bank itself must answer is pinned independently, against the
`fecam`-free NumPy oracle, in ``tests/store/test_oracle.py``.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# Example depth comes from the settings profile registered in
# tests/conftest.py (HYPOTHESIS_PROFILE=ci|dev|nightly): deep locally,
# bounded on CI, exhaustive nightly.

from fecam.designs import DesignKind
from fecam.functional import EnergyModel
from fecam.store import CamStore, StoreConfig

WIDTH = 10


def fast_model():
    return EnergyModel(DesignKind.DG_1T5, WIDTH, e_1step_per_bit=0.8e-15,
                       e_2step_per_bit=1.3e-15, latency_1step=0.7e-9,
                       latency_2step=2.3e-9, write_energy_per_cell=0.4e-15)


def build_store(banks, words, priorities, cache_size=0):
    store = CamStore(StoreConfig(
        width=WIDTH, rows=max(len(words), 1) * banks, banks=banks,
        cache_size=cache_size, energy_model=fast_model()))
    if words:
        store.insert_many(words, keys=list(range(len(words))),
                          priorities=priorities)
    return store


words_strategy = st.lists(
    st.text(alphabet="01X", min_size=WIDTH, max_size=WIDTH),
    min_size=0, max_size=12)
queries_strategy = st.lists(
    st.text(alphabet="01", min_size=WIDTH, max_size=WIDTH),
    min_size=1, max_size=16)
banks_strategy = st.integers(min_value=2, max_value=4)


@settings(deadline=None)
@given(words=words_strategy, queries=queries_strategy,
       banks=banks_strategy, data=st.data())
def test_multibank_matches_one_bank(words, queries, banks, data):
    """Same matches in the same global priority order (ties included),
    same per-query energy and latency, same total array energy."""
    priorities = data.draw(st.lists(
        st.integers(min_value=0, max_value=5), min_size=len(words),
        max_size=len(words)))
    one = build_store(1, words, priorities)
    many = build_store(banks, words, priorities)

    for lhs, rhs in zip(one.search_batch(queries),
                        many.search_batch(queries)):
        assert lhs.match_keys == rhs.match_keys
        assert lhs.energy == pytest.approx(rhs.energy, rel=1e-12)
        assert lhs.latency == rhs.latency
    assert one.stats.energy_total == \
        pytest.approx(many.stats.energy_total, rel=1e-12)


@settings(deadline=None)
@given(words=st.lists(st.text(alphabet="01X", min_size=WIDTH,
                              max_size=WIDTH), min_size=1, max_size=8),
       queries=queries_strategy, banks=banks_strategy)
def test_equivalence_survives_caching(words, queries, banks):
    """With equal cache configs, any bank count serves the same hits
    and the same results."""
    priorities = list(range(len(words)))
    one = build_store(1, words, priorities, cache_size=8)
    many = build_store(banks, words, priorities, cache_size=8)
    for _ in range(2):  # second pass is cache-served
        for lhs, rhs in zip(one.search_batch(queries),
                            many.search_batch(queries)):
            assert lhs.match_keys == rhs.match_keys
            assert lhs.cached == rhs.cached
            assert lhs.energy == pytest.approx(rhs.energy, rel=1e-12)
    assert one.stats.cache_hits == many.stats.cache_hits
    assert one.stats.array_searches == many.stats.array_searches


def test_deletion_and_update_keep_bank_counts_aligned():
    words = ["1010101010", "0101010101", "11111XXXXX", "XXXXX00000"]
    stores = [build_store(banks, words, list(range(4)))
              for banks in (1, 3)]
    for store in stores:
        store.delete(1)
        store.update(2, "11111X1X1X")
        store.insert("0101010101", key="replacement", priority=1)
    lhs, rhs = (s.search_batch(["1111111111", "0101010101"])
                for s in stores)
    for a, b in zip(lhs, rhs):
        assert a.match_keys == b.match_keys
        assert a.energy == pytest.approx(b.energy, rel=1e-12)
        assert a.latency == b.latency
