"""The store against an oracle that shares no code with it.

``benchmarks/e2e/data.py`` imports nothing from ``fecam``: it generates a
router-style table of nested prefixes (about 1.6 matches per query, so
hydration and the priority encoder actually run) and recomputes every
expected answer from the character matrices with NumPy alone.  This is
the store's independent second opinion — a bug shared by every fecam
layer cannot hide behind itself — at one bank and at four, unmasked and
under the benchmark's upper-32 field mask.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from fecam.store import CamStore, StoreConfig

_DATA_PY = Path(__file__).parents[2] / "benchmarks" / "e2e" / "data.py"


@pytest.fixture(scope="module")
def data():
    """``benchmarks/e2e/data.py``, loaded read-only under a private name
    (its directory never joins ``sys.path``)."""
    spec = importlib.util.spec_from_file_location("_e2e_data", _DATA_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workload(data):
    """The ``--smoke`` router table and query pool (seed 0)."""
    rng = np.random.default_rng(0)
    geo = data.GEOMETRY_SMOKE
    table, _ = data.make_table(rng, int(geo.rows * data.FILL))
    return table, data.make_queries(rng, table, 2048)


@pytest.mark.parametrize("banks", [1, 4])
def test_store_agrees_with_the_numpy_oracle(data, workload, banks):
    table, query_bits = workload
    store = CamStore(StoreConfig(
        width=data.WIDTH, rows=data.GEOMETRY_SMOKE.rows, banks=banks,
        fidelity="paper"))
    store.insert_many(table.words, keys=table.keys,
                      priorities=table.priorities)
    queries = data.query_strings(query_bits)
    matched = 0
    for mask in (None, data.UPPER32_MASK):
        expected = data.expected_matches(table, query_bits, mask)
        results = store.search_batch(queries, mask)
        assert [r.match_keys for r in results] == expected
        matched += sum(map(len, expected))
    # The table must actually match: an oracle agreeing on empty
    # answers would prove nothing.
    assert matched > 2 * len(queries)
