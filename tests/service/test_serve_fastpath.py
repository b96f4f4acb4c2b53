"""The slimmed request path keeps the front door's semantics.

``submit`` now short-circuits validation for already-canonical
'0'/'1' queries; everything non-canonical must still take the full
normalization path and raise the same errors.  Served results stay
isolated from later writes.
"""

import asyncio

import pytest

from fecam.errors import (OperationError, ServiceOverloaded,
                          TernaryValueError)
from fecam.service import SearchService
from fecam.store import CamStore, StoreConfig
from fecam.store.result import Query


@pytest.fixture
def store():
    store = CamStore(StoreConfig(width=8, rows=8, banks=2,
                                 fidelity="analytical"))
    store.insert("0101XXXX", key="rule-a")
    store.insert("01011111", key="rule-b")
    return store


def test_canonical_and_noncanonical_queries_agree(store):
    with SearchService(store) as service:
        canonical = service.search("01010000").result
        # An int-sequence query skips the fast path and normalizes.
        as_ints = service.search(Query(bits=[0, 1, 0, 1, 0, 0, 0, 0]))
        assert canonical.match_keys == ["rule-a"]
        assert as_ints.result.match_keys == ["rule-a"]


def test_malformed_queries_still_fail_at_the_front_door(store):
    with SearchService(store) as service:
        with pytest.raises(TernaryValueError):
            service.submit("0101")            # wrong width
        with pytest.raises(TernaryValueError):
            service.submit("0101XXXX")        # wildcards are not queries
        with pytest.raises(TernaryValueError):
            service.submit(Query(bits="0101222"))  # junk symbols
        # The service keeps serving after front-door rejections.
        assert service.search("01010000").result.best.key == "rule-a"


def test_served_results_are_frozen_snapshots(store):
    with SearchService(store) as service:
        served = service.search("01010000")
        service.update("rule-a", "1111XXXX")
        assert served.result.matches[0].word == "0101XXXX"
        # A post-write search observes the new content.
        assert service.search("11110000").result.best.key == "rule-a"


def test_search_many_burst_shares_one_future(store):
    with SearchService(store, max_batch=8) as service:
        served = service.search_many(["01010000"] * 5 + ["11111111"] * 3)
    assert [s.result.best.key if s.result.best else None
            for s in served] == ["rule-a"] * 5 + [None] * 3
    stats = service.stats
    assert stats.submitted == 8
    assert stats.served == 8
    assert stats.latency_samples == 8
    assert all(s.latency >= 0.0 for s in served)


def test_burst_validation_is_all_or_nothing(store):
    with SearchService(store) as service:
        with pytest.raises(TernaryValueError):
            service.search_many(["01010000", "0101"])  # second is junk
        with pytest.raises(TernaryValueError):
            service.submit_many(["01010000", "0101"])
        assert service.stats.submitted == 0  # nothing enqueued


def test_async_burst_validation_is_all_or_nothing(store):
    with SearchService(store) as service:
        with pytest.raises(TernaryValueError):
            asyncio.run(service.asearch_many(["01010000", "0101"]))
        assert service.stats.submitted == 0  # nothing enqueued
        served = asyncio.run(service.asearch_many(["01010000"] * 3))
    assert [s.result.best.key for s in served] == ["rule-a"] * 3


def test_async_burst_backpressure_is_all_or_nothing(store):
    service = SearchService(store, start=False, max_queue=4)
    with pytest.raises(ServiceOverloaded):
        asyncio.run(service.asearch_many(["01010000"] * 5))
    assert service.stats.submitted == 0
    assert service.stats.overloads == 1
    service.close()


def test_burst_backpressure_is_all_or_nothing(store):
    service = SearchService(store, start=False, max_queue=4)
    with pytest.raises(ServiceOverloaded):
        service.submit_many(["01010000"] * 5)
    assert service.stats.submitted == 0
    assert service.stats.overloads == 1
    # A burst that fits is accepted whole.
    futures = service.submit_many(["01010000"] * 4)
    service.start()
    assert [f.result(5.0).result.best.key for f in futures] == ["rule-a"] * 4
    service.close()


def test_burst_dispatch_error_fails_the_shared_future(store):
    with SearchService(store) as service:
        boom = OperationError("injected backend failure")

        def broken(*args, **kwargs):
            raise boom

        service.store.search_batch = broken
        with pytest.raises(OperationError, match="injected"):
            service.search_many(["01010000", "11111111"])
        assert service.stats.failed == 2


def test_uncached_service_serves_identical_results(store):
    # Twin stores: a service owns its store's consistency, so the two
    # cache modes must not share one backend.
    twin = CamStore(StoreConfig(width=8, rows=8, banks=2,
                                fidelity="analytical"))
    twin.insert("0101XXXX", key="rule-a")
    twin.insert("01011111", key="rule-b")
    with SearchService(store, use_cache=False) as uncached, \
            SearchService(twin, use_cache=True) as cached:
        plain = uncached.search_many(["01010000", "01011111"])
        via_cache = cached.search_many(["01010000", "01011111"])
    assert [s.result.match_keys for s in plain] == \
        [s.result.match_keys for s in via_cache]
    assert all(not s.result.cached for s in plain)


def test_batched_completion_counts_every_request(store):
    with SearchService(store, max_batch=16) as service:
        futures = service.submit_many(["01010000"] * 10 + ["11111111"] * 6)
        results = [f.result(5.0) for f in futures]
    stats = service.stats
    assert stats.submitted == 16
    assert stats.served == 16
    assert stats.failed == 0
    assert stats.latency_samples == 16
    assert [r.result.best.key for r in results[:10]] == ["rule-a"] * 10
    assert all(not r.result.matches for r in results[10:])
