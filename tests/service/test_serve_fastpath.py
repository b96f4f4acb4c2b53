"""The slimmed request path keeps the front door's semantics.

``submit`` now short-circuits validation for already-canonical
'0'/'1' queries; everything non-canonical must still take the full
normalization path and raise the same errors.  Served results stay
isolated from later writes.
"""

import asyncio
import io
import json
import re
import threading
import time

import pytest

from fecam.errors import (OperationError, ServiceClosed, ServiceOverloaded,
                          TernaryValueError)
from fecam.obs import EveryN, JsonLinesSink, Observability, Tracer
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


# -- a burst is one queue item ------------------------------------------------

MASK = "11110000"
BURST_A = ["01010000", "01011111", "11111111"]
BURST_B = ["01011111", "00000000", "01010101"]


def keys_of(store, queries, mask=None):
    return [store.search(q, mask=mask).match_keys for q in queries]


def wait_for_depth(service, depth, timeout=5.0):
    deadline = time.monotonic() + timeout
    while service.stats.queue_depth != depth:
        assert time.monotonic() < deadline, service.stats.queue_depth
        time.sleep(0.001)


def burst_in_thread(service, queries, outcome):
    def run():
        try:
            outcome.append(service.search_many(queries, timeout=5.0))
        except Exception as exc:  # the test inspects what was raised
            outcome.append(exc)
    thread = threading.Thread(target=run)
    thread.start()
    return thread


@pytest.mark.parametrize("door", ["submit", "submit_many", "search_many",
                                  "asearch_many"])
@pytest.mark.parametrize("bad, message", [
    ("10", "mask length != array width"),
    ("1111000Z", "mask must contain only '0'/'1' symbols")])
def test_bad_mask_is_rejected_at_every_front_door(store, door, bad,
                                                  message):
    calls = {
        "submit": lambda: service.submit("01010000", mask=bad),
        "submit_many": lambda: service.submit_many(["01010000"], mask=bad),
        "search_many": lambda: service.search_many(["01010000"], mask=bad),
        "asearch_many": lambda: asyncio.run(
            service.asearch_many(["01010000"], mask=bad)),
    }
    with SearchService(store) as service:
        with pytest.raises(TernaryValueError, match=re.escape(message)):
            calls[door]()
        assert service.stats.submitted == 0
        # A Query's own bad mask is caught at the door as well.
        with pytest.raises(TernaryValueError, match=re.escape(message)):
            service.search_many([Query("01010000", mask=bad)])
        assert service.stats.submitted == 0


def test_two_bursts_share_drains_split_at_max_batch(store):
    expected = {"a": keys_of(store, BURST_A), "b": keys_of(store, BURST_B)}
    service = SearchService(store, start=False, max_batch=4)
    outcomes = {"a": [], "b": []}
    threads = [burst_in_thread(service, BURST_A, outcomes["a"])]
    wait_for_depth(service, 3)
    threads.append(burst_in_thread(service, BURST_B, outcomes["b"]))
    wait_for_depth(service, 6)      # depth counts queries, not items
    assert service.stats.max_queue_depth == 6
    service.start()
    for thread in threads:
        thread.join(10.0)
    service.close()
    for name, outcome in outcomes.items():
        assert [s.match_keys for s in outcome[0]] == expected[name]
    stats = service.stats
    assert stats.batch_size_hist == {4: 1, 2: 1}
    assert (stats.served, stats.failed, stats.queue_depth) == (6, 0, 0)
    assert stats.latency_samples == 6


def test_one_burst_splits_into_max_batch_drains(store):
    queries = (BURST_A + BURST_B) + ["01010000"] * 4
    expected = keys_of(store, queries)
    with SearchService(store, max_batch=4) as service:
        served = service.search_many(queries)
    assert [s.match_keys for s in served] == expected
    assert service.stats.batch_size_hist == {4: 2, 2: 1}
    assert service.stats.served == 10


def test_queue_bound_counts_the_queries_of_a_burst(store):
    service = SearchService(store, start=False, max_queue=5)
    futures = service.submit_many(["01010000"] * 3)
    with pytest.raises(ServiceOverloaded):
        service.search_many(["01010000"] * 3, timeout=1.0)
    assert service.stats.queue_depth == 3
    service.start()
    assert len(service.search_many(["01010000"] * 2)) == 2
    assert all(f.result(5.0).match_keys == ["rule-a"] for f in futures)
    service.close()


def test_close_without_drain_fails_a_queued_burst_once(store):
    service = SearchService(store, start=False, max_batch=4)
    outcome = []
    thread = burst_in_thread(service, ["01010000"] * 10, outcome)
    wait_for_depth(service, 10)
    service.close(drain=False)
    thread.join(10.0)
    assert len(outcome) == 1 and isinstance(outcome[0], ServiceClosed)
    stats = service.stats
    assert (stats.failed, stats.served, stats.queue_depth) == (10, 0, 0)


def test_query_burst_with_mask_runs_matches_separate_searches(store):
    # Runs A, A | None | A: the unmasked member must not borrow the mask.
    queries = [Query("01010000", mask=MASK), Query("01010101", mask=MASK),
               "01010101", Query("01011111", mask=MASK)]
    with SearchService(store, max_batch=4) as service:
        separate = [service.search(q).match_keys for q in queries]
        burst = [s.match_keys for s in service.search_many(queries)]
    assert burst == separate
    assert [sorted(keys) for keys in separate] == \
        [["rule-a", "rule-b"]] * 2 + [["rule-a"], ["rule-a", "rule-b"]]


def test_traced_burst_finishes_every_member_with_all_stages(store):
    buf = io.StringIO()
    obs = Observability(tracer=Tracer(EveryN(1), JsonLinesSink(buf)))
    queries = ["01010000"] * 6 + ["11111111"] * 3
    with SearchService(store, max_batch=4, obs=obs) as service:
        service.search_many(queries)
    traces = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(traces) == len(queries)
    assert sorted(t["attrs"]["bits"] for t in traces) == sorted(queries)
    for trace in traces:
        stages = {span["name"] for span in trace["spans"]
                  if span["parent"] == 1}
        assert {"queue", "coalesce", "lock_wait", "kernel",
                "freeze"} <= stages
