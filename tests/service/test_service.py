"""Unit tests for the serving tier: RWLock, stats, SearchService
semantics (batching, snapshot tagging, backpressure, shutdown, front
doors), and the router/classifier ``serve()`` ports."""

import asyncio
import threading
import time

import pytest

from fecam.designs import DesignKind
from fecam.errors import (OperationError, ServiceClosed, ServiceError,
                          ServiceOverloaded, TernaryValueError)
from fecam.functional import EnergyModel
from fecam.service import (LatencyReservoir, RWLock, SearchService,
                           ServedResult)
from fecam.store import CamStore, Query, StoreConfig


def fast_model(width):
    return EnergyModel(DesignKind.DG_1T5, width, e_1step_per_bit=0.8e-15,
                       e_2step_per_bit=1.3e-15, latency_1step=0.7e-9,
                       latency_2step=2.3e-9, write_energy_per_cell=0.4e-15)


def make_store(width=8, rows=16, **kw):
    kw.setdefault("energy_model", fast_model(width))
    return CamStore(StoreConfig(width=width, rows=rows, **kw))


class TestRWLock:
    def test_concurrent_readers(self):
        lock = RWLock()
        inside = []
        barrier = threading.Barrier(3)

        def reader():
            with lock.read_locked():
                barrier.wait(timeout=5)  # all 3 hold the lock together
                inside.append(1)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(inside) == 3

    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        log = []

        def writer(tag):
            with lock.write_locked():
                log.append((tag, "in"))
                time.sleep(0.01)
                log.append((tag, "out"))

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Writers never interleave: every "in" is followed by its "out".
        for i in range(0, len(log), 2):
            assert log[i][0] == log[i + 1][0]
            assert log[i][1] == "in" and log[i + 1][1] == "out"

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        order = []
        reader_started = threading.Event()
        release_reader = threading.Event()

        def long_reader():
            with lock.read_locked():
                reader_started.set()
                release_reader.wait(timeout=5)

        def writer():
            with lock.write_locked():
                order.append("writer")

        def late_reader():
            with lock.read_locked():
                order.append("late-reader")

        t1 = threading.Thread(target=long_reader)
        t1.start()
        reader_started.wait(timeout=5)
        t2 = threading.Thread(target=writer)
        t2.start()
        time.sleep(0.02)  # writer is now waiting on the held read lock
        t3 = threading.Thread(target=late_reader)
        t3.start()
        time.sleep(0.02)
        release_reader.set()
        for t in (t1, t2, t3):
            t.join(timeout=5)
        # Writer preference: the late reader queued behind the writer.
        assert order == ["writer", "late-reader"]

    def test_unbalanced_release_raises(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_write()
        lock.acquire_read()
        lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_read()


class TestLatencyReservoir:
    def test_percentiles_nearest_rank(self):
        sample = [float(i) for i in range(1, 101)]
        assert LatencyReservoir.percentile(sample, 50.0) == 50.0
        assert LatencyReservoir.percentile(sample, 99.0) == 99.0
        assert LatencyReservoir.percentile(sample, 100.0) == 100.0
        assert LatencyReservoir.percentile([], 50.0) == 0.0
        with pytest.raises(ValueError):
            LatencyReservoir.percentile(sample, 101.0)

    def test_percentile_validates_p_before_touching_the_sample(self):
        # An out-of-range p is a caller bug even when the sample is
        # empty — the validation must not hide behind the empty-sample
        # early return (or behind the sort).
        for bad_p in (-0.1, 100.1):
            with pytest.raises(ValueError):
                LatencyReservoir.percentile([], bad_p)
            with pytest.raises(ValueError):
                LatencyReservoir.percentile([1.0], bad_p)

    def test_bounded_window(self):
        reservoir = LatencyReservoir(capacity=4)
        for value in range(10):
            reservoir.record(float(value))
        assert len(reservoir) == 4
        assert reservoir.snapshot() == (6.0, 7.0, 8.0, 9.0)

    def test_record_many_keeps_the_last_capacity_samples(self):
        reservoir = LatencyReservoir(capacity=4)
        reservoir.record_many(1.0, 3)
        assert reservoir.snapshot() == (1.0, 1.0, 1.0)
        reservoir.record_many(2.0, 2)
        assert reservoir.snapshot() == (1.0, 1.0, 2.0, 2.0)
        reservoir.record_many(3.0, 10)
        assert reservoir.snapshot() == (3.0,) * 4
        reservoir.record_many(4.0, 0)
        assert reservoir.snapshot() == (3.0,) * 4


class TestServiceBasics:
    def test_validation(self):
        store = make_store()
        with pytest.raises(OperationError):
            SearchService(store, max_batch=0)
        with pytest.raises(OperationError):
            SearchService(store, max_queue=0)
        with pytest.raises(OperationError):
            SearchService(store, max_wait=-1.0)

    def test_submit_result_roundtrip_and_generation_tag(self):
        store = make_store()
        store.insert("1010XXXX", key="a")
        with SearchService(store) as service:
            served = service.search("10101111")
            assert isinstance(served, ServedResult)
            assert served.match_keys == ["a"]
            assert served.best.key == "a"
            assert served.generation == store.generation == 1
            assert served.latency > 0.0
            assert served.result.energy > 0.0

    def test_coalescing_is_deterministic_with_delayed_start(self):
        store = make_store()
        store.insert("1111XXXX", key="k")
        service = SearchService(store, start=False, max_batch=16)
        futures = [service.submit("11111111") for _ in range(10)]
        assert service.stats.queue_depth == 10
        service.start()
        results = [f.result(timeout=5) for f in futures]
        assert all(r.match_keys == ["k"] for r in results)
        stats = service.stats
        assert stats.batches == 1
        assert stats.batch_size_hist == {10: 1}
        assert stats.coalesced == 10 and stats.direct == 0
        assert stats.coalesced_ratio == 1.0
        assert stats.mean_batch_size == 10.0
        service.close()

    def test_max_batch_splits_dispatches(self):
        store = make_store()
        store.insert("1111XXXX", key="k")
        service = SearchService(store, start=False, max_batch=4)
        futures = [service.submit("11111111") for _ in range(10)]
        service.close()  # inline drain serves everything
        assert all(f.done() for f in futures)
        assert service.stats.batch_size_hist == {4: 2, 2: 1}

    def test_mask_groups_fuse_correctly(self):
        store = make_store()
        store.insert("11110000", key="a")
        service = SearchService(store, start=False, max_batch=16)
        plain = service.submit("11110011")
        masked = service.submit(Query("11110011", mask="11111100"))
        arg_masked = service.submit("11110011", mask="11111100")
        service.close()
        assert plain.result().match_keys == []
        assert masked.result().match_keys == ["a"]
        assert arg_masked.result().match_keys == ["a"]
        # One drain, two mask groups, one dispatch batch.
        assert service.stats.batches == 1
        assert service.stats.batch_size_hist == {3: 1}

    def test_conflicting_masks_rejected_at_submit(self):
        store = make_store()
        with SearchService(store) as service:
            with pytest.raises(OperationError):
                service.submit(Query("11110000", mask="11111100"),
                               mask="00111111")

    def test_invalid_query_fails_fast_not_the_batch(self):
        store = make_store()
        store.insert("1111XXXX", key="k")
        with SearchService(store) as service:
            with pytest.raises(TernaryValueError):
                service.submit("10Z01111")
            with pytest.raises(TernaryValueError):
                service.submit("101")  # wrong width
            assert service.search("11111111").match_keys == ["k"]

    def test_search_many_preserves_order(self):
        store = make_store()
        store.insert("1010XXXX", key="a")
        store.insert("0101XXXX", key="b")
        with SearchService(store) as service:
            served = service.search_many(["10101111", "01011111",
                                          "00000000"])
            assert [s.match_keys for s in served] == [["a"], ["b"], []]


class TestBackpressureAndShutdown:
    def test_overload_raises_typed_error(self):
        store = make_store()
        service = SearchService(store, start=False, max_queue=2)
        service.submit("11111111")
        service.submit("11111111")
        with pytest.raises(ServiceOverloaded):
            service.submit("11111111")
        assert service.stats.overloads == 1
        assert service.stats.max_queue_depth == 2
        assert isinstance(ServiceOverloaded("x"), ServiceError)
        service.close()

    def test_submit_after_close_raises(self):
        store = make_store()
        service = SearchService(store)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit("11111111")
        with pytest.raises(ServiceClosed):
            service.write(lambda s: None)
        with pytest.raises(ServiceClosed):
            service.start()

    def test_close_drains_accepted_requests(self):
        store = make_store()
        store.insert("1111XXXX", key="k")
        service = SearchService(store, start=False)
        futures = [service.submit("11111111") for _ in range(5)]
        assert service.close(drain=True) is True  # drain contract held
        assert all(f.result().match_keys == ["k"] for f in futures)
        assert service.stats.served == 5

    def test_close_without_drain_fails_queued_requests(self):
        store = make_store()
        service = SearchService(store, start=False)
        futures = [service.submit("11111111") for _ in range(3)]
        service.close(drain=False)
        for future in futures:
            with pytest.raises(ServiceClosed):
                future.result()
        assert service.stats.failed == 3

    def test_close_is_idempotent(self):
        store = make_store()
        service = SearchService(store)
        service.close()
        service.close()
        assert service.closed

    def test_search_error_fails_only_its_group(self):
        store = make_store()
        store.insert("1111XXXX", key="k")
        service = SearchService(store, start=False, max_batch=16)
        good = service.submit("11111111")
        bad = service.submit("11111111", mask="11110000")
        search_batch = store.search_batch

        def fail_masked(queries, mask=None, **kwargs):
            # A bad mask is rejected at submit now, so the masked
            # group's dispatch error is injected.
            if mask is not None:
                raise OperationError("injected masked-group failure")
            return search_batch(queries, mask=mask, **kwargs)

        store.search_batch = fail_masked
        service.close()
        assert good.result().match_keys == ["k"]
        with pytest.raises(Exception):
            bad.result()
        assert service.stats.served == 1
        assert service.stats.failed == 1


class TestWritesAndIsolation:
    def test_write_wrappers_advance_generation(self):
        store = make_store()
        with SearchService(store) as service:
            service.insert("1010XXXX", key="a")
            service.insert_many(["0101XXXX"], keys=["b"])
            service.update("a", "1010XX11")
            service.delete("b")
            assert store.generation == 4
            assert service.stats.writes == 4
            assert service.stats.generation == 4

    def test_results_report_the_serving_generation(self):
        store = make_store()
        with SearchService(store) as service:
            service.insert("1111XXXX", key="old")
            first = service.search("11111111")
            service.insert("11111111", key="new")
            second = service.search("11111111")
            assert first.generation == 1
            assert first.match_keys == ["old"]
            assert second.generation == 2
            assert second.match_keys == ["old", "new"]

    def test_write_transaction_is_atomic_for_readers(self):
        store = make_store()
        store.insert("1111XXXX", key="a")
        with SearchService(store) as service:
            def swap(s):
                s.delete("a")
                s.insert("1111XXXX", key="b")

            results = []
            stop = threading.Event()

            def reader():
                while not stop.is_set():
                    results.append(service.search("11111111").match_keys)

            thread = threading.Thread(target=reader)
            thread.start()
            for _ in range(20):
                service.write(swap)
                service.write(lambda s: (s.delete("b"),
                                         s.insert("1111XXXX", key="a")))
            stop.set()
            thread.join(timeout=5)
            # Readers only ever see a complete transaction: exactly one
            # of the two keys, never zero, never both.
            assert results
            assert all(keys in (["a"], ["b"]) for keys in results)


class TestAsyncFrontDoor:
    def test_asearch_and_asearch_many(self):
        store = make_store()
        store.insert("1010XXXX", key="a")
        with SearchService(store) as service:
            async def main():
                one = await service.asearch("10101111")
                many = await service.asearch_many(
                    ["10101111", "00000000"])
                return one, many

            one, many = asyncio.run(main())
            assert one.match_keys == ["a"]
            assert [s.match_keys for s in many] == [["a"], []]
            assert one.generation == store.generation

    def test_async_concurrent_coroutines_coalesce(self):
        store = make_store()
        store.insert("1010XXXX", key="a")
        with SearchService(store, max_wait=5e-3, max_batch=64) as service:
            async def main():
                return await asyncio.gather(
                    *[service.asearch("10101111") for _ in range(16)])

            served = asyncio.run(main())
            assert all(s.match_keys == ["a"] for s in served)
            assert service.stats.coalesced > 0


class TestServiceStatsSnapshot:
    def test_as_dict_round_trip(self):
        store = make_store()
        store.insert("1111XXXX", key="k")
        with SearchService(store) as service:
            service.search_many(["11111111"] * 4)
            payload = service.stats.as_dict()
        assert payload["served"] == 4
        assert payload["submitted"] == 4
        assert payload["batches"] >= 1
        assert 0.0 <= payload["coalesced_ratio"] <= 1.0
        assert payload["p99_latency_s"] >= payload["p50_latency_s"] >= 0.0
        assert payload["latency_samples"] == 4

    def test_snapshot_carries_timestamp_and_uptime(self):
        store = make_store()
        before = time.time()
        with SearchService(store) as service:
            time.sleep(0.01)
            stats = service.stats
        assert before <= stats.timestamp <= time.time()
        assert stats.uptime_s >= 0.01
        payload = stats.as_dict()
        assert payload["timestamp"] == stats.timestamp
        assert payload["uptime_s"] == stats.uptime_s

    def test_batch_size_hist_survives_json(self):
        import json as _json

        from fecam.service import ServiceStats
        store = make_store()
        store.insert("1111XXXX", key="k")
        with SearchService(store) as service:
            service.search_many(["11111111"] * 3)
            stats = service.stats
        assert stats.batch_size_hist  # int keys in the live snapshot
        wire = _json.loads(_json.dumps(stats.as_dict()))
        rebuilt = ServiceStats.from_dict(wire)
        # the int-keyed histogram survives the dump/load cycle exactly
        # (json.dumps would silently stringify a naive int-keyed dict)
        assert rebuilt.batch_size_hist == stats.batch_size_hist
        assert rebuilt.mean_batch_size == pytest.approx(
            stats.mean_batch_size)
        assert rebuilt.timestamp == stats.timestamp
        assert rebuilt.uptime_s == stats.uptime_s

    def test_pending_counts_incomplete_requests(self):
        store = make_store()
        service = SearchService(store, start=False)
        service.submit("11111111")
        assert service.stats.pending == 1
        service.close()
        assert service.stats.pending == 0


class TestAppServing:
    def test_router_serve(self):
        from fecam.apps import TcamRouter

        router = TcamRouter(
            capacity=16,
            store_config=StoreConfig(energy_model=fast_model(32)))
        router.add_route("10.0.0.0/8", "core")
        router.add_route("10.1.0.0/16", "edge")
        with router.serve() as served:
            assert served.lookup("10.1.2.3") == "edge"
            assert served.lookup("10.9.9.9") == "core"
            assert served.lookup("8.8.8.8") is None
            assert served.lookup_batch(["10.1.0.1", "8.8.8.8"]) == \
                ["edge", None]
            assert asyncio.run(served.alookup("10.1.2.3")) == "edge"
            assert served.stats.served == 6  # 3 + batch of 2 + async
        # The service closed with the context.
        with pytest.raises(ServiceClosed):
            served.service.submit("0" * 32)

    def test_router_serve_matches_reference(self):
        from fecam.apps import TcamRouter

        router = TcamRouter(
            capacity=16,
            store_config=StoreConfig(energy_model=fast_model(32)))
        router.add_route("0.0.0.0/0", "default")
        router.add_route("192.168.0.0/16", "lan")
        router.add_route("192.168.7.0/24", "lab")
        addresses = ["192.168.7.9", "192.168.1.1", "4.4.4.4"]
        with router.serve() as served:
            for address in addresses:
                assert served.lookup(address) == \
                    router.lookup_reference(address)

    def test_classifier_serve(self):
        from fecam.apps import Packet, Rule, TcamClassifier

        classifier = TcamClassifier(
            store_config=StoreConfig(energy_model=fast_model(104)))
        classifier.add_rule(Rule(name="ssh", dst_port_range=(22, 22)))
        classifier.add_rule(Rule(name="any"))
        ssh = Packet(src_ip=1, dst_ip=2, src_port=999, dst_port=22,
                     protocol=6)
        web = Packet(src_ip=1, dst_ip=2, src_port=999, dst_port=80,
                     protocol=6)
        with classifier.serve() as served:
            assert served.classify(ssh) == "ssh"
            assert served.classify(web) == "any"
            assert served.classify_batch([ssh, web]) == ["ssh", "any"]
            assert asyncio.run(served.aclassify(ssh)) == "ssh"
            assert served.classify(ssh) == \
                classifier.classify_reference(ssh)

    def test_served_rule_set_is_a_snapshot(self):
        from fecam.apps import Packet, Rule, TcamClassifier

        classifier = TcamClassifier(
            store_config=StoreConfig(energy_model=fast_model(104)))
        classifier.add_rule(Rule(name="any"))
        probe = Packet(src_ip=0, dst_ip=0, src_port=1, dst_port=1,
                       protocol=0)
        with classifier.serve() as served:
            classifier.add_rule(Rule(name="late"))  # not visible yet
            assert served.classify(probe) == "any"
        with classifier.serve() as served:  # rebuild picks it up
            assert served.classify(probe) == "any"
            assert len(served._rules) == 2
