"""ClusterService end-to-end: parity, routing, failure modes, telemetry.

Real worker processes throughout — every test spawns (or, under
``FECAM_CLUSTER_START=fork``, forks) the pool, so this file is also the
start-method compatibility gate CI runs under both.
"""

import asyncio
import os
import signal
import threading
import time

import pytest

import fecam.cluster
from fecam.cluster import ClusterBackend, ClusterService
from fecam.cluster import backend as cluster_backend
from fecam.durable.crash import CrashPoint
from fecam.errors import (ClusterError, ClusterWriterFailed,
                          OperationError, ServiceClosed, SimulatedCrash,
                          TernaryValueError, WorkerUnavailable)
from fecam.obs import MetricsRegistry
from fecam.obs.adapters import instrument
from fecam.service import ServedResult
from fecam.store import CamStore, Query

from cluster_utils import make_config

WORDS = ["1010XXXXXXXX", "10101111XXXX", "0101XXXXXXXX", "111100001111",
         "000011110000", "XXXXXXXXXXXX"]
KEYS = list("abcdef")
PROBES = ["101011111111", "010111110000", "111100001111", "000000000000"]


@pytest.fixture
def service(cluster_config):
    with ClusterService(config=cluster_config, workers=2) as service:
        yield service


def kill_worker(service, worker_id=0):
    handle = service.backend._handles[worker_id]
    pid = handle.process.pid
    os.kill(pid, signal.SIGKILL)
    handle.process.join(5)
    return pid


class TestServingParity:
    def test_results_match_a_plain_store_bit_for_bit(
            self, service, cluster_config):
        reference = CamStore(make_config())
        reference.insert_many(WORDS, keys=KEYS)
        service.insert_many(WORDS, keys=KEYS)
        for probe in PROBES:
            served = service.search(probe)
            expected = reference.search(probe, use_cache=False)
            assert served.match_keys == expected.match_keys
            assert [(m.bank, m.row) for m in served.result.matches] == \
                [(m.bank, m.row) for m in expected.matches]
            assert served.result.energy == expected.energy
            assert served.result.latency == expected.latency

    def test_search_many_matches_per_request_door(self, service):
        service.insert_many(WORDS, keys=KEYS)
        burst = service.search_many(PROBES)
        singles = [service.search(p) for p in PROBES]
        assert [r.match_keys for r in burst] == \
            [r.match_keys for r in singles]
        assert all(r.generation == singles[0].generation for r in burst)

    def test_generation_rides_every_result(self, service):
        service.insert(WORDS[0], key="a")
        first = service.search(PROBES[0])
        service.insert(WORDS[1], key="b")
        second = service.search(PROBES[0])
        assert second.generation == first.generation + 1
        assert second.generation == service.backend.generation_published
        assert second.generation == service.store.generation

    def test_masked_and_query_object_paths(self, service):
        service.insert("111100001111", key="m")
        assert service.search("111100000000").match_keys == []
        masked = service.search("111100000000",
                                mask="111111110000")
        assert masked.match_keys == ["m"]
        via_query = service.search(Query("111100000000",
                                         mask="111111110000"))
        assert via_query.match_keys == ["m"]
        burst = service.search_many(
            [Query("111100000000", mask="111111110000")])
        assert burst[0].match_keys == ["m"]

    def test_validation_errors_cross_the_process_boundary(self, service):
        with pytest.raises(TernaryValueError):
            service.search("10Z0")
        service.insert(WORDS[0], key="a")  # the pool still serves
        assert service.search(PROBES[0]).match_keys == ["a"]

    def test_bad_burst_mask_is_rejected_before_it_counts(self, service):
        for bad, message in (("10", "mask length"),
                             ("1111000Z0000", "only '0'/'1' symbols")):
            with pytest.raises(TernaryValueError, match=message):
                service.search_many(PROBES[:2], mask=bad)
        assert service.stats.submitted == 0
        assert service.stats.failed == 0

    def test_bad_burst_query_is_rejected_before_it_counts(self, service):
        with pytest.raises(TernaryValueError):
            service.search_many(["0101", "010100001111"])
        with pytest.raises(TernaryValueError):
            service.search_many(["01010000111X"], mask="111111110000")
        assert service.stats.submitted == 0
        assert service.stats.failed == 0

    def test_repeated_masked_bursts_match_a_plain_store(self, service):
        """A repeated mask takes each worker's memoized masked slot and
        candidate index (bursts >= 32 queries); results stay
        bit-identical to an in-process store across updates."""
        reference = CamStore(make_config())
        for store in (reference, service):
            store.insert_many(WORDS, keys=KEYS)
        burst = PROBES * 10
        for step in range(3):
            for mask in ("111111110000", "111111110000", "000011111111",
                         "111111110000"):
                served = service.search_many(burst, mask)
                expected = reference.search_batch(burst, mask,
                                                  use_cache=False)
                assert [r.match_keys for r in served] == \
                    [r.match_keys for r in expected]
                assert [r.result.energy for r in served] == \
                    [r.energy for r in expected]
            for store in (reference, service):
                store.update(KEYS[step], WORDS[-1 - step])

    def test_submit_returns_future(self, service):
        service.insert(WORDS[0], key="a")
        futures = [service.submit(PROBES[0]) for _ in range(8)]
        for future in futures:
            assert future.result(timeout=10).match_keys == ["a"]

    def test_failed_validation_publishes_nothing(self, service):
        service.insert(WORDS[0], key="a")
        generation = service.backend.generation_published
        with pytest.raises(OperationError):
            service.insert(WORDS[1], key="a")  # duplicate key
        assert service.backend.generation_published == generation
        assert service.backend.arena.seq % 2 == 0  # window closed
        assert service.search(PROBES[0]).match_keys == ["a"]

    def test_every_door_returns_served_result(self, service):
        service.insert(WORDS[0], key="a")

        async def async_doors():
            return [await service.asearch(PROBES[0]),
                    *await service.asearch_many([PROBES[0]] * 2)]

        served = [service.search(PROBES[0]),
                  service.submit(PROBES[0]).result(timeout=10),
                  *service.search_many([PROBES[0]] * 2),
                  *asyncio.run(async_doors())]
        assert all(type(result) is ServedResult for result in served)
        assert [result.match_keys for result in served] == [["a"]] * 7
        # ServedResult is the one result type: no cluster twin to import.
        assert not [name for name in dir(fecam.cluster)
                    if name.endswith("Served")]

    def test_mixed_mask_query_burst_matches_per_query_search(self, service):
        service.insert_many(WORDS, keys=KEYS)
        burst = [Query("111100000000", mask="111111110000"),
                 Query("000000000000", mask="000011110000"),
                 PROBES[0], Query(PROBES[1])]
        served = service.search_many(burst)
        singles = [service.search(query) for query in burst]
        assert [r.match_keys for r in served] == \
            [r.match_keys for r in singles]
        assert [r.result.energy for r in served] == \
            [r.result.energy for r in singles]
        assert served[0].match_keys == ["d", "f"]

    def test_write_waits_for_an_in_flight_burst(self, service, monkeypatch):
        service.insert_many(WORDS, keys=KEYS)
        before = service.read(lambda store: store.generation)
        backend = service.backend
        scatter = backend.scatter_search
        entered, release = threading.Event(), threading.Event()

        def held_scatter(queries, mask=None):
            entered.set()
            release.wait(10)
            return scatter(queries, mask)

        monkeypatch.setattr(backend, "scatter_search", held_scatter)
        burst, wrote = [], threading.Event()
        reader = threading.Thread(
            target=lambda: burst.extend(service.search_many(PROBES)))
        writer = threading.Thread(target=lambda: (
            service.write(lambda store: store.delete("a")), wrote.set()))
        reader.start()
        assert entered.wait(10)
        writer.start()
        assert not wrote.wait(0.3)  # held behind the burst's read lock
        release.set()
        reader.join(10)
        writer.join(10)
        assert not reader.is_alive() and not writer.is_alive()
        assert wrote.is_set()
        assert [r.generation for r in burst] == [before] * len(PROBES)
        assert "a" in burst[0].match_keys
        assert service.read(lambda store: store.generation) == before + 1


class TestStaleReplies:
    def test_write_between_replies_and_resolution_raises_typed(
            self, monkeypatch):
        """Workers answer with arena rows, which the writer resolves to
        entries.  Called with no lock, a write can land in between (here
        a delete, then an insert reusing the freed row): the backend
        must raise, never hand back an entry from another generation."""
        backend = ClusterBackend(make_config(banks=1), workers=1)
        try:
            backend.insert_many(WORDS, KEYS, [0.0] * len(WORDS),
                                [None] * len(WORDS), list(range(len(WORDS))))
            old = backend.get("a")
            scatter = backend.scatter_search

            def scatter_then_write(queries, mask=None):
                replies = scatter(queries, mask)
                backend.delete("a")
                new = backend.insert("111111111111", "z", 0.0, None, 99)
                assert (new.bank, new.row) == (old.bank, old.row)
                return replies

            monkeypatch.setattr(backend, "scatter_search",
                                scatter_then_write)
            with pytest.raises(ClusterError, match="read lock"):
                backend.search_batch(PROBES)
            monkeypatch.undo()
            (result,) = backend.search_batch([PROBES[0]])
            assert result.match_keys == ["b", "f"]
        finally:
            backend.close()


class TestWorkerDeath:
    def test_killed_worker_respawns_transparently(self, service):
        service.insert_many(WORDS, keys=KEYS)
        before = service.search_many(PROBES)
        old_pid = kill_worker(service, 0)
        after = service.search_many(PROBES)
        assert [r.match_keys for r in after] == \
            [r.match_keys for r in before]
        stats = {t["worker_id"]: t for t in service.worker_stats()}
        assert stats[0]["restarts"] == 1 and stats[0]["alive"]
        assert stats[0]["pid"] != old_pid
        assert stats[1]["restarts"] == 0

    def test_respawn_false_rehashes_to_survivors(self, cluster_config):
        with ClusterService(config=cluster_config, workers=2,
                            respawn=False) as service:
            service.insert_many(WORDS, keys=KEYS)
            before = service.search_many(PROBES)
            kill_worker(service, 0)
            after = service.search_many(PROBES)
            assert [r.match_keys for r in after] == \
                [r.match_keys for r in before]
            assert service.backend.live_workers == [1]

    def test_all_workers_dead_without_respawn_raises_typed(
            self, cluster_config):
        with ClusterService(config=cluster_config, workers=1,
                            respawn=False) as service:
            service.insert(WORDS[0], key="a")
            kill_worker(service, 0)
            with pytest.raises(WorkerUnavailable):
                service.search_many(PROBES)


def stop_worker(service, worker_id):
    """SIGSTOP: the process stays alive and its pipe open, but it never
    answers again — a wedged worker, not a dead one."""
    process = service.backend._handles[worker_id].process
    os.kill(process.pid, signal.SIGSTOP)
    return process


class TestWorkerHang:
    """Hung != dead: a silent worker is a failed worker, and the failure
    is typed — never a bare ``concurrent.futures.TimeoutError``."""

    def test_stopped_worker_is_killed_and_respawned(
            self, cluster_config, monkeypatch):
        with ClusterService(config=cluster_config, workers=2,
                            read_timeout=0.2) as service:
            service.insert_many(WORDS, keys=KEYS)
            backend = service.backend
            before = backend.scatter_search(PROBES)  # workers have booted
            # Short slack for the stopped worker only: its replacement's
            # first request waits in the pipe while the interpreter
            # boots, which is what the production slack is there for.
            production_slack = cluster_backend.REPLY_SLACK_S
            respawn = cluster_backend._WorkerHandle.respawn

            def respawn_then_wait_normally(handle, hung=None):
                respawn(handle, hung)
                monkeypatch.setattr(cluster_backend, "REPLY_SLACK_S",
                                    production_slack)

            monkeypatch.setattr(cluster_backend, "REPLY_SLACK_S", 0.5)
            monkeypatch.setattr(cluster_backend._WorkerHandle, "respawn",
                                respawn_then_wait_normally)
            hung_id = backend.live_workers[0]
            hung = stop_worker(service, hung_id)
            after = backend.scatter_search(PROBES)
            assert [row[1] for row in after] == [row[1] for row in before]
            assert not hung.is_alive()
            stats = {t["worker_id"]: t for t in service.worker_stats()}
            assert stats[hung_id]["restarts"] == 1
            assert stats[hung_id]["alive"]
            assert stats[hung_id]["pid"] != hung.pid

    def test_stopped_worker_without_respawn_rehashes_or_raises_typed(
            self, cluster_config, monkeypatch):
        with ClusterService(config=cluster_config, workers=2,
                            respawn=False, read_timeout=0.2) as service:
            service.insert_many(WORDS, keys=KEYS)
            backend = service.backend
            before = backend.scatter_search(PROBES)  # workers have booted
            monkeypatch.setattr(cluster_backend, "REPLY_SLACK_S", 0.5)
            first = stop_worker(service, 0)
            after = backend.scatter_search(PROBES)
            assert [row[1] for row in after] == [row[1] for row in before]
            assert backend.live_workers == [1] and not first.is_alive()
            stop_worker(service, 1)
            with pytest.raises(WorkerUnavailable):
                backend.scatter_search(PROBES)

    def test_write_behind_a_burst_on_a_stopped_worker_is_bounded(
            self, cluster_config, monkeypatch):
        """The burst holds the read lock while it waits out the silent
        worker; the writer proceeds once the burst has rehashed, within
        the stated bound: rounds x workers x reply timeout."""
        read_timeout, slack, workers = 0.2, 0.5, 2
        with ClusterService(config=cluster_config, workers=workers,
                            respawn=False,
                            read_timeout=read_timeout) as service:
            service.insert_many(WORDS, keys=KEYS)
            backend = service.backend
            backend.scatter_search(PROBES)  # workers have booted
            before = service.read(lambda store: store.generation)
            monkeypatch.setattr(cluster_backend, "REPLY_SLACK_S", slack)
            scatter = backend.scatter_search
            entered, entered_at = threading.Event(), []

            def observed_scatter(queries, mask=None):
                entered_at.append(time.perf_counter())
                entered.set()
                return scatter(queries, mask)

            monkeypatch.setattr(backend, "scatter_search", observed_scatter)
            stop_worker(service, backend.live_workers[0])
            burst = []
            reader = threading.Thread(
                target=lambda: burst.extend(service.search_many(PROBES)))
            reader.start()
            assert entered.wait(10)
            service.write(lambda store: store.delete("a"))
            waited = time.perf_counter() - entered_at[0]
            reader.join(10)
            assert not reader.is_alive()
            bound = ((cluster_backend._SEND_RETRIES + 1) * workers
                     * (read_timeout + slack))
            assert read_timeout + slack <= waited < bound
            assert len(backend.live_workers) == workers - 1
            assert [r.generation for r in burst] == [before] * len(PROBES)
            assert "a" in burst[0].match_keys
            assert service.read(lambda store: store.generation) == before + 1


class TestWriterDeath:
    def test_writes_fail_fast_reads_keep_serving(self, service):
        service.insert_many(WORDS, keys=KEYS)
        service.backend.crash_point = CrashPoint("cluster.publish.before")
        with pytest.raises(SimulatedCrash):
            service.insert("000000000000", key="late")
        assert service.backend.writer_failed
        with pytest.raises(ClusterWriterFailed):
            service.insert("000000000000", key="later")
        # Reads still answer from the last published generation.
        result = service.search(PROBES[0])
        assert result.match_keys == ["a", "b", "f"]
        assert result.generation == service.backend.generation_published


class TestTelemetry:
    def test_stats_mirror_serving(self, service):
        service.insert_many(WORDS, keys=KEYS)
        service.search(PROBES[0])
        service.search_many(PROBES)
        stats = service.stats
        assert stats.submitted == 1 + len(PROBES)
        assert stats.served == 1 + len(PROBES)
        assert stats.writes == 1
        # One stats definition with the in-process service: the single
        # search dispatched alone, the burst is one fused batch.
        assert stats.batches == 2
        assert stats.batch_size_hist == {1: 1, len(PROBES): 1}
        assert stats.coalesced == len(PROBES)
        assert stats.direct == 1
        assert stats.generation == 1
        assert stats.p50_latency > 0

    def test_worker_stats_split_the_load(self, service):
        service.insert_many(WORDS, keys=KEYS)
        service.search_many(PROBES * 8)
        telemetry = service.worker_stats()
        assert len(telemetry) == 2
        assert sum(t["searches"] for t in telemetry) == len(PROBES) * 8
        assert all(t["generation"] == 1 for t in telemetry)
        assert all(t["occupancy"] == len(WORDS) for t in telemetry)

    def test_energy_total_includes_worker_searches(self, service):
        service.insert_many(WORDS, keys=KEYS)
        write_only = service.store.stats.energy_total
        assert write_only > 0
        service.search_many(PROBES)
        assert service.store.stats.energy_total > write_only

    def test_obs_instrument_exports_per_worker_series(self, service):
        registry = MetricsRegistry()
        unregister = instrument(service, registry)
        service.insert_many(WORDS, keys=KEYS)
        service.search_many(PROBES)
        by_name = {s.name: s for s in registry.collect()}
        alive = by_name["fecam_cluster_worker_alive"]
        assert sorted(dict(sample.labels)["worker"]
                      for sample in alive.samples) == ["0", "1"]
        assert all(s.value == 1.0 for s in alive.samples)
        searches = by_name["fecam_cluster_worker_searches_total"]
        assert sum(s.value for s in searches.samples) == len(PROBES)
        assert by_name["fecam_cluster_writer_ok"].samples[0].value == 1.0
        assert by_name["fecam_cluster_workers"].samples[0].value == 2.0
        assert "fecam_service_served_total" in by_name
        assert "fecam_fabric_bank_occupancy" in by_name
        unregister()

    def test_obs_instrument_store_exports_per_worker_series(self, service):
        registry = MetricsRegistry()
        unregister = instrument(service.store, registry)
        service.insert_many(WORDS, keys=KEYS)
        service.search_many(PROBES)
        by_name = {s.name: s for s in registry.collect()}
        searches = by_name["fecam_cluster_worker_searches_total"]
        assert sum(s.value for s in searches.samples) == len(PROBES)
        assert by_name["fecam_cluster_workers"].samples[0].value == 2.0
        assert "fecam_service_served_total" not in by_name
        unregister()

    def test_store_stats_count_burst_queries(self, service):
        service.insert_many(WORDS, keys=KEYS)
        service.search_many(PROBES)
        assert service.store.stats.searches == len(PROBES)

    def test_concurrent_bursts_lose_no_counts(self, service):
        """Bursts search on their callers' threads, all under the shared
        read lock: store and service counters must still add up."""
        service.insert_many(WORDS, keys=KEYS)
        threads, rounds = 4, 25
        barrier = threading.Barrier(threads)

        def caller():
            barrier.wait()
            for _ in range(rounds):
                service.search_many(PROBES)

        pool = [threading.Thread(target=caller) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(30)
        total = threads * rounds * len(PROBES)
        assert service.store.stats.searches == total
        assert service.store.stats.array_searches == total
        stats = service.stats
        assert stats.served == stats.submitted == total
        assert stats.batches == threads * rounds
        assert stats.batch_size_hist == {len(PROBES): threads * rounds}


class TestLifecycle:
    def test_close_is_idempotent_and_refuses_new_work(
            self, cluster_config):
        service = ClusterService(config=cluster_config, workers=2)
        service.insert(WORDS[0], key="a")
        assert service.close()
        assert service.close()
        with pytest.raises(ServiceClosed):
            service.search(PROBES[0])

    def test_adopted_store_is_not_closed_by_default(self, cluster_config):
        backend = ClusterBackend(cluster_config, workers=1)
        try:
            store = CamStore(backend=backend)
            service = ClusterService(store)
            service.insert(WORDS[0], key="a")
            service.close()
            # The caller owns the backend: still serving.
            assert backend.search_batch(
                [PROBES[0]])[0].match_keys == ["a"]
        finally:
            backend.close()

    def test_one_bank_store_is_adopted(self):
        # A one-bank store is a one-bank fabric, however it is spelled.
        store = CamStore(make_config(banks=1, backend="array"))
        store.insert_many(WORDS, keys=KEYS)
        backend = ClusterBackend.from_store(store, workers=1)
        try:
            for probe in PROBES:
                expected = store.search(probe, use_cache=False)
                got = backend.search_batch([probe])[0]
                assert got.match_keys == expected.match_keys
                assert got.energy == expected.energy
        finally:
            backend.close()

    def test_start_method_round_trips(self, cluster_config):
        with ClusterService(config=cluster_config, workers=1) as service:
            service_method = service.backend.start_method
            service.insert(WORDS[0], key="a")
            assert service.search(PROBES[0]).match_keys == ["a"]
        import multiprocessing
        assert service_method in multiprocessing.get_all_start_methods()
        with pytest.raises(OperationError):
            ClusterBackend(cluster_config, workers=1,
                           start_method="not-a-method")


class TestDurableRecoveryIntoCluster:
    def test_workers_observe_recovered_content(self, tmp_path):
        from fecam.durable import DurabilityConfig, DurableCamStore, recover
        directory = str(tmp_path / "wal")
        durable = DurableCamStore(
            make_config(),
            durability=DurabilityConfig(directory=directory, fsync="off"))
        durable.insert_many(WORDS, keys=KEYS)
        durable.delete("c")
        durable.update("a", "101011110000")
        durable.close()

        recovered = recover(directory)
        try:
            backend = ClusterBackend.from_store(recovered, workers=2)
        finally:
            recovered.close()
        try:
            for probe in PROBES:
                expected = recovered.search(probe, use_cache=False)
                got = backend.search_batch([probe])[0]
                assert got.match_keys == expected.match_keys
                assert [(m.bank, m.row) for m in got.matches] == \
                    [(m.bank, m.row) for m in expected.matches]
                assert got.energy == expected.energy
            assert backend.occupancy == len(recovered)
        finally:
            backend.close()
