"""Resharding: inline geometry changes and the live three-phase swap.

The live test is the ISSUE's acceptance scenario: grow 4 -> 16 banks
while 4 writer + 4 reader threads hammer the service, with zero failed
requests, a recorded write-locked pause, and a recovered store that is
bit-identical to the survivor.
"""

import random
import threading

import pytest

from durable_utils import (KEYSPACE, assert_stores_identical, make_config,
                           make_durable, random_word, reference_replay,
                           WIDTH)
from fecam.durable import recover, reshard, reshard_inline
from fecam.errors import DurabilityError, OperationError
from fecam.service import SearchService
from fecam.store import CamStore, StoreConfig


def populate(store, n=12):
    rng = random.Random(7)
    for i in range(n):
        store.insert(random_word(rng), key=f"k{i}",
                     priority=float(i % 5))


class TestInlineReshard:
    def test_grow_4_to_16_preserves_entries_and_recovers(self, wal_dir):
        store = make_durable(wal_dir)
        populate(store)
        before = sorted((m.key, m.word, m.priority, m.seq)
                        for m in store.entries())
        report = reshard_inline(store, banks=16)
        assert (report.old_banks, report.new_banks) == (4, 16)
        assert report.entries == 12 and report.drained_ops == 0
        assert store.config.banks == 16
        assert sorted((m.key, m.word, m.priority, m.seq)
                      for m in store.entries()) == before
        store.close()
        recovered = recover(wal_dir, fsync="off")
        assert recovered.config.banks == 16
        ref, _records = reference_replay(wal_dir, make_config())
        assert_stores_identical(ref, recovered)
        assert_stores_identical(store, recovered)
        recovered.close()

    def test_shrink_to_one_bank(self, wal_dir):
        store = make_durable(wal_dir)
        populate(store, n=6)
        reshard_inline(store, banks=1)
        assert store.backend.fabric.num_banks == 1
        store.insert("1" * WIDTH, key="post")
        store.close()
        recovered = recover(wal_dir, fsync="off")
        assert recovered.backend.fabric.num_banks == 1
        assert_stores_identical(store, recovered)
        recovered.close()

    def test_capacity_exceeded_aborts_cleanly(self, wal_dir):
        store = make_durable(wal_dir)
        populate(store)
        generation = store.generation
        backend = store.backend
        with pytest.raises(OperationError):
            # 8 banks x 1 row cannot hold 12 striped entries.
            reshard_inline(store, banks=8, rows=8)
        # Old geometry untouched, nothing logged, guard released.
        assert store.backend is backend
        assert store.generation == generation
        assert store.config.banks == 4
        report = reshard_inline(store, banks=2)
        assert report.new_banks == 2
        store.close()
        recovered = recover(wal_dir, fsync="off")
        assert_stores_identical(store, recovered)
        recovered.close()

    def test_single_flight_guard(self, wal_dir):
        store = make_durable(wal_dir)
        assert store._reshard_guard.acquire(blocking=False)
        try:
            with pytest.raises(DurabilityError, match="in flight"):
                reshard_inline(store, banks=2)
        finally:
            store._reshard_guard.release()
        store.close()

    def test_plain_store_rejected(self, wal_dir):
        store = CamStore(make_config())
        with pytest.raises(DurabilityError, match="DurableCamStore"):
            reshard_inline(store, banks=2)


class TestLiveReshard:
    def test_grow_under_live_traffic_zero_failures(self, wal_dir):
        config = StoreConfig(width=WIDTH, rows=256, banks=4,
                             energy_model=make_config().energy_model)
        store = make_durable(wal_dir, config)
        populate(store)
        fails = []
        stop = threading.Event()

        def writer(wid):
            rng = random.Random(1000 + wid)
            try:
                for i in range(40):
                    key = rng.choice(KEYSPACE)
                    word = random_word(rng)

                    def txn(st):
                        if key in st:
                            if rng.random() < 0.3:
                                st.delete(key)
                            else:
                                st.update(key, word)
                        else:
                            st.insert(word, key=key)

                    service.write(txn)
            except Exception as exc:  # noqa: BLE001 - the assert is the point
                fails.append(("writer", wid, exc))

        def reader(rid):
            rng = random.Random(2000 + rid)
            try:
                while not stop.is_set():
                    probe = "".join(rng.choice("01") for _ in range(WIDTH))
                    service.search(probe)
            except Exception as exc:  # noqa: BLE001
                fails.append(("reader", rid, exc))

        with SearchService(store, max_batch=16) as service:
            writers = [threading.Thread(target=writer, args=(w,))
                       for w in range(4)]
            readers = [threading.Thread(target=reader, args=(r,))
                       for r in range(4)]
            for t in writers + readers:
                t.start()
            report = reshard(service, banks=16)
            for t in writers:
                t.join()
            stop.set()
            for t in readers:
                t.join()

        assert not fails
        assert (report.old_banks, report.new_banks) == (4, 16)
        assert report.pause_s >= 0.0
        assert store.config.banks == 16
        store.close()
        recovered = recover(wal_dir, fsync="off")
        ref, records = reference_replay(wal_dir, config)
        assert any(op[0] == "reshard" for _g, op in records)
        assert_stores_identical(ref, recovered)
        assert_stores_identical(store, recovered)
        recovered.close()

    def test_service_over_plain_store_rejected(self):
        store = CamStore(make_config())
        with SearchService(store) as service:
            with pytest.raises(DurabilityError, match="DurableCamStore"):
                reshard(service, banks=8)
