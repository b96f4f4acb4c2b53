"""Snapshot lifecycle and `recover()` — the happy and torn paths."""

import os

import pytest

from durable_utils import (assert_stores_identical, make_config,
                           make_durable, reference_replay)
from fecam.durable import (DurableCamStore, DurabilityConfig, recover,
                           snapshot_candidates)
from fecam.durable.wal import list_segments
from fecam.errors import DurabilityError


class TestSnapshotLifecycle:
    def test_fresh_store_writes_a_baseline_snapshot(self, wal_dir):
        store = make_durable(wal_dir)
        assert store.snapshot_generation == 0
        assert store.snapshots_taken == 1
        assert len(snapshot_candidates(wal_dir)) == 1
        store.close()

    def test_snapshot_advances_generation_and_counts(self, wal_dir):
        store = make_durable(wal_dir)
        store.insert("1010XXXX", key="a")
        store.insert("0101XXXX", key="b")
        path = store.snapshot()
        assert os.path.exists(path)
        assert store.snapshot_generation == store.generation == 2
        assert store.snapshots_taken == 2
        store.close()

    def test_snapshot_every_autosnapshots(self, wal_dir):
        store = make_durable(wal_dir, snapshot_every=3)
        for i in range(7):
            store.insert("10XX10XX", key=f"k{i}")
        # Baseline + after ops 3 and 6.
        assert store.snapshots_taken == 3
        store.close()

    def test_compact_on_snapshot_trims_the_journal(self, wal_dir):
        store = DurableCamStore(
            make_config(),
            durability=DurabilityConfig(
                directory=wal_dir, fsync="off", segment_bytes=192,
                compact_on_snapshot=True))
        for i in range(12):
            store.insert("1X0X1X0X", key=f"k{i}", payload="p" * 40)
        assert len(list_segments(wal_dir)) > 1
        store.snapshot()
        # Everything is folded into the snapshot: only the newest
        # segment may remain.
        assert len(list_segments(wal_dir)) == 1
        recovered = recover(wal_dir, fsync="off")
        assert recovered.recovered_records == 0
        assert_stores_identical(store, recovered)
        store.close()
        recovered.close()

    def test_on_snapshot_callback_sees_duration(self, wal_dir):
        store = make_durable(wal_dir)
        seen = []
        store.on_snapshot = seen.append
        store.snapshot()
        assert len(seen) == 1 and seen[0] >= 0.0
        store.close()


class TestRecovery:
    def test_recover_is_snapshot_plus_tail(self, wal_dir):
        store = make_durable(wal_dir)
        store.insert("1010XXXX", key="a", priority=2.0)
        store.insert("0101XXXX", key="b", priority=1.0)
        store.snapshot()
        store.insert("10X10X1X", key="c")
        store.update("a", "111100XX")
        store.delete("b")
        store.close()
        recovered = recover(wal_dir, fsync="off")
        # Only the three post-snapshot records replay.
        assert recovered.recovered_records == 3
        ref, _records = reference_replay(wal_dir, make_config())
        assert_stores_identical(ref, recovered)
        assert_stores_identical(store, recovered)
        recovered.close()

    def test_recover_empty_directory_raises(self, wal_dir):
        with pytest.raises(DurabilityError, match="no valid snapshot"):
            recover(wal_dir)

    def test_corrupt_newest_snapshot_falls_back_to_older(self, wal_dir):
        store = make_durable(wal_dir)
        store.insert("1010XXXX", key="a")
        store.snapshot()
        store.insert("0101XXXX", key="b")
        newest = store.snapshot()
        store.close()
        with open(newest, "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            fh.truncate(size // 2)
        recovered = recover(wal_dir, fsync="off")
        # Fallback snapshot is at generation 1; record 2 replays on top.
        assert recovered.recovered_records == 1
        assert_stores_identical(store, recovered)
        recovered.close()

    def test_all_snapshots_corrupt_raises_with_detail(self, wal_dir):
        store = make_durable(wal_dir)
        store.insert("1010XXXX", key="a")
        store.close()
        for path in snapshot_candidates(wal_dir):
            with open(path, "wb") as fh:
                fh.write(b"garbage")
        with pytest.raises(DurabilityError, match="no valid snapshot"):
            recover(wal_dir)

    def test_fresh_construction_on_existing_wal_refuses(self, wal_dir):
        store = make_durable(wal_dir)
        store.insert("1010XXXX", key="a")
        store.close()
        with pytest.raises(DurabilityError, match="recover"):
            make_durable(wal_dir)

    def test_recovered_store_keeps_journaling(self, wal_dir):
        store = make_durable(wal_dir)
        store.insert("1010XXXX", key="a")
        store.close()
        recovered = recover(wal_dir, fsync="off")
        recovered.insert("0101XXXX", key="b")
        recovered.close()
        again = recover(wal_dir, fsync="off")
        assert_stores_identical(recovered, again)
        assert sorted(m.key for m in again.entries()) == ["a", "b"]
        again.close()

    def test_one_bank_roundtrip(self, wal_dir):
        config = make_config(banks=1)
        store = make_durable(wal_dir, config)
        assert store.backend.fabric.num_banks == 1
        store.insert("1010XXXX", key="a", priority=3.0)
        store.insert("0101XXXX", key="b", priority=1.0)
        store.update("a", "1111XXXX")
        store.close()
        recovered = recover(wal_dir, fsync="off")
        assert recovered.backend.fabric.num_banks == 1
        assert_stores_identical(store, recovered)
        recovered.close()

    def test_context_manager_closes_the_wal(self, wal_dir):
        with make_durable(wal_dir) as store:
            store.insert("1010XXXX", key="a")
        recovered = recover(wal_dir, fsync="off")
        assert [m.key for m in recovered.entries()] == ["a"]
        recovered.close()

    def test_insert_many_and_payloads_roundtrip(self, wal_dir):
        store = make_durable(wal_dir)
        store.insert_many(["1010XXXX", "0101XXXX", "11XX00XX"],
                          keys=["a", "b", "c"],
                          priorities=[3.0, 1.0, 2.0],
                          payloads=[{"port": 1}, None, [7]])
        store.delete("b")
        store.close()
        recovered = recover(wal_dir, fsync="off")
        assert_stores_identical(store, recovered)
        payloads = {m.key: m.payload for m in recovered.entries()}
        assert payloads == {"a": {"port": 1}, "c": [7]}
        recovered.close()
