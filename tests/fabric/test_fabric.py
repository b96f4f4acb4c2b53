"""Tests for the multi-bank fabric: lifecycle, priority merge, stats."""

import sys
import threading

import numpy as np
import pytest

from fecam.designs import DesignKind
from fecam.errors import OperationError
from fecam.fabric import HashSharding, RangeSharding, TcamFabric
from fecam.functional import EnergyModel


def fast_model(width):
    return EnergyModel(DesignKind.DG_1T5, width, e_1step_per_bit=1e-15,
                       e_2step_per_bit=2e-15, latency_1step=1e-9,
                       latency_2step=2e-9, write_energy_per_cell=0.4e-15)


def make(banks=4, rows=8, width=8, **kw):
    return TcamFabric(banks=banks, rows_per_bank=rows, width=width,
                      energy_model=fast_model(width), **kw)


class TestLifecycle:
    def test_insert_search_roundtrip(self):
        fabric = make()
        fabric.insert("1010XXXX", key="a")
        fabric.insert("0101XXXX", key="b")
        assert fabric.search("10101111").match_keys == ["a"]
        assert fabric.search_first("01011111").key == "b"
        assert fabric.search("11111111").matches == []
        assert len(fabric) == 2
        assert "a" in fabric and "zzz" not in fabric

    def test_duplicate_key_rejected(self):
        fabric = make()
        fabric.insert("10101010", key="k")
        with pytest.raises(OperationError):
            fabric.insert("01010101", key="k")

    def test_delete_frees_row_and_stops_matching(self):
        fabric = make()
        entry = fabric.insert("XXXXXXXX", key="wild")
        assert fabric.search("00000000").match_keys == ["wild"]
        fabric.delete("wild")
        assert fabric.search("00000000").matches == []
        assert fabric.banks[entry.bank].occupancy == 0
        with pytest.raises(OperationError):
            fabric.delete("wild")

    def test_update_in_place(self):
        fabric = make()
        entry = fabric.insert("11111111", key="k")
        fabric.update("k", "0000XXXX")
        updated = fabric.entry("k")
        assert (updated.bank, updated.row) == (entry.bank, entry.row)
        assert fabric.search("00001111").match_keys == ["k"]
        assert fabric.search("11111111").matches == []

    def test_insert_many_equivalent_to_loop(self):
        words = ["1010XXXX", "0101XXXX", "XXXXXXXX", "11110000"]
        keys = list("abcd")
        bulk = make()
        loop = make()
        bulk.insert_many(words, keys=keys)
        for key, word in zip(keys, words):
            loop.insert(word, key=key)
        for key in keys:
            eb, el = bulk.entry(key), loop.entry(key)
            assert (eb.bank, eb.row, eb.priority) == \
                (el.bank, el.row, el.priority)
        assert bulk.search("10101111").match_keys == \
            loop.search("10101111").match_keys

    def test_insert_many_takes_numpy_keys(self):
        # Explicit banks, as the store's striped placement passes them
        # (hash sharding wants plain Python keys).
        fabric = make()
        entries = fabric.insert_many(["1010XXXX", "0101XXXX"],
                                     keys=np.array([11, 12]), banks=[0, 1])
        assert [entry.key for entry in entries] == [11, 12]
        assert fabric.search_batch(["10101111"])[0].match_keys == [11]

    def test_caller_sequence_numbers_are_the_records(self):
        fabric = make(banks=2)
        first = fabric.insert("XXXXXXXX", key="a", seq=7, bank=0)
        assert (first.seq, first.priority) == (7, 7)
        # The fabric's own counter continues above a caller's seq.
        assert fabric.insert("XXXXXXXX", key="b").seq == 8
        bulk = fabric.insert_many(["XXXXXXXX"] * 2, keys=["c", "d"],
                                  seqs=[20, 3], priorities=[1, 1])
        assert [e.seq for e in bulk] == [20, 3]
        assert fabric.insert("XXXXXXXX").key == ("auto", 21)
        # Equal priorities tie-break on the caller's seq.
        assert fabric.search("00000000").match_keys[:2] == ["d", "c"]
        with pytest.raises(OperationError):
            fabric.insert_many(["XXXXXXXX"], seqs=[1, 2])

    def test_explicit_bank_placement(self):
        fabric = make(banks=3)
        entry = fabric.insert("10101010", key="k", bank=2)
        assert entry.bank == 2
        with pytest.raises(OperationError):
            fabric.insert("10101010", bank=5)

    def test_capacity_overflow_raises(self):
        fabric = make(banks=1, rows=2)
        fabric.insert("10101010")
        fabric.insert("01010101")
        with pytest.raises(OperationError):
            fabric.insert("11111111")


class TestPriorityMerge:
    def test_global_priority_across_banks(self):
        fabric = make(banks=4)
        # All match the query; priorities deliberately out of insertion
        # order and spread across banks.
        fabric.insert("1111XXXX", key="low", priority=30, bank=0)
        fabric.insert("11111111", key="top", priority=1, bank=3)
        fabric.insert("1111XX11", key="mid", priority=7, bank=1)
        result = fabric.search("11111111")
        assert result.match_keys == ["top", "mid", "low"]
        assert fabric.search_first("11111111").key == "top"

    def test_insertion_order_breaks_priority_ties(self):
        fabric = make(banks=2)
        fabric.insert("XXXXXXXX", key="first", priority=5, bank=1)
        fabric.insert("XXXXXXXX", key="second", priority=5, bank=0)
        assert fabric.search("00000000").match_keys == ["first", "second"]

    def test_energy_sums_and_latency_is_worst_bank(self):
        fabric = make(banks=3)
        for bank in range(3):
            fabric.insert("XXXXXXXX", bank=bank)
        result = fabric.search("00000000")
        assert result.per_bank is not None
        assert result.energy == pytest.approx(
            sum(s.energy for s in result.per_bank))
        assert result.latency == max(s.latency for s in result.per_bank)


class TestSharding:
    def test_hash_sharding_spreads_entries(self):
        fabric = make(banks=4, rows=64)
        for i in range(64):
            fabric.insert(format(i, "08b"), key=i)
        occupied = [bank.occupancy for bank in fabric.banks]
        assert sum(occupied) == 64
        assert all(o > 0 for o in occupied)

    def test_range_sharding_places_contiguously(self):
        fabric = make(banks=4, rows=64,
                      sharding=RangeSharding(4, key_bits=8))
        low = fabric.insert(format(3, "08b"), key=3)
        high = fabric.insert(format(250, "08b"), key=250)
        assert low.bank == 0
        assert high.bank == 3

    def test_policy_bank_count_must_match(self):
        with pytest.raises(OperationError):
            make(banks=4, sharding=HashSharding(2))


class TestStats:
    def test_snapshot_counts(self):
        fabric = make(banks=2)
        fabric.insert("XXXXXXXX", bank=0)
        fabric.search("00000000")
        fabric.search_batch(["11111111", "00001111"], use_cache=False)
        stats = fabric.stats
        assert stats.searches == 3
        assert stats.occupancy == 1
        assert stats.num_banks == 2
        assert len(stats.per_bank) == 2
        assert stats.energy_total > 0
        assert stats.worst_latency > 0
        assert stats.per_bank[0].searches == 3

    def test_step1_rate_accumulates(self):
        fabric = make(banks=1)
        fabric.insert("00000000")  # query 1000... misses at even pos 0
        fabric.search("10000000")
        telemetry = fabric.stats.per_bank[0]
        assert telemetry.rows_examined == 1
        assert telemetry.step1_eliminated == 1
        assert telemetry.step1_miss_rate == 1.0


def test_concurrent_batches_lose_no_counts():
    """Batch searches run concurrently under a shared read lock; each
    folds its counts into the bank counters, and none may be lost."""
    fabric = make(banks=4, rows=16)
    fabric.insert_many(["1010XXXX", "0101XXXX", "XXXXXXXX", "1111000X"],
                       keys=list("abcd"))
    queries = ["10101111", "01010000", "11110001", "00000000"] * 8
    threads, rounds = 6, 40
    barrier = threading.Barrier(threads)

    def caller():
        barrier.wait()
        for _ in range(rounds):
            fabric.search_batch(queries)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=caller) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    total = threads * rounds * len(queries)
    stats = fabric.stats
    assert stats.searches == total
    assert [bank.searches for bank in stats.per_bank] == [total] * 4
    # One batch's energy, repeated: the folds may interleave in any
    # order, so compare to rounding, not bit for bit.
    once = make(banks=4, rows=16)
    once.insert_many(["1010XXXX", "0101XXXX", "XXXXXXXX", "1111000X"],
                     keys=list("abcd"))
    per_batch = sum(r.energy for r in once.search_batch(queries))
    expected = per_batch * threads * rounds + sum(
        bank.cam.energy_spent for bank in once.banks) - per_batch
    assert stats.energy_total == pytest.approx(expected, rel=1e-9)
