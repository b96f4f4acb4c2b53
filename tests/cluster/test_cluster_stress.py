"""Cross-process snapshot isolation: the serial-replay storm, clustered.

The port of ``tests/service/test_service_stress.py`` to real process
boundaries.  Writer threads journal mutations through
``ClusterService.write`` (each store op publishes one seqlock window
and advances both the facade generation and the arena's published
generation in lockstep); reader threads hammer ``search`` and
``search_many``, whose answers come from **worker processes** over the
shared arena and carry the store generation read under the service's
read lock.

The oracle is unchanged: replay the journal prefix up to each observed
generation on a fresh single-process store and demand the concurrent
result be *bit-identical* — keys, words, (bank, row) placements,
energy, latency.  A torn cross-process read — a worker serving planes
from one window and metadata from another, or stale step-1 memos over
new planes — cannot survive this check.
"""

import random
import threading
import time

import pytest

from fecam.cluster import ClusterService
from fecam.store import CamStore

from cluster_utils import WIDTH, make_config

KEYSPACE = [f"k{i}" for i in range(40)]

#: Queries served before the storm to absorb worker-process boot time.
WARMUP = 4


def random_word(rng):
    return "".join(rng.choice("01X") for _ in range(WIDTH))


def random_query(rng):
    return "".join(rng.choice("01") for _ in range(WIDTH))


def apply_journaled_op(service, journal, base_generation, rng):
    """One random journaled mutation, atomic under the write lock.

    Identical to the single-process storm: the op resolves against
    live state inside the transaction and the resolved form is
    journaled in the same critical section, so journal index and
    write-generation advance in lockstep — and, for the cluster, so
    does the arena's published generation.
    """
    kind = rng.choice(("insert", "insert", "update", "delete", "bulk"))
    key = rng.choice(KEYSPACE)
    word = random_word(rng)

    def txn(store):
        if kind in ("insert", "update"):
            if key in store:
                store.update(key, word)
                journal.append(("update", key, word))
            else:
                store.insert(word, key=key)
                journal.append(("insert", key, word))
        elif kind == "delete":
            if key not in store:
                return  # no mutation, no generation bump, no journal
            store.delete(key)
            journal.append(("delete", key))
        else:
            keys = [k for k in rng.sample(KEYSPACE, 4) if k not in store]
            if not keys:
                return
            words = [random_word(rng) for _ in keys]
            store.insert_many(words, keys=keys)
            journal.append(("insert_many", tuple(keys), tuple(words)))
        assert store.generation == base_generation + len(journal)

    service.write(txn)


def apply_one(store, op):
    if op[0] == "insert":
        store.insert(op[2], key=op[1])
    elif op[0] == "update":
        store.update(op[1], op[2])
    elif op[0] == "delete":
        store.delete(op[1])
    else:
        store.insert_many(list(op[2]), keys=list(op[1]))


def assert_bit_identical(served, replayed):
    lhs, rhs = served.result, replayed
    assert lhs.match_keys == rhs.match_keys
    assert [m.word for m in lhs.matches] == [m.word for m in rhs.matches]
    assert [(m.bank, m.row) for m in lhs.matches] == \
        [(m.bank, m.row) for m in rhs.matches]
    assert lhs.energy == rhs.energy
    assert lhs.latency == rhs.latency


def run_storm(n_writers, n_readers, ops_per_writer, reads_per_reader,
              seed, workers=2, burst_readers=0, burst_size=8):
    """Run the cross-process storm; ≥2 worker processes serve reads."""
    rng = random.Random(seed)
    preload = [(f"seed{i}", random_word(rng)) for i in range(8)]
    journal = []  # append only inside write transactions
    observations = []
    observations_lock = threading.Lock()
    errors = []

    with ClusterService(config=make_config(), workers=workers,
                        max_batch=32) as service:
        service.insert_many([word for _, word in preload],
                            keys=[key for key, _ in preload])
        # Warm the pool before the storm: under ``spawn`` a worker
        # takes ~a second to boot, and reads queued behind that boot
        # would all observe the final generation (no interleaving left
        # to test).
        service.search_many([random_query(rng) for _ in range(WARMUP)])
        base_generation = service.store.generation

        def writer(widx):
            wrng = random.Random(f"{seed}-w-{widx}")
            try:
                for _ in range(ops_per_writer):
                    apply_journaled_op(service, journal,
                                       base_generation, wrng)
                    time.sleep(wrng.random() * 1e-3)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader(ridx):
            rrng = random.Random(f"{seed}-r-{ridx}")
            local = []
            try:
                for _ in range(reads_per_reader):
                    bits = random_query(rrng)
                    local.append((bits, service.search(bits)))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            with observations_lock:
                observations.extend(local)

        def burst_reader(ridx):
            """The scatter door: whole bursts, one generation each."""
            rrng = random.Random(f"{seed}-b-{ridx}")
            local = []
            try:
                for _ in range(reads_per_reader // burst_size + 1):
                    bursts = [random_query(rrng)
                              for _ in range(burst_size)]
                    for bits, served in zip(
                            bursts, service.search_many(bursts)):
                        local.append((bits, served))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            with observations_lock:
                observations.extend(local)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(n_writers)]
        threads += [threading.Thread(target=reader, args=(i,))
                    for i in range(n_readers)]
        threads += [threading.Thread(target=burst_reader, args=(i,))
                    for i in range(burst_readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = service.stats
        published = service.backend.generation_published
        generation = service.store.generation

    assert not errors, errors
    assert generation == base_generation + len(journal)
    assert published == generation  # facade/arena lockstep held
    return journal, preload, observations, stats, base_generation


def check_snapshot_isolation(journal, preload, observations,
                             base_generation):
    """Serial replay: every result == a fresh store at its generation."""
    by_generation = {}
    for bits, served in observations:
        assert base_generation <= served.generation \
            <= base_generation + len(journal)
        by_generation.setdefault(served.generation, []).append(
            (bits, served))
    replayed = CamStore(make_config())
    replayed.insert_many([word for _, word in preload],
                         keys=[key for key, _ in preload])
    applied = 0
    for generation in sorted(by_generation):
        target = generation - base_generation
        while applied < target:
            apply_one(replayed, journal[applied])
            applied += 1
        for bits, served in by_generation[generation]:
            assert_bit_identical(
                served, replayed.search(bits, use_cache=False))


class TestCrossProcessSnapshotIsolation:
    def test_no_torn_reads_across_process_boundaries(self):
        journal, preload, observations, stats, base = run_storm(
            n_writers=2, n_readers=4, ops_per_writer=30,
            reads_per_reader=40, seed=11)
        assert observations and journal
        check_snapshot_isolation(journal, preload, observations, base)
        assert stats.served == len(observations) + WARMUP
        assert stats.writes >= len(journal)  # no-op txns also count

    def test_burst_door_holds_the_same_invariant(self):
        journal, preload, observations, stats, base = run_storm(
            n_writers=2, n_readers=2, ops_per_writer=30,
            reads_per_reader=40, seed=12, burst_readers=2)
        check_snapshot_isolation(journal, preload, observations, base)
        # The scatter door ran: only whole bursts make 8-query batches
        # (each per-request reader keeps one search in flight).
        assert stats.batch_size_hist.get(8, 0) > 0

    def test_readers_span_multiple_generations(self):
        journal, preload, observations, _, base = run_storm(
            n_writers=2, n_readers=4, ops_per_writer=40,
            reads_per_reader=60, seed=13)
        generations = {served.generation for _, served in observations}
        assert len(generations) > 1
        check_snapshot_isolation(journal, preload, observations, base)

    @pytest.mark.slow
    def test_deep_storm_over_four_workers(self):
        journal, preload, observations, stats, base = run_storm(
            n_writers=3, n_readers=6, ops_per_writer=80,
            reads_per_reader=100, seed=14, workers=4, burst_readers=2)
        assert len(journal) > 80
        check_snapshot_isolation(journal, preload, observations, base)
        assert stats.coalesced > 0  # the micro-batcher coalesced
