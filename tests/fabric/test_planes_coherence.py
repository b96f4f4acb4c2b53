"""Derived-plane cache coherence under interleaved mutation.

The arena memoizes compressed step planes and the step-1 candidate
index, keyed by a write-generation counter.  These properties pin the
contract down: interleaving ``write``/``write_many``/``erase``/
``update`` with scalar and batched searches never serves stale planes —
every result stays bit-identical to a cache-free recompute — and the
generation counter invalidates exactly when stored content changes.
"""

import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fecam.cam import ternary_match
from fecam.designs import DesignKind
from fecam.fabric import TcamFabric, fused_count_matches
from fecam.fabric.batch import pack_queries
from fecam.functional import EnergyModel

WIDTH = 8


def fast_model():
    return EnergyModel(DesignKind.DG_1T5, WIDTH, e_1step_per_bit=1e-15,
                       e_2step_per_bit=2e-15, latency_1step=1e-9,
                       latency_2step=2e-9, write_energy_per_cell=0.4e-15)


def arena_snapshot(fabric):
    arena = fabric.arena
    return (arena.value.tobytes(), arena.care.tobytes(),
            arena.valid.tobytes())


def assert_counts_equal(lhs, rhs):
    assert (lhs.rows_searched == rhs.rows_searched).all()
    assert (lhs.step1_eliminated == rhs.step1_eliminated).all()
    assert (lhs.step2_misses == rhs.step2_misses).all()
    assert (lhs.full_matches == rhs.full_matches).all()
    assert np.array_equal(lhs.match_q, rhs.match_q)
    assert np.array_equal(lhs.match_rows, rhs.match_rows)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_interleaved_mutation_never_serves_stale_planes(data):
    """write / write_many / erase / update interleaved with scalar and
    batched searches: warm-cache results == cache-free recompute ==
    pure-Python reference matches, for both step-1 kernels."""
    rng = random.Random(data.draw(st.integers(0, 2**31), label="seed"))
    banks = data.draw(st.integers(1, 3), label="banks")
    rows = 8
    fabric = TcamFabric(banks=banks, rows_per_bank=rows, width=WIDTH,
                        energy_model=fast_model())
    shadow = {}  # key -> stored canonical word
    next_key = [0]

    def random_word():
        return "".join(rng.choice("01XXX") for _ in range(WIDTH))

    def op_insert():
        if fabric.occupancy >= fabric.capacity:
            return
        key = next_key[0]
        next_key[0] += 1
        word = random_word()
        free = [b for b in range(banks)
                if fabric.banks[b].free_count > 0]
        fabric.insert(word, key=key, priority=key, bank=rng.choice(free))
        shadow[key] = word

    def op_insert_many():
        free = [b for b in range(banks)
                for _ in range(fabric.banks[b].free_count)]
        n = rng.randrange(0, min(len(free), 4) + 1)
        if n == 0:
            return
        placement = rng.sample(free, n)
        words = [random_word() for _ in range(n)]
        keys = list(range(next_key[0], next_key[0] + n))
        next_key[0] += n
        fabric.insert_many(words, keys=keys, priorities=keys,
                           banks=placement)
        shadow.update(zip(keys, words))

    def op_delete():
        if shadow:
            key = rng.choice(sorted(shadow))
            fabric.delete(key)
            del shadow[key]

    def op_update():
        if shadow:
            key = rng.choice(sorted(shadow))
            word = random_word()
            fabric.update(key, word)
            shadow[key] = word

    def check_searches():
        queries = ["".join(rng.choice("01") for _ in range(WIDTH))
                   for _ in range(rng.randrange(1, 6))]
        # Scalar broadcast search against the pure-Python semantics.
        for query in queries:
            result = fabric.search(query, use_cache=False)
            expected = {key for key, word in shadow.items()
                        if ternary_match(word, query)}
            assert {e.key for e in result.matches} == expected
        # Batched kernels: warm caches vs cache-free recompute, both
        # step-1 strategies, bit-identical counts and matches.
        q_matrix = pack_queries(queries, WIDTH)
        reference = fused_count_matches(
            fabric.arena, q_matrix, n_banks=banks, rows_per_bank=rows,
            kernel="dense", reuse_cache=False)
        for kernel in ("auto", "dense", "table"):
            warm = fused_count_matches(
                fabric.arena, q_matrix, n_banks=banks, rows_per_bank=rows,
                kernel=kernel)
            assert_counts_equal(warm, reference)
        # The fabric's own batched front door agrees with the loop.
        batched = fabric.search_batch(queries, use_cache=False)
        for query, result in zip(queries, batched):
            expected = {key for key, word in shadow.items()
                        if ternary_match(word, query)}
            assert {e.key for e in result.matches} == expected

    mutations = [op_insert, op_insert_many, op_delete, op_update]
    for _ in range(data.draw(st.integers(2, 8), label="steps")):
        before = arena_snapshot(fabric)
        gen_before = fabric.arena.generation
        op = data.draw(st.integers(0, len(mutations) - 1), label="op")
        mutations[op]()
        changed = arena_snapshot(fabric) != before
        # Generation advances exactly when stored content changes.
        assert (fabric.arena.generation != gen_before) == changed
        check_searches()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31))
@example(seed=1328)  # draws words[2] == "11111111"
def test_identical_rewrite_keeps_caches_warm_and_correct(seed):
    """An update that stores the word already present must not
    invalidate (same content, same caches) yet must stay correct."""
    rng = random.Random(seed)
    fabric = TcamFabric(banks=2, rows_per_bank=4, width=WIDTH,
                        energy_model=fast_model())
    words = ["".join(rng.choice("01X") for _ in range(WIDTH))
             for _ in range(5)]
    fabric.insert_many(words, keys=list(range(5)),
                       priorities=list(range(5)),
                       banks=[i % 2 for i in range(5)])
    queries = ["".join(rng.choice("01") for _ in range(WIDTH))
               for _ in range(8)]
    fabric.search_batch(queries, use_cache=False)  # warm derived planes
    derived_before = fabric.arena.derived()
    gen_before = fabric.arena.generation
    fabric.update(2, words[2])  # rewrite the identical word
    assert fabric.arena.generation == gen_before
    assert fabric.arena.derived() is derived_before  # no recompress
    for query, result in zip(queries,
                             fabric.search_batch(queries, use_cache=False)):
        expected = {i for i, word in enumerate(words)
                    if ternary_match(word, query)}
        assert {e.key for e in result.matches} == expected
    # A real change invalidates and the next batch sees it: flip one
    # stored symbol, so this rewrite can never be the identical word.
    changed = {"0": "1", "1": "0", "X": "1"}[words[2][0]] + words[2][1:]
    fabric.update(2, changed)
    assert fabric.arena.generation > gen_before
    hits = fabric.search_batch([changed.replace("X", "0")],
                               use_cache=False)[0]
    assert 2 in {e.key for e in hits.matches}
