"""Property tests: the vectorized batch path is bit-identical to a loop
of per-bank sequential ``search()`` calls, and fabric match ordering is
the global priority order across shards."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fecam.designs import DesignKind
from fecam.fabric import TcamFabric
from fecam.fabric.batch import (batch_count_matches, fused_count_matches,
                                normalize_queries, pack_queries)
from fecam.functional import EnergyModel, TernaryCAM, pack_words
from fecam.cam import ternary_match
from fecam.fabric.result import Match


def fast_model(width):
    return EnergyModel(DesignKind.DG_1T5, width, e_1step_per_bit=1e-15,
                       e_2step_per_bit=2e-15, latency_1step=1e-9,
                       latency_2step=2e-9, write_energy_per_cell=0.4e-15)


def build_pair(banks, rows, width, words, bank_map):
    """Two identical fabrics: one for the loop, one for the batch."""
    pair = []
    for _ in range(2):
        fabric = TcamFabric(banks=banks, rows_per_bank=rows, width=width,
                            energy_model=fast_model(width))
        fabric.insert_many(words, keys=list(range(len(words))),
                           banks=bank_map)
        pair.append(fabric)
    return pair


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_search_batch_equals_sequential_loop(data):
    """The headline property: identical matches, energy, latency, and
    per-cam counters between search_batch and the per-bank loop —
    including widths that span multiple uint64 chunks."""
    width = data.draw(st.sampled_from([6, 8, 64, 70]), label="width")
    banks = data.draw(st.integers(1, 4), label="banks")
    rows = data.draw(st.integers(1, 12), label="rows_per_bank")
    n_words = data.draw(st.integers(0, banks * rows), label="n_words")
    n_queries = data.draw(st.integers(1, 40), label="n_queries")
    rng = random.Random(data.draw(st.integers(0, 2**31), label="seed"))
    # X-heavy alphabet so step-1 survivors and matches actually happen.
    words = ["".join(rng.choice("01XXX") for _ in range(width))
             for _ in range(n_words)]
    # Random placement that respects per-bank capacity.
    free = {b: rows for b in range(banks)}
    bank_map = []
    for _ in range(n_words):
        bank = rng.choice([b for b, n_free in free.items() if n_free > 0])
        free[bank] -= 1
        bank_map.append(bank)
    queries = ["".join(rng.choice("01") for _ in range(width))
               for _ in range(n_queries)]

    looped, batched = build_pair(banks, rows, width, words, bank_map)
    seq = [looped.search(q, use_cache=False) for q in queries]
    bat = batched.search_batch(queries, use_cache=False)

    assert [r.match_keys for r in seq] == [r.match_keys for r in bat]
    assert [r.energy for r in seq] == [r.energy for r in bat]  # exact
    assert [r.latency for r in seq] == [r.latency for r in bat]
    for bank_seq, bank_bat in zip(looped.banks, batched.banks):
        assert bank_seq.cam.energy_spent == bank_bat.cam.energy_spent
        assert bank_seq.cam.search_count == bank_bat.cam.search_count
    assert looped.stats.energy_total == batched.stats.energy_total
    seq_pb = [t.__dict__ for t in looped.stats.per_bank]
    bat_pb = [t.__dict__ for t in batched.stats.per_bank]
    assert seq_pb == bat_pb


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_batch_with_mask_equals_masked_loop(data):
    """The global masking register behaves identically in both paths."""
    width = 8
    rng = random.Random(data.draw(st.integers(0, 2**31), label="seed"))
    words = ["".join(rng.choice("01X") for _ in range(width))
             for _ in range(10)]
    queries = ["".join(rng.choice("01") for _ in range(width))
               for _ in range(12)]
    mask = "".join(rng.choice("01") for _ in range(width))
    looped, batched = build_pair(2, 8, width, words,
                                 [i % 2 for i in range(len(words))])
    seq = [looped.search(q, mask, use_cache=False) for q in queries]
    bat = batched.search_batch(queries, mask, use_cache=False)
    assert [r.match_keys for r in seq] == [r.match_keys for r in bat]
    assert [r.energy for r in seq] == [r.energy for r in bat]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_fabric_priority_order_across_shards(data):
    """Matches come back in global priority order regardless of shard."""
    rng = random.Random(data.draw(st.integers(0, 2**31), label="seed"))
    banks = data.draw(st.integers(1, 4), label="banks")
    fabric = TcamFabric(banks=banks, rows_per_bank=16, width=8,
                        energy_model=fast_model(8))
    n = rng.randrange(1, min(24, banks * 16 + 1))
    priorities = [rng.randrange(100) for _ in range(n)]
    free = {b: 16 for b in range(banks)}
    for i, prio in enumerate(priorities):
        # X-heavy words so several entries match at once.
        word = "".join(rng.choice("01XXXX") for _ in range(8))
        bank = rng.choice([b for b, n_free in free.items() if n_free > 0])
        free[bank] -= 1
        fabric.insert(word, key=i, priority=prio, bank=bank)
    query = "".join(rng.choice("01") for _ in range(8))
    for result in (fabric.search(query, use_cache=False),
                   fabric.search_batch([query], use_cache=False)[0]):
        got = [(e.priority, e.seq) for e in result.matches]
        assert got == sorted(got)
        # And the matches are exactly the entries whose word matches.
        from fecam.cam import ternary_match
        expected = {i for i in range(n)
                    if ternary_match(fabric.entry(i).word, query)}
        assert {e.key for e in result.matches} == expected


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_fused_arena_kernel_equals_per_bank_kernels(data):
    """The tentpole property: one fused pass over the fabric's arena
    produces exactly the per-(bank, query) counts and (bank-attributed)
    matches that a Python loop of per-bank kernels produces — for every
    step-1 strategy, with and without a masking register."""
    width = data.draw(st.sampled_from([6, 8, 64, 70]), label="width")
    banks = data.draw(st.integers(1, 4), label="banks")
    rows = data.draw(st.integers(1, 12), label="rows_per_bank")
    rng = random.Random(data.draw(st.integers(0, 2**31), label="seed"))
    n_words = rng.randrange(0, banks * rows + 1)
    words = ["".join(rng.choice("01XXX") for _ in range(width))
             for _ in range(n_words)]
    free = {b: rows for b in range(banks)}
    bank_map = []
    for _ in range(n_words):
        bank = rng.choice([b for b, n_free in free.items() if n_free > 0])
        free[bank] -= 1
        bank_map.append(bank)
    fabric = TcamFabric(banks=banks, rows_per_bank=rows, width=width,
                        energy_model=fast_model(width))
    if words:
        fabric.insert_many(words, keys=list(range(n_words)),
                           banks=bank_map)
    queries = ["".join(rng.choice("01") for _ in range(width))
               for _ in range(rng.randrange(1, 30))]
    q_matrix = pack_queries(queries, width)
    mask_bits = None
    if data.draw(st.booleans(), label="masked"):
        mask = "".join(rng.choice("01") for _ in range(width))
        mask_bits = fabric.banks[0].cam.pack_mask(mask)

    per_bank = [batch_count_matches(bank.cam, q_matrix, mask_bits,
                                    kernel="dense", reuse_cache=False)
                for bank in fabric.banks]
    for kernel in ("auto", "dense", "table"):
        fused = fused_count_matches(fabric.arena, q_matrix, mask_bits,
                                    n_banks=banks, rows_per_bank=rows,
                                    kernel=kernel)
        for b, counts in enumerate(per_bank):
            assert int(fused.rows_searched[b]) == counts.rows_searched
            assert (fused.step1_eliminated[b]
                    == counts.step1_eliminated).all()
            assert (fused.step2_misses[b] == counts.step2_misses).all()
            assert (fused.full_matches[b] == counts.full_matches).all()
        loop_pairs = sorted((q, b * rows + r) for b, counts in
                            enumerate(per_bank)
                            for q, r in zip(counts.match_q,
                                            counts.match_rows))
        fused_pairs = list(zip(fused.match_q, fused.match_rows))
        assert fused_pairs == sorted(fused_pairs)  # query-grouped, rows
        assert sorted(fused_pairs) == loop_pairs   # ascending, complete


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_table_and_dense_kernels_are_bit_identical(data):
    """The candidate-index strategy is an optimization, never a
    semantic: identical counts and identically-ordered matches."""
    width = data.draw(st.sampled_from([8, 64, 100]), label="width")
    rows = data.draw(st.integers(1, 24), label="rows")
    rng = random.Random(data.draw(st.integers(0, 2**31), label="seed"))
    cam = TernaryCAM(rows=rows, width=width,
                     energy_model=fast_model(width))
    for row in range(rng.randrange(0, rows + 1)):
        cam.write(row, "".join(rng.choice("01XX") for _ in range(width)))
    queries = ["".join(rng.choice("01") for _ in range(width))
               for _ in range(rng.randrange(1, 30))]
    packed = pack_queries(queries, width)
    table = batch_count_matches(cam, packed, kernel="table")
    dense = batch_count_matches(cam, packed, kernel="dense")
    assert (table.step1_eliminated == dense.step1_eliminated).all()
    assert (table.step2_misses == dense.step2_misses).all()
    assert (table.full_matches == dense.full_matches).all()
    assert table.match_q == dense.match_q
    assert table.match_rows == dense.match_rows


class TestBatchHelpers:
    def test_pack_words_matches_scalar_packer(self):
        rng = random.Random(5)
        for width in (1, 7, 64, 65, 128, 150):
            words = ["".join(rng.choice("01X") for _ in range(width))
                     for _ in range(9)]
            cam = TernaryCAM(rows=len(words), width=width,
                             energy_model=fast_model(width))
            value, care = pack_words(words, width)
            for row, word in enumerate(words):
                cam.write(row, word)
                assert (cam._value[row] == value[row]).all()
                assert (cam._care[row] == care[row]).all()

    def test_normalize_queries_fast_and_slow_paths(self):
        assert normalize_queries(["0101", "1111"], 4) == ["0101", "1111"]
        # Alias symbols route through the scalar normalizer.
        assert normalize_queries([[1, 0, 1, 1]], 4) == ["1011"]
        with pytest.raises(Exception):
            normalize_queries(["01X1"], 4)  # X invalid in a query
        with pytest.raises(Exception):
            normalize_queries(["01"], 4)  # wrong width

    def test_batch_count_matches_empty_cases(self):
        cam = TernaryCAM(rows=4, width=8, energy_model=fast_model(8))
        counts = batch_count_matches(cam, pack_queries(["00000000"], 8))
        assert counts.rows_searched == 0
        assert counts.match_q == []
        empty = batch_count_matches(cam, np.zeros((0, 1), dtype=np.uint64))
        assert empty.step1_eliminated.shape == (0,)


def adopt_copy(fabric):
    """A fresh fabric over a copy of ``fabric``'s planes that adopts
    copies of its entries without rewriting them (the snapshot path)."""
    fresh = TcamFabric(banks=fabric.num_banks,
                       rows_per_bank=fabric.rows_per_bank,
                       width=fabric.width,
                       energy_model=fast_model(fabric.width))
    arena = fabric.arena
    fresh.arena.load(arena.value, arena.care, arena.valid)
    fresh.adopt_entries([Match(e.key, e.word, e.priority, e.bank, e.row,
                               e.payload, e.seq) for e in fabric.entries()],
                        write=False)
    return fresh


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_batch_equals_loop_across_interleaved_writes(data):
    """The per-row priority columns the batch path orders by stay in
    step with every write: after each insert, insert_many, delete (its
    row is reused by the next insert into that bank), update and
    adopt_entries(write=False), search_batch equals the sequential loop
    exactly — keys in order, energy, latency and per-bank stats.  Two
    priority values only, so the seq tiebreak decides most ties."""
    width = 8
    banks = data.draw(st.integers(1, 3), label="banks")
    rows = data.draw(st.integers(2, 6), label="rows_per_bank")
    rng = random.Random(data.draw(st.integers(0, 2**31), label="seed"))
    fabrics = [TcamFabric(banks=banks, rows_per_bank=rows, width=width,
                          energy_model=fast_model(width))
               for _ in range(2)]
    next_key = 0

    def word():
        return "".join(rng.choice("01XXX") for _ in range(width))

    def open_bank():
        free = [b.bank_id for b in fabrics[0].banks if b.free_count]
        return rng.choice(free) if free else None

    ops = data.draw(st.lists(st.sampled_from(
        ["insert", "insert_many", "delete", "update", "adopt"]),
        min_size=1, max_size=12), label="ops")
    for op in ops:
        live = sorted(entry.key for entry in fabrics[0].entries())
        if op == "insert" and open_bank() is not None:
            args = (word(), next_key)
            kwargs = dict(priority=rng.choice([0, 1]), bank=open_bank())
            for fabric in fabrics:
                fabric.insert(*args, **kwargs)
            next_key += 1
        elif op == "insert_many":
            free = {b.bank_id: b.free_count for b in fabrics[0].banks}
            placed = []
            for _ in range(rng.randrange(1, 4)):
                open_ids = [b for b, n in free.items() if n]
                if not open_ids:
                    break
                bank = rng.choice(open_ids)
                free[bank] -= 1
                placed.append(bank)
            words = [word() for _ in placed]
            keys = list(range(next_key, next_key + len(placed)))
            priorities = [rng.choice([0, 1]) for _ in placed]
            for fabric in fabrics:
                fabric.insert_many(words, keys=keys, priorities=priorities,
                                   banks=placed)
            next_key += len(placed)
        elif op == "delete" and live:
            key = rng.choice(live)
            for fabric in fabrics:
                fabric.delete(key)
        elif op == "update" and live:
            key, new_word = rng.choice(live), word()
            for fabric in fabrics:
                fabric.update(key, new_word)
        elif op == "adopt":
            fabrics = [adopt_copy(fabric) for fabric in fabrics]
        looped, batched = fabrics
        queries = ["".join(rng.choice("01") for _ in range(width))
                   for _ in range(rng.randrange(1, 12))]
        seq = [looped.search(q) for q in queries]
        bat = batched.search_batch(queries)
        # Both paths read the fabric's row columns, so the keys are also
        # held against the entry table itself (seqs are unique here).
        oracle = [[e.key for e in batched.entries()
                   if ternary_match(e.word, q)] for q in queries]
        assert [r.match_keys for r in bat] == oracle
        assert [r.match_keys for r in seq] == oracle
        assert [r.energy for r in seq] == [r.energy for r in bat]
        assert [r.latency for r in seq] == [r.latency for r in bat]
        assert ([t.__dict__ for t in looped.stats.per_bank]
                == [t.__dict__ for t in batched.stats.per_bank])


@pytest.fixture(params=["numpy", "compiled"])
def kernel_backend(request):
    """Run once per kernel backend (compiled skipped without a build).
    The backend is process state, so it holds for every example."""
    from fecam import kernels
    kernels.reset_backend()
    if request.param == "compiled" and not kernels.compiled_available():
        pytest.skip("compiled kernel unavailable")
    kernels.set_backend(request.param)
    yield request.param
    kernels.reset_backend()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_repeated_masks_take_the_index_and_equal_the_loop(kernel_backend,
                                                          data):
    """A repeated mask reaches the memoized masked candidate index and
    stays bit-identical to the per-query ``search(q, mask)`` loop:
    masks A, A, A, B, A, then a write, then A — keys in order, energy,
    latency, bank counters."""
    width = 16
    banks = data.draw(st.integers(1, 4), label="banks")
    rows = 16
    rng = random.Random(data.draw(st.integers(0, 2**31), label="seed"))
    words = ["".join(rng.choice("01X") for _ in range(width))
             for _ in range(banks * rows - 2)]
    bank_map = [i % banks for i in range(len(words))]
    looped, batched = build_pair(banks, rows, width, words, bank_map)
    mask_a = "".join(rng.choice("1110") for _ in range(width))
    mask_b = "".join(rng.choice("01") for _ in range(width))
    arena = batched.arena
    pack_mask = batched.banks[0].cam.pack_mask

    def batch(mask):
        # >= TABLE_MIN_QUERIES, so the auto kernel may build an index.
        queries = ["".join(rng.choice("01") for _ in range(width))
                   for _ in range(40)]
        seq = [looped.search(q, mask) for q in queries]
        bat = batched.search_batch(queries, mask)
        assert [r.match_keys for r in seq] == [r.match_keys for r in bat]
        assert [r.energy for r in seq] == [r.energy for r in bat]
        assert [r.latency for r in seq] == [r.latency for r in bat]
        assert ([t.__dict__ for t in looped.stats.per_bank]
                == [t.__dict__ for t in batched.stats.per_bank])
        for bank_seq, bank_bat in zip(looped.banks, batched.banks):
            assert bank_seq.cam.energy_spent == bank_bat.cam.energy_spent
        return arena.step1_index(pack_mask(mask), build=False)

    first = batch(mask_a)                 # the index is built at once
    assert first is not None
    assert batch(mask_a) is first         # ... and kept
    assert batch(mask_a) is first
    index_b = batch(mask_b)               # another mask takes the slot
    assert index_b is not None and index_b is not first
    again = batch(mask_a)                 # A is rebuilt
    assert again is not None and again is not first
    late = "".join(rng.choice("01X") for _ in range(width))
    for fabric in (looped, batched):
        fabric.insert(late, key="late")
    after = batch(mask_a)                 # the write moved the generation
    assert after is not None and after is not again
