"""Unit tests for the bitplane arena: storage, views, generation
semantics, memoized derived planes, and the vectorized readback."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fecam import planes as planes_mod
from fecam.designs import DesignKind
from fecam.errors import OperationError
from fecam.functional import EnergyModel, TernaryCAM, pack_word, pack_words
from fecam.planes import (CHUNK_BITS, DerivedPlanes, TernaryPlanes,
                          build_step1_index, compress_even, n_chunks_for,
                          step_masks)


def fast_cam(rows, width):
    """A cam priced by fixed FoM numbers (no circuit model in the loop)."""
    model = EnergyModel(DesignKind.DG_1T5, width, e_1step_per_bit=1e-15,
                        e_2step_per_bit=2e-15, latency_1step=1e-9,
                        latency_2step=2e-9, write_energy_per_cell=0.4e-15)
    return TernaryCAM(rows=rows, width=width, energy_model=model)


def scalar_step_masks(width):
    """The pre-vectorization per-bit reference implementation."""
    n_chunks = n_chunks_for(width)
    even = np.zeros(n_chunks, dtype=np.uint64)
    odd = np.zeros(n_chunks, dtype=np.uint64)
    for pos in range(width):
        chunk, bit = divmod(pos, CHUNK_BITS)
        if pos % 2 == 0:
            even[chunk] |= np.uint64(1 << bit)
        else:
            odd[chunk] |= np.uint64(1 << bit)
    return even, odd


class TestStepMasks:
    @pytest.mark.parametrize("width", [1, 2, 7, 63, 64, 65, 100, 128, 150])
    def test_matches_scalar_reference(self, width):
        even, odd = step_masks(width)
        ref_even, ref_odd = scalar_step_masks(width)
        assert (even == ref_even).all()
        assert (odd == ref_odd).all()

    def test_memoized_and_read_only(self):
        a = step_masks(64)
        b = step_masks(64)
        assert a[0] is b[0]  # one shared pair per width, fabric-wide
        with pytest.raises(ValueError):
            a[0][0] = np.uint64(0)


class TestGenerationSemantics:
    def test_mutations_advance_exactly_on_content_change(self):
        planes = TernaryPlanes(rows=4, width=8)
        value, care = pack_word("1010XXXX", 8)
        assert planes.generation == 0
        planes.set_row(0, value, care)
        assert planes.generation == 1
        planes.set_row(0, value, care)  # bit-identical rewrite: no-op
        assert planes.generation == 1
        other_value, other_care = pack_word("0101XXXX", 8)
        planes.set_row(0, other_value, other_care)
        assert planes.generation == 2
        planes.clear_row(0)
        assert planes.generation == 3
        planes.clear_row(0)  # already empty: content unchanged
        assert planes.generation == 3
        planes.clear_row(3)  # never written: content unchanged
        assert planes.generation == 3

    def test_bulk_write_advances_only_on_change(self):
        planes = TernaryPlanes(rows=4, width=8)
        value, care = pack_words(["1010XXXX", "0000XXXX"], 8)
        planes.set_rows(np.array([1, 2]), value, care)
        assert planes.generation == 1
        planes.set_rows(np.array([1, 2]), value, care)  # identical bulk
        assert planes.generation == 1
        planes.set_rows(np.array([], dtype=np.int64),
                        value[:0], care[:0])  # empty bulk
        assert planes.generation == 1
        planes.set_rows(np.array([2, 1]), value, care)  # swapped content
        assert planes.generation == 2

    def test_all_x_word_on_empty_row_is_a_content_change(self):
        # "XXXX..." packs to all-zero planes, but validating the row
        # changes what matches — the generation must advance.
        planes = TernaryPlanes(rows=2, width=8)
        value, care = pack_word("X" * 8, 8)
        planes.set_row(0, value, care)
        assert planes.generation == 1
        assert planes.valid[0]

    def test_engine_write_paths_route_through_generation(self):
        cam = fast_cam(rows=4, width=8)
        cam.write(0, "1010XXXX")
        gen = cam.planes.generation
        cam.write(0, "1010XXXX")  # same word: caches stay warm
        assert cam.planes.generation == gen
        cam.write(0, "1110XXXX")
        assert cam.planes.generation > gen
        gen = cam.planes.generation
        cam.erase(0)
        assert cam.planes.generation > gen
        gen = cam.planes.generation
        cam.write_many([1, 2], ["00001111", "1111XXXX"])
        assert cam.planes.generation > gen


class TestViews:
    def test_views_share_storage_zero_copy(self):
        arena = TernaryPlanes(rows=8, width=8)
        bank = arena.view(4, 8)
        assert bank.value.base is arena.value
        assert bank.is_view and not arena.is_view
        value, care = pack_word("1111XXXX", 8)
        bank.set_row(0, value, care)
        assert arena.valid[4]
        assert (arena.value[4] == value).all()

    def test_view_writes_bump_self_and_parent_not_siblings(self):
        arena = TernaryPlanes(rows=8, width=8)
        left, right = arena.view(0, 4), arena.view(4, 8)
        value, care = pack_word("1010XXXX", 8)
        left.set_row(1, value, care)
        assert left.generation == 1
        assert arena.generation == 1
        assert right.generation == 0  # sibling caches stay warm

    def test_view_bounds_validated(self):
        arena = TernaryPlanes(rows=8, width=8)
        with pytest.raises(OperationError):
            arena.view(4, 4)
        with pytest.raises(OperationError):
            arena.view(0, 9)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(OperationError):
            TernaryPlanes(rows=0, width=8)
        with pytest.raises(OperationError):
            TernaryPlanes(rows=4, width=0)
        cam_planes = TernaryPlanes(rows=4, width=8)
        with pytest.raises(OperationError):
            TernaryCAM(rows=8, width=8, planes=cam_planes)


class TestDerivedPlanes:
    def test_memoized_until_content_changes(self):
        planes = TernaryPlanes(rows=4, width=8)
        value, care = pack_word("10X0XXXX", 8)
        planes.set_row(0, value, care)
        first = planes.derived()
        assert planes.derived() is first  # quiescent: no recompress
        planes.set_row(1, *pack_word("0101XXXX", 8))
        second = planes.derived()
        assert second is not first
        assert second.rows_searched == 2

    def test_derived_contents_match_manual_recompute(self):
        rng = random.Random(3)
        for width in (8, 64, 70, 128):
            planes = TernaryPlanes(rows=10, width=width)
            words = ["".join(rng.choice("01X") for _ in range(width))
                     for _ in range(7)]
            value, care = pack_words(words, width)
            planes.set_rows(np.arange(7), value, care)
            planes.clear_row(3)
            derived = planes.derived()
            even, odd = step_masks(width)
            valid_rows = np.array([0, 1, 2, 4, 5, 6])
            assert (derived.valid_rows == valid_rows).all()
            v, c = planes.value[valid_rows], planes.care[valid_rows]
            assert (derived.ce32 == compress_even(c & even)).all()
            assert (derived.ve32 == compress_even(v & c & even)).all()
            assert (derived.co32
                    == compress_even((c & odd) >> np.uint64(1))).all()
            assert (derived.vo32
                    == compress_even((v & c & odd) >> np.uint64(1))).all()
            assert (derived.ce32_cm == derived.ce32.T).all()
            assert derived.ce32_cm.flags.c_contiguous

    def test_step1_index_candidates_are_a_superset_of_survivors(self):
        rng = random.Random(11)
        planes = TernaryPlanes(rows=40, width=16)
        words = ["".join(rng.choice("01XX") for _ in range(16))
                 for _ in range(33)]
        value, care = pack_words(words, 16)
        planes.set_rows(np.arange(33), value, care)
        derived = planes.derived()
        index = planes.step1_index()
        assert index is not None
        assert planes.step1_index() is index  # memoized while quiescent
        for _ in range(50):
            query = "".join(rng.choice("01") for _ in range(16))
            q_value, _ = pack_word(query, 16)
            qe = compress_even(q_value[None, :])[0]
            survivors = np.nonzero(
                ((qe[None, :] & derived.ce32) == derived.ve32)
                .all(axis=1))[0]
            x = int(qe[0] & np.uint32(0xFF))
            candidates = index.indices[index.indptr[x]:index.indptr[x + 1]]
            assert set(survivors.tolist()) <= set(candidates.tolist())
            # pre-gathered planes align with the candidate lists
            assert (index.ce0_at[index.indptr[x]:index.indptr[x + 1]]
                    == derived.ce32[candidates, 0]).all()

    def test_step1_index_none_for_empty_planes(self):
        planes = TernaryPlanes(rows=4, width=8)
        assert planes.step1_index() is None
        assert build_step1_index(planes.derived()) is None

    def test_step1_index_build_gate_consults_cache_only(self):
        planes = TernaryPlanes(rows=4, width=8)
        planes.set_row(0, *pack_word("1010XXXX", 8))
        assert planes.step1_index(build=False) is None  # nothing cached
        built = planes.step1_index(build=True)
        assert built is not None
        assert planes.step1_index(build=False) is built  # cache hit
        planes.set_row(1, *pack_word("0101XXXX", 8))
        assert planes.step1_index(build=False) is None  # stale: not served


def table_index(derived):
    """The 256 x M table reference: every (query byte, row) pair whose
    cared low even byte agrees, in ``np.nonzero`` (byte-major) order."""
    ce8 = (derived.ce32[:, 0] & np.uint32(0xFF)).astype(np.uint8)
    ve8 = (derived.ve32[:, 0] & np.uint32(0xFF)).astype(np.uint8)
    table = (np.arange(256, dtype=np.uint8)[:, None] & ce8[None, :]) \
        == ve8[None, :]
    x_idx, col_idx = np.nonzero(table)
    indptr = np.zeros(257, dtype=np.int64)
    np.cumsum(np.bincount(x_idx, minlength=256), out=indptr[1:])
    return indptr, col_idx


def synthetic_derived(ce32, ve32):
    """A DerivedPlanes over given compressed step-1 planes (the index
    build reads only ce32/ve32 and the row count)."""
    m = ce32.shape[0]
    return DerivedPlanes(generation=0, valid_rows=np.arange(m),
                         rows_searched=m, ce32=ce32, ve32=ve32, co32=ce32,
                         vo32=ve32, ce32_cm=ce32.T.copy(),
                         ve32_cm=ve32.T.copy())


def random_step1_planes(rng, m, n_chunks, p_free):
    """Random compressed planes whose low bytes leave each cell free
    (uncared) with probability ``p_free``; ve32 is a subset of ce32."""
    ce32 = rng.integers(0, 1 << 32, (m, n_chunks), dtype=np.uint32)
    free = rng.random((m, 8)) < p_free
    ce32[:, 0] |= np.uint32(0xFF)
    ce32[:, 0] &= ~(free << np.arange(8)).sum(axis=1).astype(np.uint32)
    ve32 = rng.integers(0, 1 << 32, (m, n_chunks), dtype=np.uint32) & ce32
    return ce32, ve32


class TestStep1IndexBuild:
    """The O(K) expand-and-sort build equals the 256 x M table scan."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 1500), n_chunks=st.sampled_from([1, 2]),
           p_free=st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9, 1.0]),
           seed=st.integers(0, 2**31))
    def test_equals_table_reference(self, m, n_chunks, p_free, seed):
        ce32, ve32 = random_step1_planes(np.random.default_rng(seed), m,
                                         n_chunks, p_free)
        derived = synthetic_derived(ce32, ve32)
        index = build_step1_index(derived)
        indptr, col_idx = table_index(derived)
        if m >= 1024 and len(col_idx) / 256.0 > 0.5 * m:
            assert index is None  # wildcard-heavy: density bail-out
            return
        assert index is not None
        assert (index.indptr == indptr).all()
        assert index.indices.dtype == col_idx.dtype
        assert (index.indices == col_idx).all()
        assert (index.ce0_at == ce32[col_idx, 0]).all()
        assert (index.ve0_at == ve32[col_idx, 0]).all()
        assert index.mean_candidates == len(col_idx) / 256.0

    def test_empty_table(self):
        empty = np.zeros((0, 1), dtype=np.uint32)
        assert build_step1_index(synthetic_derived(empty, empty)) is None

    def test_density_bail_out(self):
        # 1024 all-wildcard low bytes: every list holds every row.
        wild = np.zeros((1024, 1), dtype=np.uint32)
        assert build_step1_index(synthetic_derived(wild, wild)) is None

    def test_row_count_bail_out(self):
        m = planes_mod._INDEX_MAX_ROWS + 1
        cared = np.full((m, 1), 0xFF, dtype=np.uint32)
        assert build_step1_index(synthetic_derived(cared, cared)) is None

    def test_entry_cap_bail_out(self, monkeypatch):
        ce32, ve32 = random_step1_planes(np.random.default_rng(2), 40, 1,
                                         0.5)
        derived = synthetic_derived(ce32, ve32)
        assert build_step1_index(derived) is not None
        monkeypatch.setattr(planes_mod, "_INDEX_MAX_ENTRIES", 10)
        assert build_step1_index(derived) is None


class TestMaskedMemo:
    """One masked slot beside the unmasked memo."""

    @staticmethod
    def filled(rows=16, width=16, seed=4):
        rng = random.Random(seed)
        planes = TernaryPlanes(rows=rows, width=width)
        words = ["".join(rng.choice("01X") for _ in range(width))
                 for _ in range(rows)]
        planes.set_rows(np.arange(rows), *pack_words(words, width))
        return planes

    @staticmethod
    def mask(text):
        return pack_word(text, len(text))[0]

    def test_repeated_mask_returns_the_same_derivation(self):
        planes = self.filled()
        mask = self.mask("1111111100000000")
        first = planes.derived(mask)
        assert planes.derived(mask.copy()) is first  # keyed by bytes
        assert first is not planes.derived()  # its own slot
        assert planes.derived(mask) is first  # unmasked memo beside it

    def test_masked_derivation_equals_uncached_build(self):
        planes = self.filled()
        mask = self.mask("1010101011110000")
        derived = planes.derived(mask)
        fresh = planes.build_derived(mask)
        for name in ("valid_rows", "ce32", "ve32", "co32", "vo32",
                     "ce32_cm", "ve32_cm"):
            assert (getattr(derived, name) == getattr(fresh, name)).all()
        assert derived.generation == planes.generation

    def test_masked_index_follows_the_build_rule(self):
        planes = self.filled()
        mask = self.mask("1111111100000000")
        assert planes.step1_index(mask, build=False) is None  # not derived
        derived = planes.derived(mask)
        assert planes.step1_index(mask, build=False) is None  # not built
        index = planes.step1_index(mask)
        assert index is not None
        assert planes.derived(mask) is derived
        assert planes.step1_index(mask) is index
        assert planes.step1_index(mask, build=False) is index
        indptr, col_idx = table_index(derived)
        assert (index.indptr == indptr).all()
        assert (index.indices == col_idx).all()

    def test_write_invalidates_the_slot(self):
        planes = self.filled()
        mask = self.mask("1111111100000000")
        first = planes.derived(mask)
        index = planes.step1_index(mask)
        assert index is not None
        planes.clear_row(3)
        assert planes.step1_index(mask, build=False) is None  # stale
        second = planes.derived(mask)
        assert second is not first
        assert second.rows_searched == first.rows_searched - 1
        rebuilt = planes.step1_index(mask)
        assert rebuilt is not None and rebuilt is not index

    def test_another_mask_replaces_the_slot(self):
        planes = self.filled()
        mask_a = self.mask("1111111100000000")
        mask_b = self.mask("0000000011111111")
        a = planes.derived(mask_a)
        index_a = planes.step1_index(mask_a)
        assert index_a is not None
        assert planes.step1_index(mask_b) is not index_a
        assert planes.step1_index(mask_a, build=False) is None
        assert planes.derived(mask_a) is not a  # rebuilt: one slot

    def test_forget_drops_every_memo(self):
        planes = self.filled()
        mask = self.mask("1111111100000000")
        unmasked, index = planes.derived(), planes.step1_index()
        masked = planes.derived(mask)
        assert planes.step1_index(mask) is not None
        planes.forget()
        assert planes.step1_index(mask, build=False) is None
        assert planes.step1_index(build=False) is None
        assert planes.derived(mask) is not masked
        assert planes.derived() is not unmasked
        assert planes.step1_index() is not index


class TestStoredWords:
    def test_round_trip_and_bulk_reader(self):
        rng = random.Random(9)
        for width in (1, 8, 64, 65, 130):
            cam = fast_cam(rows=9, width=width)
            words = {}
            for row in (0, 2, 5, 8):
                word = "".join(rng.choice("01X") for _ in range(width))
                cam.write(row, word)
                words[row] = word
            cam.erase(2)
            del words[2]
            bulk = cam.stored_words()
            assert len(bulk) == 9
            for row in range(9):
                assert bulk[row] == words.get(row)
                assert cam.stored_word(row) == words.get(row)

    def test_fabric_snapshot_is_arena_ordered(self):
        from fecam.fabric import TcamFabric
        fabric = TcamFabric(banks=2, rows_per_bank=4, width=8)
        fabric.insert("1010XXXX", key="a", bank=0)
        fabric.insert("0101XXXX", key="b", bank=1)
        snapshot = fabric.stored_words()
        assert len(snapshot) == 8
        assert snapshot[0] == "1010XXXX"      # bank 0, row 0
        assert snapshot[4] == "0101XXXX"      # bank 1, row 0
        assert all(word is None for i, word in enumerate(snapshot)
                   if i not in (0, 4))

    def test_banks_are_views_of_the_fabric_arena(self):
        from fecam.fabric import TcamFabric
        fabric = TcamFabric(banks=4, rows_per_bank=8, width=16)
        for bank in fabric.banks:
            assert bank.cam.planes.value.base is fabric.arena.value
        fabric.insert("01" * 8, key="k", bank=2)
        assert fabric.arena.valid[2 * 8]      # visible through the arena
        assert fabric.arena.generation == 1
        assert fabric.banks[2].cam.planes.generation == 1
        assert fabric.banks[0].cam.planes.generation == 0
