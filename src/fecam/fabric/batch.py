"""The fabric's performance core: the fused cross-bank batch kernel.

A looped ``TernaryCAM.search()`` pays Python-level cost per query
(normalization, packing, small-array dispatch).  Here Q queries are
packed once into a ``(Q, n_chunks)`` uint64 matrix and evaluated
against a whole :class:`~fecam.planes.TernaryPlanes` arena — every bank
of a fabric in one pass, with per-bank attribution recovered from the
global row index — instead of one Python iteration per bank.

The kernel mirrors the paper's two-step search in software and leans on
the arena's *cached derived planes* (:meth:`TernaryPlanes.derived`,
invalidated by the write-generation counter, so a quiescent table never
recompresses anything between batches):

* **Step 1 (even positions)** uses the identity ``(q ^ v) & c == 0 <=>
  q & c == v & c`` on bit-compressed planes: the 32 even bits of each
  64-bit chunk packed into a uint32 (a software ``pext``).  Two
  interchangeable evaluation strategies produce identical counts:

  - ``"table"`` — the memoized 256-entry *candidate index*
    (:meth:`TernaryPlanes.step1_index`) maps each query's low
    compressed byte to the short list of rows consistent with it; the
    kernel gathers only those candidates and finishes the comparison
    exactly.  For typical care densities this touches a few percent of
    the Q x M pairs and never materializes a dense decision matrix.
  - ``"dense"`` — blockwise broadcasted compare over every (query,
    row) pair; the fallback for index-defeating content
    (wildcard-heavy low bytes) and tiny batches that would not
    amortize an index build.  A masked search takes the index too:
    the global masking register gets its own memo slot.

* **Step 2 (odd positions)** is only evaluated for pairs that survive
  step 1 — typically a vanishing fraction, the same statistic behind
  the paper's 90 % step-1 miss rate and early-termination energy win.

All counts are integers, per-bank counts segment the same boolean
decisions the per-bank kernels produced, and every energy or latency
figure is derived downstream through the same arithmetic as the scalar
path — so fused batched results are bit-identical to a sequential loop
of per-bank scalar searches (enforced by the equivalence suites).
"""

from __future__ import annotations

import threading

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import kernels as _kernels
from ..analysis.markers import hot_path
from ..errors import TernaryValueError
from ..cam.states import normalize_query
from ..functional.engine import TernaryCAM, pack_bitplane
from ..planes import (DerivedPlanes, Step1Index, TernaryPlanes,
                      build_step1_index, compress_even)

__all__ = ["normalize_queries", "pack_queries", "batch_count_matches",
           "fused_count_matches", "BankBatchCounts", "FusedBatchCounts"]

_ORD_0, _ORD_1 = ord("0"), ord("1")

#: Queries per broadcast block — bounds the (block, rows) scratch
#: matrices to a few MB so huge batches stay cache-friendly.
DEFAULT_BLOCK = 512

#: Smallest batch for which an uncached step-1 candidate index is worth
#: building; smaller batches reuse a cached index but never build one.
TABLE_MIN_QUERIES = 32

#: Dense-scratch / candidate-gather size bounds (elements / pairs).
_DENSE_MAX_ELEMS = 8 << 20
_SPARSE_MAX_PAIRS = 16 << 20


def normalize_queries(queries: Sequence[str], width: int) -> List[str]:
    """Validate/canonicalize a batch of binary queries, vectorized.

    Canonical '0'/'1' strings are accepted in one NumPy pass; anything
    else (ints, '*' aliases, lowercase) falls back to the per-query
    :func:`fecam.cam.states.normalize_query`, which raises the same
    errors a sequential loop of ``search()`` calls would.
    """
    queries = list(queries)
    try:
        if set(map(len, queries)) <= {width}:
            buf = "".join(queries).encode("ascii")
            sym = np.frombuffer(buf, dtype=np.uint8)
            # x | 1 == ord("1") exactly for x in (ord("0"), ord("1")).
            if ((sym | 1) == _ORD_1).all():
                return queries  # already canonical
    except TypeError:
        pass  # non-string entries take the slow path below
    except UnicodeEncodeError:
        pass
    normalized = [normalize_query(q) for q in queries]
    for q in normalized:
        if len(q) != width:
            raise TernaryValueError(
                f"query length {len(q)} != array width {width}")
    return normalized


def pack_queries(queries: Sequence[str], width: int) -> np.ndarray:
    """Pack canonical binary queries (the output of
    :func:`normalize_queries`) into a ``(Q, n_chunks)`` matrix — the
    value plane of :func:`~fecam.functional.engine.pack_words`, without
    re-validating symbols or building a care plane."""
    sym = np.frombuffer("".join(queries).encode("ascii"), dtype=np.uint8)
    return pack_bitplane(sym.reshape(len(queries), width) == _ORD_1, width)


@dataclass
class BankBatchCounts:
    """Raw per-query match statistics of one bank for a query batch.

    ``match_q``/``match_rows`` are parallel flat lists of (query index,
    matching row) pairs, grouped by query in ascending row order — the
    order a per-query priority encoder would emit.
    """

    rows_searched: int
    step1_eliminated: np.ndarray  # (Q,) int64
    step2_misses: np.ndarray      # (Q,) int64
    full_matches: np.ndarray      # (Q,) int64
    match_q: List[int]
    match_rows: List[int]


@dataclass
class FusedBatchCounts:
    """Per-(bank, query) match statistics of one arena-wide kernel pass.

    ``match_q``/``match_rows`` are parallel int64 arrays of (query
    index, matching row) pairs.  The rows are *global arena* indices
    (bank ``row // rows_per_bank``, local row ``row % rows_per_bank``),
    grouped by query with rows ascending — which, rows being contiguous
    per bank, is exactly the bank-major order a loop of per-bank
    kernels emits.
    """

    rows_searched: np.ndarray     # (B,) int64 — valid rows per bank
    step1_eliminated: np.ndarray  # (B, Q) int64
    step2_misses: np.ndarray      # (B, Q) int64
    full_matches: np.ndarray      # (B, Q) int64
    match_q: np.ndarray           # (P,) int64
    match_rows: np.ndarray        # (P,) int64
    kernel: str                   # "table" | "dense" | "mixed" (telemetry)


@hot_path
def fused_count_matches(planes: TernaryPlanes, q_values: np.ndarray,
                        mask_bits: Optional[np.ndarray] = None, *,
                        n_banks: int = 1,
                        rows_per_bank: Optional[int] = None,
                        block: int = DEFAULT_BLOCK,
                        kernel: str = "auto",
                        reuse_cache: bool = True,
                        reuse_buffers: bool = False) -> FusedBatchCounts:
    """Two-step vectorized match kernel over a whole bitplane arena.

    Produces the exact integer counts per (bank, query) that a loop of
    per-bank ``search_packed`` calls would.  No energy accounting
    happens here — callers feed these counts through the same formulas
    as the scalar path.

    ``kernel`` selects the evaluation strategy: ``"auto"`` (the active
    :mod:`fecam.kernels` backend; under the NumPy backend, candidate
    index when available/worthwhile, dense otherwise), ``"dense"`` or
    ``"table"`` (force the named NumPy step-1 strategy), or
    ``"compiled"`` (force the compiled backend — raises
    :class:`~fecam.errors.KernelUnavailableError` instead of falling
    back when it cannot be built).  ``reuse_cache=False`` recomputes
    every derived plane from scratch — the cache-free reference used by
    the coherence tests.

    ``reuse_buffers=True`` serves the count matrices from a
    thread-local scratch arena instead of fresh allocations; the caller
    must finish consuming the returned counts before its thread's next
    ``reuse_buffers`` call (the dispatcher/fabric serve path does —
    results are reduced to per-query stats before the next batch).
    """
    q_values = np.asarray(q_values, dtype=np.uint64)
    n_chunks = planes.n_chunks
    if q_values.ndim != 2 or q_values.shape[1] != n_chunks:
        raise TernaryValueError(
            f"packed query matrix must have shape (Q, {n_chunks}), "
            f"got {q_values.shape}")
    if mask_bits is not None:
        mask_bits = np.asarray(mask_bits, dtype=np.uint64)
        if mask_bits.shape != (n_chunks,):
            raise TernaryValueError("mask chunk vector has wrong shape")
    if block < 1:
        raise TernaryValueError("block size must be positive")
    if kernel not in ("auto", "dense", "table", "compiled"):
        raise TernaryValueError(
            f"kernel must be 'auto', 'dense', 'table', or 'compiled', "
            f"got {kernel!r}")
    if rows_per_bank is None:
        rows_per_bank = planes.rows // max(n_banks, 1)
    if n_banks < 1 or n_banks * rows_per_bank != planes.rows:
        raise TernaryValueError(
            f"{n_banks} banks x {rows_per_bank} rows do not tile an arena "
            f"of {planes.rows} rows")
    n_queries = q_values.shape[0]

    # Backend dispatch: a forced "compiled" is strict, "auto" defers to
    # the registry (which may resolve to None = NumPy).
    compiled = None
    if kernel == "compiled":
        compiled = _kernels.compiled_kernel()
    elif kernel == "auto":
        compiled = _kernels.active_kernel()

    # Derived planes and the step-1 candidate index: memoized on the
    # arena's write generation (and mask — a repeated mask reuses its
    # slot), rebuilt from scratch for cache-free runs.  Both backends
    # use the index when it exists: the compiled kernel has a sparse
    # variant mirroring the NumPy "table" strategy.
    index: Optional[Step1Index] = None
    if reuse_cache:
        derived = planes.derived(mask_bits)
        if kernel != "dense":
            index = planes.step1_index(
                mask_bits, build=(kernel in ("table", "compiled")
                                  or n_queries >= TABLE_MIN_QUERIES))
    else:
        derived = planes.build_derived(mask_bits)
        if kernel == "table":
            index = build_step1_index(derived)

    n_rows = derived.rows_searched
    if n_banks == 1:
        seg_counts = np.array([n_rows], dtype=np.int64)
        bank_of = None
    else:
        # The bank segmentation depends only on (derived generation,
        # bank tiling): memoize it on the derived object so a
        # quiescent serve loop recomputes nothing per batch.
        seg_cache = derived.__dict__.get("_seg_cache")
        if seg_cache is None or seg_cache[0] != (n_banks, rows_per_bank):
            bank_of = derived.valid_rows // rows_per_bank
            seg_counts = np.bincount(bank_of, minlength=n_banks)
            derived.__dict__["_seg_cache"] = \
                ((n_banks, rows_per_bank), bank_of, seg_counts)
        else:
            _, bank_of, seg_counts = seg_cache
    if n_rows == 0 or n_queries == 0:
        return FusedBatchCounts(seg_counts,
                                np.zeros((n_banks, n_queries), np.int64),
                                np.zeros((n_banks, n_queries), np.int64),
                                np.zeros((n_banks, n_queries), np.int64),
                                _NO_PAIRS, _NO_PAIRS, kernel="dense")

    if compiled is not None:
        # The compiled backend compresses queries in C and writes every
        # count cell (no zeroing needed).
        step1, step2, full = _count_buffers(n_banks, n_queries,
                                            zero=False, reuse=reuse_buffers)
        qe, qo = compiled.compress_queries(q_values)
        match_q, match_rows = compiled.fused(
            derived, index, bank_of, seg_counts, qe, qo,
            step1, step2, full)
        return FusedBatchCounts(seg_counts, step1, step2, full,
                                match_q, match_rows, kernel="compiled")

    step1, step2, full = _count_buffers(n_banks, n_queries,
                                        zero=True, reuse=reuse_buffers)
    match_q: List[np.ndarray] = []
    match_rows: List[np.ndarray] = []
    # Queries compressed once, in both orientations the paths need.
    qe = compress_even(q_values)                        # (Q, C) row-major
    qo = compress_even(q_values >> np.uint64(1))
    qe_cm = np.ascontiguousarray(qe.T)                  # (C, Q) chunk-major
    q8 = ((qe[:, 0] & np.uint32(0xFF)).astype(np.uint8)
          if index is not None else None)

    state = _KernelState(derived=derived, index=index, n_banks=n_banks,
                         bank_of=bank_of, seg_counts=seg_counts,
                         qe=qe, qo=qo, qe_cm=qe_cm, q8=q8,
                         step1=step1, step2=step2, full=full,
                         match_q=match_q, match_rows=match_rows)

    n_block = max(1, min(block, _DENSE_MAX_ELEMS // max(n_rows, 1)))
    used = set()
    dense = _DenseScratch()
    for start in range(0, n_queries, n_block):
        stop = min(start + n_block, n_queries)
        if index is not None:
            xi = q8[start:stop].astype(np.intp)
            pair_counts = index.indptr[xi + 1] - index.indptr[xi]
            if int(pair_counts.sum()) <= _SPARSE_MAX_PAIRS:
                _sparse_block(state, start, stop, xi, pair_counts)
                used.add("table")
                continue
        _dense_block(state, start, stop, dense)
        used.add("dense")
    label = used.pop() if len(used) == 1 else "mixed"
    return FusedBatchCounts(seg_counts, step1, step2, full,
                            np.concatenate(match_q or [_NO_PAIRS]),
                            np.concatenate(match_rows or [_NO_PAIRS]),
                            kernel=label)


#: The pair arrays of a batch without matches.
_NO_PAIRS = np.zeros(0, dtype=np.int64)


class _CountScratch(threading.local):
    """Thread-local arena backing the (B, Q) count matrices.

    One flat int64 buffer, grown geometrically and sliced into the
    three contiguous (B, Q) views per call — so a steady-state serve
    loop allocates nothing per batch.  Thread-local because the fabric
    read lock admits concurrent searchers; per-thread buffers make
    reuse race-free without any further locking.
    """

    def __init__(self) -> None:
        self.buf = np.empty(0, dtype=np.int64)

    def counts(self, n_banks: int, n_queries: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        cells = n_banks * n_queries
        if self.buf.size < 3 * cells:
            self.buf = np.empty(max(3 * cells, 2 * self.buf.size),
                                dtype=np.int64)
        shape = (n_banks, n_queries)
        return (self.buf[:cells].reshape(shape),
                self.buf[cells:2 * cells].reshape(shape),
                self.buf[2 * cells:3 * cells].reshape(shape))


_count_scratch = _CountScratch()


@hot_path
def _count_buffers(n_banks: int, n_queries: int, *, zero: bool,
                   reuse: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (B, Q) step1/step2/full matrices — recycled when allowed."""
    if not reuse:
        alloc = np.zeros if zero else np.empty
        return (alloc((n_banks, n_queries), dtype=np.int64),
                alloc((n_banks, n_queries), dtype=np.int64),
                alloc((n_banks, n_queries), dtype=np.int64))
    step1, step2, full = _count_scratch.counts(n_banks, n_queries)
    if zero:
        step1.fill(0)
        step2.fill(0)
        full.fill(0)
    return step1, step2, full


@dataclass
class _KernelState:
    """Shared inputs/outputs threaded through the per-block passes."""

    derived: DerivedPlanes
    index: Optional[Step1Index]
    n_banks: int
    bank_of: Optional[np.ndarray]   # (M,) bank of each valid row (B > 1)
    seg_counts: np.ndarray          # (B,) valid rows per bank
    qe: np.ndarray                  # (Q, C) compressed even query bits
    qo: np.ndarray                  # (Q, C) compressed odd query bits
    qe_cm: np.ndarray               # (C, Q) chunk-major
    q8: Optional[np.ndarray]        # (Q,) low even byte per query
    step1: np.ndarray               # (B, Q) outputs
    step2: np.ndarray
    full: np.ndarray
    match_q: List[np.ndarray]       # pair pieces, one per block
    match_rows: List[np.ndarray]


class _DenseScratch:
    """Lazily-allocated (block, rows) buffers reused across blocks."""

    def __init__(self) -> None:
        self.and_buf = self.miss_buf = self.chunk_buf = None

    def get(self, n_q: int, n_rows: int, n_chunks: int):
        if self.and_buf is None or self.and_buf.shape[0] < n_q:
            self.and_buf = np.empty((n_q, n_rows), dtype=np.uint32)
            self.miss_buf = np.empty((n_q, n_rows), dtype=bool)
            self.chunk_buf = (np.empty((n_q, n_rows), dtype=bool)
                              if n_chunks > 1 else None)
        return (self.and_buf[:n_q], self.miss_buf[:n_q],
                None if self.chunk_buf is None else self.chunk_buf[:n_q])


@hot_path
def _pair_bincount(state: _KernelState, q_idx: np.ndarray,
                   col_idx: np.ndarray, n_q: int) -> np.ndarray:
    """Histogram survivor pairs into (B, n_q) per-bank counts."""
    if state.n_banks == 1:
        return np.bincount(q_idx, minlength=n_q)[None, :]
    comb = q_idx * state.n_banks + state.bank_of[col_idx]
    return np.bincount(comb, minlength=n_q * state.n_banks) \
        .reshape(n_q, state.n_banks).T


@hot_path
def _finish_step2(state: _KernelState, start: int, stop: int,
                  q_idx: np.ndarray, col_idx: np.ndarray) -> None:
    """Step 2 (odd positions) for step-1 survivor pairs + bookkeeping.

    Shared by both step-1 strategies: identical pair streams in, so
    identical counts and identically-ordered matches out.
    """
    d = state.derived
    n_q = stop - start
    qo_block = state.qo[start:stop]
    if d.co32.shape[1] == 1:
        miss2 = (qo_block[q_idx, 0] & d.co32[col_idx, 0]) \
            != d.vo32[col_idx, 0]
    else:
        miss2 = ((qo_block[q_idx] & d.co32[col_idx])
                 != d.vo32[col_idx]).any(axis=1)
    state.step2[:, start:stop] = _pair_bincount(
        state, q_idx[miss2], col_idx[miss2], n_q)
    hit = ~miss2
    q_hit, col_hit = q_idx[hit], col_idx[hit]
    state.full[:, start:stop] = _pair_bincount(state, q_hit, col_hit, n_q)
    # Pairs stay grouped by query with global rows ascending —
    # bank-major priority-encoder order within each query.
    state.match_q.append(q_hit + start)
    state.match_rows.append(d.valid_rows[col_hit])


@hot_path
def _sparse_block(state: _KernelState, start: int, stop: int,
                  xi: np.ndarray, pair_counts: np.ndarray) -> None:
    """Step 1 via the candidate index: gather + exact check, no dense
    (query x row) matrix ever materializes."""
    d = state.derived
    index = state.index
    n_q = stop - start
    total = int(pair_counts.sum())
    if total == 0:
        state.step1[:, start:stop] = state.seg_counts[:, None]
        return
    # Expand the ragged candidate lists into flat positions into the
    # index: pos[k] walks each query's contiguous candidate slice.
    ends = np.cumsum(pair_counts)
    pos = np.arange(total, dtype=np.int64) + np.repeat(
        index.indptr[xi] - (ends - pair_counts), pair_counts)
    # Chunk-0 exact step-1 decision on the candidates only, against the
    # pre-gathered index-order planes (near-sequential reads).
    qe_pairs = np.repeat(state.qe[start:stop, 0], pair_counts)
    ok = (qe_pairs & index.ce0_at[pos]) == index.ve0_at[pos]
    q_idx = np.repeat(np.arange(n_q), pair_counts)[ok]
    col_idx = index.indices[pos[ok]]
    if d.ce32.shape[1] > 1:  # finish the remaining chunks (rare pairs)
        ok = ((state.qe[start:stop][q_idx, 1:] & d.ce32[col_idx, 1:])
              == d.ve32[col_idx, 1:]).all(axis=1)
        q_idx, col_idx = q_idx[ok], col_idx[ok]
    survivors = _pair_bincount(state, q_idx, col_idx, n_q)
    state.step1[:, start:stop] = state.seg_counts[:, None] - survivors
    _finish_step2(state, start, stop, q_idx, col_idx)


@hot_path
def _dense_block(state: _KernelState, start: int, stop: int,
                 scratch: _DenseScratch) -> None:
    """Step 1 via blockwise broadcasted compare over every pair."""
    d = state.derived
    n_q = stop - start
    n_rows = d.rows_searched
    n_chunks = d.ce32_cm.shape[0]
    abuf, mbuf, cbuf = scratch.get(n_q, n_rows, n_chunks)
    for c in range(n_chunks):
        np.bitwise_and(state.qe_cm[c, start:stop, None],
                       d.ce32_cm[c][None, :], out=abuf)
        if c == 0:
            np.not_equal(abuf, d.ve32_cm[c][None, :], out=mbuf)
        else:
            np.not_equal(abuf, d.ve32_cm[c][None, :], out=cbuf)
            np.logical_or(mbuf, cbuf, out=mbuf)
    if state.n_banks == 1:
        miss_counts = np.count_nonzero(mbuf, axis=1)
        state.step1[0, start:stop] = miss_counts
    else:
        # Valid rows ascend, so each bank's rows form one contiguous
        # column segment: segment-sum the misses per (query, bank).
        nonempty = np.flatnonzero(state.seg_counts)
        seg_starts = np.searchsorted(state.bank_of, nonempty)
        per_seg = np.add.reduceat(mbuf.view(np.int8), seg_starts,
                                  axis=1, dtype=np.int64)
        state.step1[nonempty[:, None], np.arange(start, stop)[None, :]] = \
            per_seg.T
        miss_counts = per_seg.sum(axis=1)
    # Step 2 only for queries with step-1 survivors (the early-
    # termination win): scan just the rows that stayed live.
    live_q = np.nonzero(miss_counts < n_rows)[0]
    if live_q.size == 0:
        return
    local_q, col_idx = np.nonzero(~mbuf[live_q])
    _finish_step2(state, start, stop, live_q[local_q], col_idx)


@hot_path
def batch_count_matches(cam: TernaryCAM, q_values: np.ndarray,
                        mask_bits: Optional[np.ndarray] = None, *,
                        block: int = DEFAULT_BLOCK,
                        kernel: str = "auto",
                        reuse_cache: bool = True) -> BankBatchCounts:
    """Two-step vectorized match kernel for one array.

    Produces the exact integer counts a loop of ``search_packed`` calls
    would: step-1 eliminations, step-2 misses, and full matches per
    query, plus every matching row.  No energy accounting happens here —
    the caller feeds these counts through the same formulas as the
    scalar path.

    This is the one-bank specialization of :func:`fused_count_matches`;
    ``kernel``/``reuse_cache`` forward to it.
    """
    fused = fused_count_matches(cam.planes, q_values, mask_bits,
                                n_banks=1, block=block, kernel=kernel,
                                reuse_cache=reuse_cache)
    return BankBatchCounts(int(fused.rows_searched[0]),
                           fused.step1_eliminated[0],
                           fused.step2_misses[0], fused.full_matches[0],
                           fused.match_q.tolist(), fused.match_rows.tolist())
