"""`TernaryPlanes` — the one bitplane arena under engine, fabric, and store.

Every tier above the circuit models ultimately stores the same thing:
three bitplanes — ``value`` and ``care`` packed 64 cells per uint64
chunk, plus a ``valid`` row vector.  Historically each
:class:`~fecam.functional.TernaryCAM` owned a private copy and the batch
kernel re-derived its bit-compressed step-1/step-2 planes from scratch
on every call.  This module centralizes both:

* **Storage** — one ``(rows, n_chunks)`` arena.  A fabric allocates a
  single contiguous arena of ``banks x rows_per_bank`` rows and hands
  each bank a zero-copy row-slice :meth:`view`, exactly like hardware
  banks tiling one die; a standalone array owns a private arena.
* **Derived planes** — everything the search kernels precompute from
  content is memoized here and invalidated by a *write generation*
  counter, so repeated searches against a quiescent table never
  recompress:

  - :meth:`derived` — valid-row compaction, the precomputed
    ``value & care`` plane, and the even/odd bit-compressed planes
    (``ce32``/``ve32``/``co32``/``vo32``) of the paper's two-step
    search, in both row-major (gather) and chunk-major (streaming)
    layouts;
  - :meth:`step1_index` — a 256-entry candidate index over the low
    byte of the compressed step-1 plane: for each possible query byte
    ``x``, the rows whose cared even bits are consistent with ``x``.
    Batch search then *gathers* the few candidate rows per query
    instead of comparing every (query, row) pair densely.

  Both take the global masking register: one masked slot beside the
  unmasked memo serves a repeated mask, under the same build rule.

Generation semantics: the counter advances exactly when stored content
changes — bit-identical rewrites (single-row or bulk) and erases of
already-empty rows leave it (and therefore every memoized plane)
untouched.  Writes through a view advance the view's own counter *and* every
ancestor's, so a bank write invalidates the bank's planes and the
fabric-level arena planes but never a sibling bank's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .analysis.markers import mutates_planes
from .errors import OperationError

__all__ = ["TernaryPlanes", "DerivedPlanes", "Step1Index", "step_masks",
           "compress_even", "build_step1_index", "CHUNK_BITS",
           "n_chunks_for"]

#: Bits per packed storage chunk.
CHUNK_BITS = 64

_ORD_0, _ORD_1, _ORD_X = ord("0"), ord("1"), ord("X")

_EVEN_BITS = np.uint64(0x5555555555555555)

#: Arenas larger than this skip the step-1 candidate index; dense
#: search still works.
_INDEX_MAX_ROWS = 1 << 18
#: Candidate lists above this total size are refused outright (the
#: index would rival the planes themselves in memory).
_INDEX_MAX_ENTRIES = 1 << 23

#: A memo slot whose index has not been asked for yet (``None`` is
#: taken: it means the build declined).
_UNBUILT = object()


def n_chunks_for(width: int) -> int:
    """Number of 64-bit chunks needed to hold ``width`` ternary cells."""
    return (width + CHUNK_BITS - 1) // CHUNK_BITS


@lru_cache(maxsize=None)
def step_masks(width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Chunk masks of the even (step-1) and odd (step-2) cell positions.

    Vectorized and memoized per width: every bank of a fabric shares one
    immutable pair instead of re-running a per-bit Python loop at
    construction.  The returned arrays are read-only.
    """
    if width < 1:
        raise OperationError("width must be positive")
    pos = np.arange(width)
    chunk = pos // CHUNK_BITS
    bit = np.uint64(1) << (pos % CHUNK_BITS).astype(np.uint64)
    n_chunks = n_chunks_for(width)
    even = np.zeros(n_chunks, dtype=np.uint64)
    odd = np.zeros(n_chunks, dtype=np.uint64)
    is_even = pos % 2 == 0
    np.bitwise_or.at(even, chunk[is_even], bit[is_even])
    np.bitwise_or.at(odd, chunk[~is_even], bit[~is_even])
    even.setflags(write=False)
    odd.setflags(write=False)
    return even, odd


def compress_even(x: np.ndarray) -> np.ndarray:
    """Software ``pext(x, 0x5555...)``: gather the 32 even bits of each
    uint64 into a uint32 (classic masked-shift bit compaction)."""
    x = x & _EVEN_BITS
    for shift, mask in ((1, 0x3333333333333333), (2, 0x0F0F0F0F0F0F0F0F),
                        (4, 0x00FF00FF00FF00FF), (8, 0x0000FFFF0000FFFF),
                        (16, 0x00000000FFFFFFFF)):
        x = (x | (x >> np.uint64(shift))) & np.uint64(mask)
    return x.astype(np.uint32)


def _unpack_bitplane(packed: np.ndarray, width: int) -> np.ndarray:
    """Inverse of the engine's packer: (N, n_chunks) uint64 -> (N, width)
    bool, bit ``pos`` read from chunk ``pos // 64`` position ``pos % 64``."""
    u8 = np.ascontiguousarray(packed).astype("<u8", copy=False).view(np.uint8)
    bits = np.unpackbits(u8.reshape(packed.shape[0], -1), axis=1,
                         bitorder="little")
    return bits[:, :width].astype(bool, copy=False)


@dataclass
class DerivedPlanes:
    """Everything the search kernels derive from one content generation.

    All row-indexed arrays are compacted to the valid rows (invalid rows
    can neither match nor contribute to step counts).  The step-1
    identity ``(q ^ v) & c == 0  <=>  q & c == v & c`` turns matching
    into compares against the precomputed ``v & c`` plane; ``ve32`` /
    ``vo32`` are its even/odd bit-compressed halves, kept row-major for
    per-candidate gathers and (step-1 only) chunk-major for the dense
    streaming kernel.
    """

    generation: int               # write generation derived from
    valid_rows: np.ndarray        # (M,) intp — arena rows, ascending
    rows_searched: int            # M
    ce32: np.ndarray              # (M, C) uint32 — compressed even care
    ve32: np.ndarray              # (M, C) uint32 — compressed even v & c
    co32: np.ndarray              # (M, C) uint32 — compressed odd care
    vo32: np.ndarray              # (M, C) uint32 — compressed odd v & c
    ce32_cm: np.ndarray           # (C, M) uint32, contiguous chunk-major
    ve32_cm: np.ndarray           # (C, M) uint32, contiguous chunk-major


@dataclass
class Step1Index:
    """256-entry candidate index over the low compressed step-1 byte.

    ``indices[indptr[x]:indptr[x + 1]]`` are the positions (into
    ``DerivedPlanes.valid_rows``, ascending) of the rows whose cared low
    even byte is consistent with query byte ``x`` — a strict superset of
    the rows that survive step 1 for any query whose compressed even
    word has low byte ``x``.  ``ce0_at``/``ve0_at`` are the candidates'
    chunk-0 compressed step-1 planes *pre-gathered in index order*, so
    the kernel finishes the chunk-0 comparison with near-sequential
    slice reads instead of random row gathers.  ``mean_candidates`` is
    the average list length, the statistic kernels use to bound gather
    sizes.
    """

    indptr: np.ndarray            # (257,) int64
    indices: np.ndarray           # (K,) intp
    ce0_at: np.ndarray            # (K,) uint32 — ce32[indices, 0]
    ve0_at: np.ndarray            # (K,) uint32 — ve32[indices, 0]
    mean_candidates: float


def build_step1_index(derived: DerivedPlanes) -> Optional[Step1Index]:
    """Build the candidate index for one derived generation.

    Returns ``None`` when the index cannot pay for itself: an empty
    table, an arena above the row cap, a candidate total above the
    entry cap, or a low even byte so wildcard-heavy that the candidate
    lists stop filtering (> 50 % mean density on a large table).
    """
    m = derived.rows_searched
    if m == 0 or m > _INDEX_MAX_ROWS:
        return None
    ce8 = (derived.ce32[:, 0] & np.uint32(0xFF)).astype(np.uint8)
    ve8 = (derived.ve32[:, 0] & np.uint32(0xFF)).astype(np.uint8)
    # A row is consistent with exactly 2^(8 - popcount(ce8)) of the 256
    # query bytes (cared bits pinned, the rest free), so the index size
    # is known in O(rows) — the bail-outs run before anything of size
    # K (the total candidate count) is materialized.
    sizes = np.int64(1) << (8 - np.bitwise_count(ce8))
    total_entries = int(sizes.sum())
    mean_candidates = total_entries / 256.0
    if total_entries > _INDEX_MAX_ENTRIES \
            or (m >= 1024 and mean_candidates > 0.5 * m):
        return None
    # Row i's consistent bytes are ve8 | s for every subset s of its
    # free bits: expand it sizes[i] times and deposit a per-row counter
    # (0 .. sizes[i]-1, kept mod 256 in uint8) into the free positions,
    # lowest counter bit into the lowest free bit.
    rows = np.repeat(np.arange(m), sizes)
    starts = (np.cumsum(sizes) - sizes).astype(np.uint8)
    counter = np.resize(np.arange(256, dtype=np.uint8), total_entries) \
        - np.repeat(starts, sizes)
    free = np.repeat(~ce8, sizes)
    x = np.repeat(ve8, sizes)
    for bit in range(8):
        take = (free >> bit) & 1
        x |= (counter & take) << bit
        counter >>= take
    # A stable sort by byte keeps each list's rows ascending.
    col_idx = rows[np.argsort(x, kind="stable")]
    indptr = np.zeros(257, dtype=np.int64)
    np.cumsum(np.bincount(x, minlength=256), out=indptr[1:])
    return Step1Index(indptr=indptr, indices=col_idx,
                      ce0_at=derived.ce32[col_idx, 0],
                      ve0_at=derived.ve32[col_idx, 0],
                      mean_candidates=mean_candidates)


class TernaryPlanes:
    """Bit-packed (value, care, valid) storage with memoized derivations.

    >>> planes = TernaryPlanes(rows=4, width=8)
    >>> planes.generation
    0
    >>> bank = planes.view(2, 4)       # zero-copy row slice
    >>> bank.value.base is planes.value
    True
    """

    def __init__(self, rows: int, width: int, *,
                 _storage: Optional[Tuple[np.ndarray, np.ndarray,
                                          np.ndarray]] = None,
                 _parent: Optional["TernaryPlanes"] = None):
        if rows < 1 or width < 1:
            raise OperationError("rows and width must be positive")
        self.rows = rows
        self.width = width
        self.n_chunks = n_chunks_for(width)
        if _storage is None:
            self.value = np.zeros((rows, self.n_chunks), dtype=np.uint64)
            self.care = np.zeros((rows, self.n_chunks), dtype=np.uint64)
            self.valid = np.zeros(rows, dtype=bool)
        else:
            self.value, self.care, self.valid = _storage
        self._parent = _parent
        #: Shared per-row columns, if :meth:`over` was given them.
        self.row_columns: Optional[Tuple[np.ndarray, ...]] = None
        self.generation = 0
        # [unmasked, masked] memo slots, each None or [generation,
        # mask bytes or None, derived, index | None | _UNBUILT].
        self._slots: List[Optional[list]] = [None, None]

    @classmethod
    def over(cls, value: np.ndarray, care: np.ndarray,
             valid: np.ndarray, *, width: int,
             row_columns: Optional[Tuple[np.ndarray, ...]] = None
             ) -> "TernaryPlanes":
        """Construct planes *over* caller-owned buffers (zero-copy).

        The arena-allocation seam for `fecam.cluster`: the caller maps
        shared memory (mmap), carves three ndarray windows out of it,
        and hands them here — every mutation through the returned
        planes writes straight into the shared mapping, and reader
        processes attach their own instances over the same bytes.

        The buffers must already have the canonical layout:
        ``value``/``care`` of shape ``(rows, n_chunks_for(width))``
        dtype uint64, ``valid`` of shape ``(rows,)`` dtype bool.
        ``row_columns`` — ``(rows,)`` float64 priority, int64 seq and
        bool live — are where a :class:`~fecam.fabric.TcamFabric` built
        on these planes keeps its entries' order, so readers can
        priority-order matches without the entries.  Ownership stays
        with the caller (nothing here unmaps or frees).
        """
        value = np.asarray(value)
        care = np.asarray(care)
        valid = np.asarray(valid)
        if value.ndim != 2 or value.dtype != np.uint64:
            raise OperationError(
                "value plane must be a (rows, n_chunks) uint64 array, "
                f"got shape {value.shape} dtype {value.dtype}")
        if care.shape != value.shape or care.dtype != np.uint64:
            raise OperationError(
                f"care plane must match value plane {value.shape} uint64, "
                f"got shape {care.shape} dtype {care.dtype}")
        rows, chunks = value.shape
        if valid.shape != (rows,) or valid.dtype != np.bool_:
            raise OperationError(
                f"valid plane must be a ({rows},) bool array, "
                f"got shape {valid.shape} dtype {valid.dtype}")
        if chunks != n_chunks_for(width):
            raise OperationError(
                f"width {width} needs {n_chunks_for(width)} chunks per "
                f"row, buffers have {chunks}")
        planes = cls(rows, width, _storage=(value, care, valid))
        if row_columns is not None:
            if [(c.shape, c.dtype) for c in row_columns] != [
                    ((rows,), np.dtype(d)) for d in (float, np.int64, bool)]:
                raise OperationError(f"row columns must be ({rows},) "
                                     "float64, int64 and bool arrays")
            planes.row_columns = row_columns
        return planes

    @property
    def even_mask(self) -> np.ndarray:
        return step_masks(self.width)[0]

    @property
    def odd_mask(self) -> np.ndarray:
        return step_masks(self.width)[1]

    # -- views -------------------------------------------------------------------

    def view(self, start: int, stop: int) -> "TernaryPlanes":
        """A zero-copy row-slice view of this arena (``[start, stop)``).

        The view shares storage with (and writes through to) the parent:
        mutating it advances both generation counters, so derived planes
        of the view *and* of the arena invalidate, while sibling views
        keep theirs.
        """
        if not 0 <= start < stop <= self.rows:
            raise OperationError(
                f"view [{start}, {stop}) outside arena of {self.rows} rows")
        return TernaryPlanes(
            stop - start, self.width,
            _storage=(self.value[start:stop], self.care[start:stop],
                      self.valid[start:stop]),
            _parent=self)

    @property
    def is_view(self) -> bool:
        return self._parent is not None

    # -- mutation ----------------------------------------------------------------

    def _bump(self) -> None:
        self.generation += 1
        if self._parent is not None:
            self._parent._bump()

    @mutates_planes
    def set_row(self, row: int, value: np.ndarray, care: np.ndarray) -> None:
        """Store one packed row; a bit-identical rewrite is a no-op (the
        content did not change, so no cache needs to invalidate)."""
        if self.valid[row] and (self.value[row] == value).all() \
                and (self.care[row] == care).all():
            return
        self.value[row] = value
        self.care[row] = care
        self.valid[row] = True
        self._bump()

    @mutates_planes
    def set_rows(self, rows: np.ndarray, value: np.ndarray,
                 care: np.ndarray) -> None:
        """Bulk store; a bulk rewrite whose every row is bit-identical
        to stored content is a no-op (one vectorized compare, far
        cheaper than the derived-plane rebuild it avoids)."""
        if len(rows) == 0:
            return
        if self.valid[rows].all() and (self.value[rows] == value).all() \
                and (self.care[rows] == care).all():
            return
        self.value[rows] = value
        self.care[rows] = care
        self.valid[rows] = True
        self._bump()

    @mutates_planes
    def load(self, value: np.ndarray, care: np.ndarray,
             valid: np.ndarray) -> None:
        """Overwrite all three planes wholesale (snapshot-restore path).

        Writes *into* the existing buffers so views of this arena (and
        the arena behind this view) stay coherent; a bit-identical load
        is a no-op like every other mutator.  Durable recovery uses
        this to reinstate a serialized arena without replaying the
        per-row write path (no energy is charged — restoring retained
        ferroelectric state is not a write pulse).
        """
        value = np.asarray(value, dtype=np.uint64).reshape(self.value.shape)
        care = np.asarray(care, dtype=np.uint64).reshape(self.care.shape)
        valid = np.asarray(valid, dtype=bool).reshape(self.valid.shape)
        if (self.valid == valid).all() and (self.value == value).all() \
                and (self.care == care).all():
            return
        self.value[...] = value
        self.care[...] = care
        self.valid[...] = valid
        self._bump()

    @mutates_planes
    def clear_row(self, row: int) -> None:
        """Invalidate a row and zero its planes (no ghost matches).

        Clearing an already-invalid row is a no-op: invalid rows hold
        zero planes by invariant, so content cannot have changed.
        """
        if not self.valid[row]:
            return
        self.valid[row] = False
        self.value[row] = 0
        self.care[row] = 0
        self._bump()

    # -- derived planes ----------------------------------------------------------

    def build_derived(self, mask_bits: Optional[np.ndarray] = None
                      ) -> DerivedPlanes:
        """Compute a fresh (uncached) derivation of the current content,
        under the global masking register ``mask_bits`` if given."""
        even, odd = step_masks(self.width)
        valid_rows = np.nonzero(self.valid)[0]
        v = self.value[valid_rows]
        c = self.care[valid_rows]
        if mask_bits is not None:
            c = c & mask_bits[None, :]
        vc = v & c
        ce32 = compress_even(c & even)
        ve32 = compress_even(vc & even)
        co32 = compress_even((c & odd) >> np.uint64(1))
        vo32 = compress_even((vc & odd) >> np.uint64(1))
        return DerivedPlanes(
            generation=self.generation, valid_rows=valid_rows,
            rows_searched=int(valid_rows.shape[0]),
            ce32=ce32, ve32=ve32, co32=co32, vo32=vo32,
            ce32_cm=np.ascontiguousarray(ce32.T),
            ve32_cm=np.ascontiguousarray(ve32.T))

    def derived(self, mask_bits: Optional[np.ndarray] = None
                ) -> DerivedPlanes:
        """The memoized derivation; rebuilt only after a content change.

        Masked derivations (``mask_bits``, the global masking register)
        share ONE slot beside the unmasked one, keyed by generation and
        mask bytes: a repeated mask is derived once per generation, a
        different mask replaces the slot.  Two alternating masks
        therefore rebuild on every call (a cost not yet measured).
        """
        slot = self._slot(mask_bits)
        assert slot is not None  # derive=True always fills the slot
        return slot[2]

    def step1_index(self, mask_bits: Optional[np.ndarray] = None, *,
                    build: bool = True) -> Optional[Step1Index]:
        """The memoized candidate index for the current generation,
        kept in the same slot as :meth:`derived` under ``mask_bits``.

        ``build=False`` only consults the cache — kernels pass it for
        small batches where dense evaluation is cheaper than an index
        build, while still reusing an index a bigger batch left behind.
        """
        slot = self._slot(mask_bits, derive=build)
        if slot is None:
            return None
        index = slot[3]
        if index is _UNBUILT:
            if not build:
                return None
            index = slot[3] = build_step1_index(slot[2])
        return index

    def _slot(self, mask_bits: Optional[np.ndarray], derive: bool = True
              ) -> Optional[list]:
        """The current unmasked or masked memo slot, derived on demand
        (``None`` if stale and ``derive`` is false)."""
        key = None if mask_bits is None else mask_bits.tobytes()
        slot = self._slots[key is not None]
        if slot is None or slot[0] != self.generation or slot[1] != key:
            if not derive:
                return None
            slot = [self.generation, key, self.build_derived(mask_bits),
                    _UNBUILT]
            self._slots[key is not None] = slot
        return slot

    def forget(self) -> None:
        """Drop every memoized derivation and index, masked or not."""
        self._slots = [None, None]

    # -- readback ----------------------------------------------------------------

    def _symbols(self, rows: np.ndarray) -> np.ndarray:
        value_bits = _unpack_bitplane(self.value[rows], self.width)
        care_bits = _unpack_bitplane(self.care[rows], self.width)
        return np.where(care_bits,
                        np.where(value_bits, _ORD_1, _ORD_0),
                        _ORD_X).astype(np.uint8)

    def stored_word(self, row: int) -> Optional[str]:
        """The canonical '01X' word stored at ``row`` (None if invalid)."""
        if not self.valid[row]:
            return None
        return self._symbols(np.array([row]))[0].tobytes().decode("ascii")

    def stored_words(self) -> List[Optional[str]]:
        """All rows decoded in one vectorized unpack (None where invalid)."""
        words: List[Optional[str]] = [None] * self.rows
        rows = np.nonzero(self.valid)[0]
        if rows.size == 0:
            return words
        symbols = self._symbols(rows)
        for i, row in enumerate(rows.tolist()):
            words[row] = symbols[i].tobytes().decode("ascii")
        return words

    @property
    def occupancy(self) -> int:
        return int(self.valid.sum())

    def __repr__(self) -> str:  # pragma: no cover
        kind = "view" if self.is_view else "arena"
        return (f"<TernaryPlanes {kind} {self.rows}x{self.width} "
                f"occupancy={self.occupancy} gen={self.generation}>")
