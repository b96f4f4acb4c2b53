"""Fast behavioral TCAM engine with circuit-tier energy annotation.

The circuit tier (``fecam.cam``) answers *how fast / how much energy*;
this engine answers *what does the array do* at application scale: store
thousands of ternary words, search bit-parallel with numpy, and annotate
each operation with per-search energy/latency pulled from the evaluated
figures of merit of the chosen design.

Words are packed into 64-bit chunks as (value, care) masks; a row matches
iff ``(query XOR value) AND care == 0`` in every chunk — the same
executable specification as :func:`fecam.cam.states.ternary_match`, which
the test suite enforces by property tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..designs import DesignKind
from ..errors import OperationError, TernaryValueError
from ..cam.states import normalize_query, normalize_word
from ..cam.ops import SearchPolicy
from ..metrics.point import FIDELITIES
from ..planes import CHUNK_BITS, TernaryPlanes, n_chunks_for, step_masks

__all__ = ["TernaryCAM", "SearchStats", "EnergyModel", "check_mask",
           "pack_word", "pack_words", "price_searches", "CHUNK_BITS",
           "n_chunks_for"]

_CHUNK = CHUNK_BITS

_ORD_0, _ORD_1, _ORD_X = ord("0"), ord("1"), ord("X")


def pack_bitplane(bits: np.ndarray, width: int) -> np.ndarray:
    """Pack an (N, width) boolean plane into (N, n_chunks) uint64.

    Bit ``pos`` of a word lands in chunk ``pos // 64`` at bit position
    ``pos % 64`` — identical layout to the scalar packer the engine has
    always used, so packed content is interchangeable.
    """
    n = bits.shape[0]
    padded = n_chunks_for(width) * _CHUNK
    if padded != width:
        full = np.zeros((n, padded), dtype=bool)
        full[:, :width] = bits
        bits = full
    packed = np.packbits(bits, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view("<u8").astype(np.uint64,
                                                           copy=False)


def pack_words(words: Sequence[str], width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized bulk packer: N ternary words -> (value, care) matrices.

    Each word must be a canonical ``'01X'`` string of exactly ``width``
    symbols (run :func:`fecam.cam.states.normalize_word` first for alias
    forms such as ``*``/``?``/lowercase).  Returns two ``(N, n_chunks)``
    uint64 arrays with the same bit layout as the engine's row storage.
    This replaces the per-character Python loop on bulk-write hot paths.
    """
    n_chunks = n_chunks_for(width)
    n = len(words)
    if n == 0:
        return (np.zeros((0, n_chunks), dtype=np.uint64),
                np.zeros((0, n_chunks), dtype=np.uint64))
    for i, word in enumerate(words):
        if len(word) != width:
            raise TernaryValueError(
                f"word {i} has length {len(word)}; every word must have "
                f"length {width}")
    try:
        buf = "".join(words).encode("ascii")
    except UnicodeEncodeError as exc:
        bad_i = next(i for i, word in enumerate(words)
                     if any(ord(symbol) > 127 for symbol in word))
        raise TernaryValueError(
            f"non-ASCII symbol in ternary word {bad_i}: {exc}")
    sym = np.frombuffer(buf, dtype=np.uint8).reshape(n, width)
    is_one = sym == _ORD_1
    is_x = sym == _ORD_X
    bad = ~((sym == _ORD_0) | is_one | is_x)
    if bad.any():
        # Report *which* word broke: on a 10k-word bulk load the symbol
        # alone is useless for finding the culprit.
        bad_i, bad_pos = (int(axis[0]) for axis in np.nonzero(bad))
        raise TernaryValueError(
            f"invalid ternary symbol {chr(sym[bad_i, bad_pos])!r} at "
            f"position {bad_pos} of word {bad_i}; words must be "
            "canonical '01X' strings")
    return pack_bitplane(is_one, width), pack_bitplane(~is_x, width)


def check_mask(mask: str, width: int) -> None:
    """Validate a global-mask register value: ``width`` '0'/'1' symbols."""
    if len(mask) != width:
        raise TernaryValueError("mask length != array width")
    if not isinstance(mask, str) or mask.strip("01"):
        raise TernaryValueError("mask must contain only '0'/'1' symbols")


def pack_word(word: str, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Pack one canonical ternary word into (value, care) chunk vectors."""
    value, care = pack_words([word], width)
    return value[0], care[0]


@dataclass
class SearchStats:
    """Statistics of one array search."""

    matches: List[int]
    rows_searched: int
    step1_eliminated: int  # rows resolved (missed) in step 1
    step2_misses: int
    full_matches: int
    energy: float  # J, early-termination aware
    latency: float  # s, worst-case (2-step when any row needed step 2)

    @property
    def step1_miss_rate(self) -> float:
        if self.rows_searched == 0:
            return 0.0
        return self.step1_eliminated / self.rows_searched


@dataclass(frozen=True)
class EnergyModel:
    """Per-bit search energies/latency for one design.

    Frozen: a model can be shared between arrays, fabrics, and stores
    without one consumer's resolution bleeding into another.  Unset
    fields are lazily priced by the metrics tier
    (:func:`fecam.metrics.evaluate`) at the chosen ``fidelity`` —
    ``"spice"`` (ground truth, the historical default), ``"analytical"``
    (closed form, microseconds), or ``"paper"`` (published Table IV
    values).  Construct with explicit fields for what-if studies without
    running any model at all.
    """

    design: DesignKind
    word_length: int
    e_1step_per_bit: Optional[float] = None
    e_2step_per_bit: Optional[float] = None
    latency_1step: Optional[float] = None
    latency_2step: Optional[float] = None
    write_energy_per_cell: Optional[float] = None
    fidelity: str = "spice"

    def __post_init__(self) -> None:
        if self.fidelity not in FIDELITIES:
            raise OperationError(
                f"fidelity must be one of {FIDELITIES}, "
                f"got {self.fidelity!r}")

    @property
    def resolved(self) -> bool:
        return self.e_1step_per_bit is not None

    def resolve(self) -> "EnergyModel":
        """Return a fully-priced model (``self`` if already resolved).

        Never mutates: callers holding the unresolved instance keep it
        unchanged, so one model shared across stores cannot be
        cross-contaminated by another's resolution.
        """
        if self.resolved:
            return self
        from ..metrics import DesignPoint, evaluate

        fom = evaluate(DesignPoint(design=self.design,
                                   word_length=self.word_length),
                       fidelity=self.fidelity)
        return replace(
            self,
            e_1step_per_bit=fom.search_energy_1step,
            e_2step_per_bit=fom.search_energy_total,
            latency_1step=fom.latency_1step,
            latency_2step=fom.latency_total,
            write_energy_per_cell=fom.write_energy_per_cell or 0.0)


def price_searches(step1_eliminated, resolved, rows_searched, e1, e2,
                   lat1, lat2, two_step, early
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Energy and latency of searches from their step counts — the one
    pricing formula: a scalar search passes plain counts and the
    :meth:`TernaryCAM._search_constants`; the fabric's batch passes
    ``(B, Q)`` count matrices and ``(B, 1)`` per-bank constant columns.

    ``resolved`` counts rows that reached step 2 (step-2 misses plus
    full matches).  With early termination a step-1 elimination costs
    ``e1`` and a resolved row ``e2``; without it every row costs ``e2``.
    A two-step search that resolves nothing stops after step 1.
    """
    energy = np.where(early, step1_eliminated * e1 + resolved * e2,
                      rows_searched * e2)
    latency = np.where(np.logical_and(two_step, resolved == 0), lat1, lat2)
    return energy, latency


class TernaryCAM:
    """A behavioral M x N ternary CAM.

    >>> tcam = TernaryCAM(rows=4, width=8)
    >>> tcam.write(0, "1010XXXX")
    >>> tcam.search("10101111").matches
    [0]
    """

    def __init__(self, rows: int, width: int,
                 design: DesignKind = DesignKind.DG_1T5, *,
                 policy: SearchPolicy = SearchPolicy(),
                 energy_model: Optional[EnergyModel] = None,
                 planes: Optional[TernaryPlanes] = None):
        if rows < 1 or width < 1:
            raise OperationError("rows and width must be positive")
        self.rows = rows
        self.width = width
        self.design = design
        self.policy = policy
        self._energy = energy_model or EnergyModel(design, width)
        self._n_chunks = n_chunks_for(width)
        # Storage (and its memoized derived planes) lives in a
        # TernaryPlanes instance: private by default, or an injected
        # row-slice view of a fabric's contiguous multi-bank arena.
        if planes is None:
            planes = TernaryPlanes(rows, width)
        elif planes.rows != rows or planes.width != width:
            raise OperationError(
                f"planes are {planes.rows}x{planes.width}, array wants "
                f"{rows}x{width}")
        self._planes = planes
        # Masks for even (cell1/step-1) and odd (cell2/step-2) positions.
        self._even_mask = planes.even_mask
        self._odd_mask = planes.odd_mask
        self.search_count = 0
        self.write_count = 0
        self.energy_spent = 0.0
        self._two_step_search = design.uses_two_step_search

    @property
    def planes(self) -> TernaryPlanes:
        """The bitplane storage (shared with the fabric arena when this
        array is a bank of one)."""
        return self._planes

    @property
    def _value(self) -> np.ndarray:
        return self._planes.value

    @property
    def _care(self) -> np.ndarray:
        return self._planes.care

    @property
    def _valid(self) -> np.ndarray:
        return self._planes.valid

    def _pack(self, word: str):
        return pack_word(word, len(word))

    # -- content -------------------------------------------------------------------

    def write(self, row: int, word: str) -> None:
        """Store a ternary word (costs write energy per the design)."""
        word = normalize_word(word)
        if len(word) != self.width:
            raise TernaryValueError(
                f"word length {len(word)} != array width {self.width}")
        if not 0 <= row < self.rows:
            raise OperationError(f"row {row} out of range")
        value, care = self._pack(word)
        self._planes.set_row(row, value, care)
        self.write_count += 1
        model = self._resolved_energy()
        self.energy_spent += (model.write_energy_per_cell or 0.0) * self.width

    def write_many(self, rows: Sequence[int], words: Sequence[str], *,
                   packed: Optional[Tuple[np.ndarray, np.ndarray]] = None
                   ) -> None:
        """Bulk write: pack every word in one vectorized pass.

        Equivalent to ``for row, word in zip(rows, words): write(row, word)``
        (same validation, counters, and energy accounting) but without the
        per-character packing loop — the hot path for fabric bulk loads.
        Callers that already packed the words (:func:`pack_words`) pass
        the (value, care) planes via ``packed`` to skip re-packing.
        """
        if len(rows) != len(words):
            raise OperationError("rows and words must have equal length")
        if len(rows) == 0:  # not `not rows`: numpy arrays are valid input
            return
        row_arr = np.asarray(rows, dtype=np.int64)
        if row_arr.min() < 0 or row_arr.max() >= self.rows:
            raise OperationError("row index out of range in bulk write")
        if len(np.unique(row_arr)) != len(row_arr):
            raise OperationError("duplicate row indices in bulk write")
        if packed is not None:
            value, care = packed
            if value.shape != (len(rows), self._n_chunks) or \
                    care.shape != (len(rows), self._n_chunks):
                raise OperationError("packed planes do not match rows/width")
        else:
            try:
                value, care = pack_words(list(words), self.width)
            except (TernaryValueError, TypeError):
                # Alias symbols ('*', '?', lowercase) or non-string
                # sequences (what write() accepts): normalizing path.
                value, care = pack_words([normalize_word(w) for w in words],
                                         self.width)
        self._planes.set_rows(row_arr, value, care)
        self.write_count += len(rows)
        model = self._resolved_energy()
        per_write = (model.write_energy_per_cell or 0.0) * self.width
        for _ in range(len(rows)):  # accumulate like sequential writes
            self.energy_spent += per_write

    def erase(self, row: int) -> None:
        """Invalidate a row and zero its stored bits.

        Clearing ``_value``/``_care`` (not just ``_valid``) guarantees an
        erased row can never ghost-match through stale bits in any masked
        or packed search path that forgets to consult the valid vector.
        """
        if not 0 <= row < self.rows:
            raise OperationError(f"row {row} out of range")
        self._planes.clear_row(row)

    def stored_word(self, row: int) -> Optional[str]:
        if not self._valid[row]:
            assert not self._value[row].any() and not self._care[row].any(), \
                f"invalid row {row} retains stale stored bits"
            return None
        return self._planes.stored_word(row)

    def stored_words(self) -> List[Optional[str]]:
        """Every row's stored word (None where invalid) in one bulk
        vectorized unpack — the snapshot reader fabric/store tiers use
        instead of a per-row, per-bit readback loop."""
        return self._planes.stored_words()

    @property
    def occupancy(self) -> int:
        return int(self._valid.sum())

    @property
    def energy_model(self) -> EnergyModel:
        """The (possibly still unresolved) pricing model in effect."""
        return self._energy

    @energy_model.setter
    def energy_model(self, model: EnergyModel) -> None:
        # What-if studies swap in a whole new frozen model; the next
        # operation prices with it (resolving lazily if fields are unset).
        self._energy = model

    # -- search -------------------------------------------------------------------

    def pack_query(self, query: str) -> np.ndarray:
        """Pack a canonical binary query into its uint64 chunk vector."""
        if len(query) != self.width:
            raise TernaryValueError(
                f"query length {len(query)} != array width {self.width}")
        if any(symbol not in "01" for symbol in query):
            # The ternary packer would silently treat 'X' as a wildcard
            # value bit; a *query* must be fully specified.
            raise TernaryValueError(
                "query must contain only '0'/'1' symbols")
        q_value, _ = pack_word(query, self.width)
        return q_value

    def pack_mask(self, mask: str) -> np.ndarray:
        """Pack a global-mask register value ('1' = compare, '0' = skip)."""
        check_mask(mask, self.width)
        mask_bits, _ = pack_word(mask, self.width)
        return mask_bits

    def _resolved_energy(self) -> EnergyModel:
        """The priced model, resolving (and keeping) it on first use.

        :class:`EnergyModel` is frozen, so resolution swaps in the new
        resolved instance instead of mutating — an unresolved model
        shared with other arrays stays untouched.
        """
        model = self._energy
        if model.e_1step_per_bit is None:
            model = model.resolve()
            self._energy = model
        return model

    def _search_constants(self) -> Tuple[float, float, float, float, bool, bool]:
        """Per-word FoM constants (e1, e2, lat1, lat2, two_step, early).

        Model and policy fields are read live — swapping a new frozen
        :class:`EnergyModel` onto :attr:`energy_model` mid-run for
        what-if studies takes effect on the next search.  Only the
        design's two-step flag is cached (at construction): the fabric
        reads these for every bank of every batch, and the
        enum-property chain would dominate a small batch.
        """
        model = self._resolved_energy()
        two_step = self._two_step_search
        return (model.e_1step_per_bit * self.width,
                model.e_2step_per_bit * self.width,
                model.latency_1step, model.latency_2step,
                two_step, self.policy.early_termination and two_step)

    def _finish_search(self, match_rows: List[int], rows_searched: int,
                       step1_elim: int, step2_miss: int) -> SearchStats:
        """Energy/latency accounting of one scalar or packed search,
        priced by :func:`price_searches` like every batched one."""
        full_match = len(match_rows)
        energy_arr, latency_arr = price_searches(
            step1_elim, step2_miss + full_match, rows_searched,
            *self._search_constants())
        energy, latency = float(energy_arr), float(latency_arr)
        self.search_count += 1
        self.energy_spent += energy
        return SearchStats(matches=match_rows, rows_searched=rows_searched,
                           step1_eliminated=step1_elim,
                           step2_misses=step2_miss, full_matches=full_match,
                           energy=energy, latency=latency)

    def search_packed(self, q_value: np.ndarray,
                      mask_bits: Optional[np.ndarray] = None) -> SearchStats:
        """Fast-path search on an already-packed query chunk vector.

        Skips string normalization and packing — callers that search the
        same query against many arrays (the fabric tier) pack once via
        :meth:`pack_query` / :func:`pack_words` and reuse the vector.
        """
        q_value = np.asarray(q_value, dtype=np.uint64)
        if q_value.shape != (self._n_chunks,):
            raise TernaryValueError(
                f"packed query must have shape ({self._n_chunks},), "
                f"got {q_value.shape}")
        diff = (q_value[None, :] ^ self._value) & self._care
        if mask_bits is not None:
            mask_bits = np.asarray(mask_bits, dtype=np.uint64)
            if mask_bits.shape != (self._n_chunks,):
                raise TernaryValueError(
                    f"packed mask must have shape ({self._n_chunks},), "
                    f"got {mask_bits.shape}")
            diff = diff & mask_bits[None, :]
        miss_step1 = ((diff & self._even_mask[None, :]) != 0).any(axis=1)
        miss_step2 = ((diff & self._odd_mask[None, :]) != 0).any(axis=1)
        valid = self._valid
        match_rows = np.nonzero(valid & ~(miss_step1 | miss_step2))[0]
        step1_elim = int((valid & miss_step1).sum())
        step2_miss = int((valid & ~miss_step1 & miss_step2).sum())
        return self._finish_search([int(r) for r in match_rows],
                                   int(valid.sum()), step1_elim, step2_miss)

    def search(self, query: str, mask: Optional[str] = None) -> SearchStats:
        """Parallel search; returns matches plus early-termination stats.

        ``mask`` is the classic TCAM *global masking register*: positions
        marked '0' are excluded from the comparison for this search (a
        per-search wildcard on the query side).  It must contain only
        '0'/'1' symbols.
        """
        query = normalize_query(query)
        q_value = self.pack_query(query)
        mask_bits = self.pack_mask(mask) if mask is not None else None
        return self.search_packed(q_value, mask_bits)

    def search_first(self, query: str) -> Optional[int]:
        """Priority-encoder semantics: lowest matching row index."""
        matches = self.search(query).matches
        return matches[0] if matches else None

    def __len__(self) -> int:
        return self.rows

    def __contains__(self, word) -> bool:
        """True iff some valid row stores exactly this ternary word.

        Accepts any alias form :func:`normalize_word` does; words that
        don't normalize or whose length differs from the array width
        are simply not contained (no exception), matching ``in``
        semantics on other containers.
        """
        try:
            word = normalize_word(word)
        except (TernaryValueError, TypeError):
            return False
        if len(word) != self.width:
            return False
        value, care = pack_word(word, self.width)
        same = ((self._value == value[None, :])
                & (self._care == care[None, :])).all(axis=1)
        return bool((same & self._valid).any())

    def __repr__(self) -> str:
        return (f"<TernaryCAM {self.rows}x{self.width} "
                f"design={self.design} "
                f"occupancy={self.occupancy}/{self.rows}>")
