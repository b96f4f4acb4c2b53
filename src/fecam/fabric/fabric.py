"""`TcamFabric` — a sharded multi-bank associative search engine.

The paper evaluates single arrays; a deployable search engine is many
arrays behind one interface (cf. the capacity-scaled FeCAM / multi-bank
CAM systems in related work).  The fabric owns N :class:`CamBank` banks,
places keys by a :class:`ShardPolicy`, broadcasts searches to every bank
(content queries can match anywhere), and merges matches with
*cross-bank priority-encoder* semantics: every entry carries a global
priority, and results come back lowest-priority-first regardless of
which bank holds them — exactly what a hardware priority encoder over
concatenated match lines would output.

Energy is the sum over banks (all banks fire on a broadcast search);
latency is the worst bank (banks search in parallel, the encoder waits
for the slowest).  A batch search runs the fused kernel of
:mod:`fecam.fabric.batch` once, prices its ``(B, Q)`` count matrices
with :func:`~fecam.functional.engine.price_searches`, orders matches
from per-arena-row priority columns, and returns views over one
columnar :class:`~fecam.fabric.result.BatchMatches` — bit-identical to
a loop of sequential searches.
"""

from __future__ import annotations

import threading
import time

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .. import kernels as _kernels
from ..analysis.markers import hot_path
from ..designs import DesignKind
from ..errors import OperationError, TernaryValueError
from ..cam.states import normalize_query, normalize_word
from ..functional.engine import (EnergyModel, SearchStats, pack_words,
                                 price_searches)
from ..obs.trace import active as trace_active
from ..obs.trace import record_span
from ..obs.trace import stage as trace_stage
from ..planes import TernaryPlanes
from .bank import CamBank
from .batch import (FusedBatchCounts, fused_count_matches,
                    normalize_queries, pack_queries)
from .result import BatchMatches, Match, QueryResult
from .shard import HashSharding, ShardPolicy

__all__ = ["TcamFabric", "Match", "FabricSearchResult", "FabricStats",
           "BankTelemetry"]


@dataclass
class FabricSearchResult:
    """Merged outcome of one sequential :meth:`TcamFabric.search`, with
    the per-bank :class:`SearchStats` it was merged from (the reference
    a batch search is tested against)."""

    matches: List[Match]        # global priority order (best first)
    energy: float               # J, summed over all banks
    latency: float              # s, worst bank (banks run in parallel)
    per_bank: List[SearchStats]

    @property
    def best(self) -> Optional[Match]:
        return self.matches[0] if self.matches else None

    @property
    def match_keys(self) -> List[Hashable]:
        return [entry.key for entry in self.matches]


@dataclass
class BankTelemetry:
    """Cumulative per-bank counters (step-1 rates drive the paper's
    early-termination energy story at fabric scale)."""

    bank_id: int
    occupancy: int
    searches: int
    energy: float
    rows_examined: int
    step1_eliminated: int

    @property
    def step1_miss_rate(self) -> float:
        if self.rows_examined == 0:
            return 0.0
        return self.step1_eliminated / self.rows_examined


@dataclass
class FabricStats:
    """Aggregate fabric telemetry snapshot."""

    num_banks: int
    rows_per_bank: int
    width: int
    occupancy: int
    searches: int           # queries answered (every one fires the banks)
    energy_total: float
    worst_latency: float
    per_bank: List[BankTelemetry] = field(default_factory=list)


class TcamFabric:
    """Sharded multi-bank TCAM with vectorized batch search.

    >>> fabric = TcamFabric(banks=4, rows_per_bank=16, width=8)
    >>> entry = fabric.insert("1010XXXX", key="rule-a")
    >>> fabric.search_first("10101111").key
    'rule-a'
    """

    def __init__(self, banks: int = 4, rows_per_bank: int = 1024,
                 width: int = 64, design: DesignKind = DesignKind.DG_1T5, *,
                 sharding: Optional[ShardPolicy] = None,
                 energy_model: Optional[EnergyModel] = None,
                 arena: Optional[TernaryPlanes] = None):
        if banks < 1:
            raise OperationError("a fabric needs at least one bank")
        self.design = design
        self.width = width
        self.rows_per_bank = rows_per_bank
        # One shared energy model: the circuit tier is evaluated once for
        # the whole fabric, and every bank prices operations identically.
        model = energy_model or EnergyModel(design, width)
        # One contiguous bitplane arena for the whole fabric — banks are
        # zero-copy row-slice views (bank b owns arena rows
        # [b * rows_per_bank, (b + 1) * rows_per_bank)), so the fused
        # batch kernel evaluates every bank in a single pass and the
        # arena's derived-plane cache survives until *any* bank writes.
        # An injected ``arena`` (built with :meth:`TernaryPlanes.over`
        # atop shared memory) lets `fecam.cluster` point many processes
        # at one set of planes; it must match the fabric geometry.
        if arena is not None:
            if arena.rows != banks * rows_per_bank or arena.width != width:
                raise OperationError(
                    f"injected arena is {arena.rows} rows x width "
                    f"{arena.width}, fabric needs {banks * rows_per_bank} "
                    f"rows x width {width}")
            if arena.is_view:
                raise OperationError(
                    "injected arena must own its rows, not be a view")
        self.arena = arena if arena is not None \
            else TernaryPlanes(banks * rows_per_bank, width)
        self.banks: List[CamBank] = [
            CamBank(i, rows_per_bank, width, design, energy_model=model,
                    planes=self.arena.view(i * rows_per_bank,
                                           (i + 1) * rows_per_bank))
            for i in range(banks)]
        self.sharding = sharding or HashSharding(banks)
        if self.sharding.num_banks != banks:
            raise OperationError(
                f"sharding policy covers {self.sharding.num_banks} banks, "
                f"fabric has {banks}")
        self._entries: Dict[Hashable, Match] = {}
        # Per-arena-row columns of the live entries (bank b's row r is
        # arena row b * rows_per_bank + r), written by _index_rows and
        # delete: a batch search priority-orders its matches from them
        # in NumPy and resolves them to entries.  A row can be valid in
        # the planes without an entry (a bank written directly);
        # _row_live says.  Planes over shared memory bring the
        # priority/seq/live columns along (`fecam.cluster` workers
        # order from them), so they are only ever written in place.
        capacity = banks * rows_per_bank
        self._row_entry = np.full(capacity, None, dtype=object)
        self._row_priority, self._row_seq, self._row_live = \
            self.arena.row_columns or (
                np.zeros(capacity, dtype=np.float64),
                np.zeros(capacity, dtype=np.int64),
                np.zeros(capacity, dtype=bool))
        self._seq = 0
        self._searches = 0
        self._worst_latency = 0.0
        self._step1_eliminated = np.zeros(banks, dtype=np.int64)
        self._rows_examined = np.zeros(banks, dtype=np.int64)
        # Readers share the store's read lock, so batch searches can run
        # concurrently; folding a batch into the counters is one step.
        self._counters_lock = threading.Lock()

    @classmethod
    def striped(cls, words: Sequence[str], *, banks: int, width: int,
                design: DesignKind = DesignKind.DG_1T5,
                keys: Optional[Sequence[Hashable]] = None,
                payloads: Optional[Sequence[Any]] = None,
                energy_model: Optional[EnergyModel] = None) -> "TcamFabric":
        """Build a fabric sized for ``words``, striped round-robin.

        Priority equals list position, so the cross-bank encoder
        preserves the list's first-match-wins order — the construction
        both the router and classifier rebuild on.
        """
        n = max(len(words), 1)
        fabric = cls(banks=banks, rows_per_bank=(n + banks - 1) // banks,
                     width=width, design=design,
                     energy_model=energy_model)
        if words:
            fabric.insert_many(words, keys=keys,
                               priorities=list(range(len(words))),
                               payloads=payloads,
                               banks=[i % banks for i in range(len(words))])
        return fabric

    # -- capacity ----------------------------------------------------------------

    @property
    def num_banks(self) -> int:
        return len(self.banks)

    @property
    def capacity(self) -> int:
        return self.num_banks * self.rows_per_bank

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def entry(self, key: Hashable) -> Match:
        try:
            return self._entries[key]
        except KeyError:
            raise OperationError(f"no entry with key {key!r}") from None

    def entries(self) -> List[Match]:
        """All entries in global priority order."""
        return sorted(self._entries.values(), key=lambda e: e.sort_key)

    def stored_words(self) -> List[Optional[str]]:
        """Snapshot of every arena row's stored word (None where free).

        One bulk vectorized unpack over the contiguous arena — bank
        ``b``'s row ``r`` sits at index ``b * rows_per_bank + r`` — the
        reader to use for table dumps/replication instead of a per-row
        ``stored_word`` loop over every bank.
        """
        return self.arena.stored_words()

    # -- write lifecycle ---------------------------------------------------------

    def _index_rows(self, entries: Sequence[Match]) -> None:
        """Record placed entries in the per-row columns."""
        n = len(entries)
        rows = np.fromiter((entry.bank * self.rows_per_bank + entry.row
                            for entry in entries), dtype=np.intp, count=n)
        self._row_entry[rows] = entries
        self._row_priority[rows] = np.fromiter(
            (entry.priority for entry in entries), dtype=np.float64, count=n)
        self._row_seq[rows] = np.fromiter(
            (entry.seq for entry in entries), dtype=np.int64, count=n)
        self._row_live[rows] = True

    def _resolve_bank(self, key: Hashable, bank: Optional[int]) -> int:
        if bank is None:
            return self.sharding.bank_for(key)
        if not 0 <= bank < self.num_banks:
            raise OperationError(f"bank {bank} out of range")
        return bank

    def insert(self, word: str, key: Optional[Hashable] = None, *,
               priority: Optional[float] = None, payload: Any = None,
               bank: Optional[int] = None,
               seq: Optional[int] = None) -> Match:
        """Place a word; returns its :class:`Match`.

        ``key`` defaults to a unique auto key; ``priority`` defaults to
        insertion order (earlier = higher priority); ``bank`` overrides
        the sharding policy for explicit placement (round-robin loads,
        locality experiments); ``seq`` lets a caller that numbers its
        own operations (the store) make its sequence number the
        record's — by default the fabric allocates the next one.
        """
        word = normalize_word(word)  # entry.word is always canonical
        if seq is None:
            seq = self._seq
        if key is None:
            key = ("auto", seq)
        if key in self._entries:
            raise OperationError(f"duplicate key {key!r}; use update()")
        bank_id = self._resolve_bank(key, bank)
        row = self.banks[bank_id].insert(word)
        entry = Match(
            key=key, word=word,
            priority=seq if priority is None else priority,
            bank=bank_id, row=row, payload=payload, seq=seq)
        self._seq = max(self._seq, seq + 1)
        self._entries[key] = entry
        self._index_rows([entry])
        return entry

    def insert_many(self, words: Sequence[str],
                    keys: Optional[Sequence[Hashable]] = None, *,
                    priorities: Optional[Sequence[float]] = None,
                    payloads: Optional[Sequence[Any]] = None,
                    banks: Optional[Sequence[int]] = None,
                    seqs: Optional[Sequence[int]] = None
                    ) -> List[Match]:
        """Bulk load through the vectorized packer, one write per bank.

        Orders of magnitude faster than looped :meth:`insert` for large
        tables (rule sets, routing snapshots) — words are grouped by
        owning bank and packed in single NumPy passes.  ``seqs`` are
        caller-owned sequence numbers, as in :meth:`insert`.
        """
        n = len(words)
        for name, column in (("keys", keys), ("priorities", priorities),
                             ("payloads", payloads), ("banks", banks),
                             ("seqs", seqs)):
            if column is not None and len(column) != n:
                raise OperationError(f"{name} must match words in length")
        # Pack (and thereby validate) every word up front, so the
        # multi-bank insert below cannot fail halfway and leak allocated
        # rows; the planes are sliced per bank to avoid re-packing.
        words = list(words)
        try:
            value, care = pack_words(words, self.width)
        except (TernaryValueError, TypeError):
            # Alias symbols or non-string sequences (insert() accepts
            # both): normalize, then re-pack — reraises real errors.
            words = [normalize_word(w) for w in words]
            value, care = pack_words(words, self.width)
        entries: List[Match] = []
        batch_keys: set = set()
        by_bank: Dict[int, List[int]] = {}
        for i in range(n):
            seq = self._seq if seqs is None else seqs[i]
            key = keys[i] if keys is not None else None
            if key is None:
                key = ("auto", seq)
            if key in self._entries or key in batch_keys:
                raise OperationError(f"duplicate key {key!r}; use update()")
            batch_keys.add(key)
            bank_id = self._resolve_bank(
                key, banks[i] if banks is not None else None)
            entry = Match(
                key=key, word=words[i],
                priority=seq if priorities is None else priorities[i],
                bank=bank_id, row=-1,
                payload=payloads[i] if payloads is not None else None,
                seq=seq)
            self._seq = max(self._seq, seq + 1)
            entries.append(entry)
            by_bank.setdefault(bank_id, []).append(i)
        for bank_id, indices in by_bank.items():
            if len(indices) > self.banks[bank_id].free_count:
                raise OperationError(
                    f"bank {bank_id} cannot hold {len(indices)} more "
                    f"words ({self.banks[bank_id].free_count} rows free)")
        for bank_id, indices in by_bank.items():
            rows = self.banks[bank_id].insert_many(
                [words[i] for i in indices],
                packed=(value[indices], care[indices]))
            for row, i in zip(rows, indices):
                entries[i].row = row
        for entry in entries:
            self._entries[entry.key] = entry
        self._index_rows(entries)
        return entries

    def adopt_entries(self, entries: Sequence[Match], *,
                      write: bool = True) -> None:
        """Register restored entries at their recorded placements.

        The durable-recovery hook: a fresh fabric adopts a previously
        serialized table without re-running the allocator, so bank/row
        placements come back exactly as recorded.  With ``write=True``
        every word is written through its bank at its fixed row (the
        reshard-record replay path); with ``write=False`` the arena
        content is assumed already restored (the snapshot path loads
        the planes wholesale) and only the bookkeeping — entry maps,
        free pools, sequence counter — is rebuilt.
        """
        if self._entries:
            raise OperationError(
                "adopt_entries needs a fresh (empty) fabric")
        table: Dict[Hashable, Match] = {}
        for entry in entries:
            if entry.key in table:
                raise OperationError(
                    f"duplicate key {entry.key!r} in adopted entries")
            table[entry.key] = entry
        if write:
            words = [entry.word for entry in entries]
            value, care = pack_words(words, self.width)
            by_bank: Dict[int, List[int]] = {}
            for i, entry in enumerate(entries):
                if not 0 <= entry.bank < self.num_banks:
                    raise OperationError(
                        f"entry {entry.key!r} places bank {entry.bank} "
                        f"out of range")
                by_bank.setdefault(entry.bank, []).append(i)
            for bank_id, indices in by_bank.items():
                self.banks[bank_id].place_many(
                    [entries[i].row for i in indices],
                    [words[i] for i in indices],
                    packed=(value[indices], care[indices]))
        else:
            for bank in self.banks:
                bank.sync_free_rows()
        self._entries = table
        self._index_rows(entries)
        self._seq = 1 + max((entry.seq for entry in entries), default=-1)

    def delete(self, key: Hashable) -> Match:
        """Remove an entry; its row returns to the bank's free pool."""
        entry = self.entry(key)
        self.banks[entry.bank].delete(entry.row)
        del self._entries[key]
        row = entry.bank * self.rows_per_bank + entry.row
        self._row_entry[row] = None
        self._row_live[row] = False
        return entry

    def update(self, key: Hashable, word: str, *,
               payload: Any = None) -> Match:
        """Rewrite an entry's word; returns the :class:`Match` that
        replaces it (bank/row/priority/seq kept).

        Copy-on-write: the published ``Match`` is left untouched, so a
        result taken before the write keeps naming the old word."""
        word = normalize_word(word)
        old = self.entry(key)
        self.banks[old.bank].update(old.row, word)
        entry = Match(key, word, old.priority, old.bank, old.row,
                      old.payload if payload is None else payload, old.seq)
        self._entries[key] = entry
        self._row_entry[old.bank * self.rows_per_bank + old.row] = entry
        return entry

    # -- search ------------------------------------------------------------------

    def _combine(self, per_bank: List[SearchStats]) -> FabricSearchResult:
        """Merge per-bank stats into one priority-ordered fabric result."""
        energy = 0.0
        latency = 0.0
        matched: List[Match] = []
        for bank_id, stats in enumerate(per_bank):
            energy += stats.energy
            latency = max(latency, stats.latency)
            self._step1_eliminated[bank_id] += stats.step1_eliminated
            self._rows_examined[bank_id] += stats.rows_searched
            base = bank_id * self.rows_per_bank
            for row in stats.matches:
                entry = self._row_entry[base + row]
                if entry is not None:
                    matched.append(entry)
        matched.sort(key=lambda e: e.sort_key)
        self._searches += 1
        self._worst_latency = max(self._worst_latency, latency)
        return FabricSearchResult(matches=matched, energy=energy,
                                  latency=latency, per_bank=per_bank)

    def search(self, query: str, mask: Optional[str] = None, *,
               use_cache: bool = True) -> FabricSearchResult:
        """Broadcast one query to every bank and merge by priority.

        Semantically identical to calling ``bank.cam.search(query, mask)``
        on each bank in order and aggregating — the loop the batched
        path is tested against — but the query (and mask) are packed
        once and probed into each bank via ``search_packed`` rather
        than re-packed per bank.
        """
        # use_cache is ignored (no cache here); frozen benchmarks/e2e passes it.
        query = normalize_query(query)
        if len(query) != self.width:
            raise TernaryValueError(
                f"query length {len(query)} != fabric width {self.width}")
        q_value = self.banks[0].cam.pack_query(query)
        mask_bits = (self.banks[0].cam.pack_mask(mask)
                     if mask is not None else None)
        return self._combine([bank.cam.search_packed(q_value, mask_bits)
                              for bank in self.banks])

    def search_first(self, query: str,
                     mask: Optional[str] = None) -> Optional[Match]:
        """Cross-bank priority-encoder output: the best-priority match."""
        return self.search(query, mask).best

    @hot_path
    def search_batch(self, queries: Sequence[str],
                     mask: Optional[str] = None, *,
                     use_cache: bool = True) -> List[QueryResult]:
        """Vectorized multi-query search over every bank.

        Returns one :class:`QueryResult` per query, in order,
        bit-identical (matches, energy, latency, bank counters) to
        ``[self.search(q, mask) for q in queries]``.
        """
        # use_cache is ignored (no cache here); frozen benchmarks/e2e passes it.
        return self.search_normalized(
            normalize_queries(queries, self.width), mask)

    @hot_path
    def search_normalized(self, queries: List[str],
                          mask: Optional[str] = None) -> List[QueryResult]:
        """:meth:`search_batch` for queries already through
        :func:`~fecam.fabric.batch.normalize_queries`, so a caller that
        validated them (the store) does not pay twice:
        :meth:`search_rows`, then :meth:`hydrate`; the results are views
        over the columnar batch."""
        if not queries:
            return []
        rows, offsets, energy, latency = self.search_rows(queries, mask)
        return self.hydrate(queries, mask, rows, offsets).results(
            energy, latency)

    @hot_path
    def search_rows(self, queries: List[str], mask: Optional[str] = None
                    ) -> Tuple[np.ndarray, List[int], List[float],
                               List[float]]:
        """A batch search up to matched arena rows: one fused kernel
        pass, :meth:`_account`, then the priority-encoder order.

        Returns ``(rows, offsets, energy, latency)``: query ``i``
        matched ``rows[offsets[i]:offsets[i + 1]]``, best first.  Reads
        the planes and the per-row columns, never an entry — which is
        what lets a `fecam.cluster` worker run it over the shared arena.
        """
        mask_bits = (self.banks[0].cam.pack_mask(mask)
                     if mask is not None else None)
        n_q = len(queries)
        q_matrix = pack_queries(queries, self.width)
        # reuse_buffers: the count matrices are fully reduced to
        # per-query scalars before this method returns, so this thread's
        # next batch may recycle them.
        with trace_stage("kernel.fused_count_matches", queries=n_q,
                         banks=self.num_banks,
                         kernel_backend=_kernels.backend_name()):
            counts = fused_count_matches(self.arena, q_matrix, mask_bits,
                                         n_banks=self.num_banks,
                                         rows_per_bank=self.rows_per_bank,
                                         reuse_buffers=True)
        targets = trace_active()
        merge_start = time.perf_counter() if targets else 0.0
        energy, latency = self._account(counts, n_q)
        rows, offsets = self._order(counts, n_q)
        if targets:
            # Everything after the fused kernel: pricing, bank counters
            # and priority-encoder ordering.
            record_span(targets, "fabric.merge", merge_start,
                        time.perf_counter(), queries=n_q)
        return rows, offsets, energy, latency

    def hydrate(self, queries: List[str], mask: Optional[str],
                rows: Sequence[int], offsets: List[int]) -> BatchMatches:
        """Resolve :meth:`search_rows` output to the entries the rows
        hold now — the ones the search saw as long as no write ran in
        between (the store's read lock, which a batch search holds)."""
        return BatchMatches(queries, mask, self._row_entry[rows].tolist(),
                            offsets)

    @hot_path
    def _account(self, counts: FusedBatchCounts, n_q: int
                 ) -> Tuple[List[float], List[float]]:
        """Price a batch, fold it into every counter, and return the
        per-query energies and latencies.

        Bit-identical to ``_combine`` over a loop of per-bank searches:
        one :func:`price_searches` call over the ``(B, Q)`` counts; the
        axis-0 reduction adds bank rows in bank order, as the loop does;
        a sequential ``cumsum`` advances each ``energy_spent`` as the
        loop's ``+=`` does.
        """
        cams = [bank.cam for bank in self.banks]
        constants = np.array(
            [cam._search_constants() for cam in cams]).T[:, :, None]
        e1, e2, lat1, lat2 = constants[:4]
        two_step, early = constants[4:] > 0
        bank_energy, bank_latency = price_searches(
            counts.step1_eliminated,
            counts.step2_misses + counts.full_matches,
            counts.rows_searched[:, None], e1, e2, lat1, lat2, two_step,
            early)
        latency = bank_latency.max(axis=0)
        with self._counters_lock:
            spent = np.cumsum(
                np.column_stack(([cam.energy_spent for cam in cams],
                                 bank_energy)), axis=1)[:, -1]
            for cam, total in zip(cams, spent.tolist()):
                cam.energy_spent = total
                cam.search_count += n_q
            self._step1_eliminated += counts.step1_eliminated.sum(axis=1)
            self._rows_examined += counts.rows_searched * n_q
            self._searches += n_q
            self._worst_latency = max(self._worst_latency,
                                      float(latency.max()))
        return (np.add.reduce(bank_energy, axis=0).tolist(),
                latency.tolist())

    @hot_path
    def _order(self, counts: FusedBatchCounts, n_q: int
               ) -> Tuple[np.ndarray, List[int]]:
        """Matched live arena rows in priority order, with per-query
        offsets.

        The kernel's pairs come grouped by query, rows ascending; one
        stable ``lexsort`` on (query, priority, seq) is each query's
        priority-encoder order (ties kept in row order, as the loop's
        stable sort keeps them), and a ``bincount`` slices the flat list.
        """
        match_q, rows = counts.match_q, counts.match_rows
        live = self._row_live[rows]
        if not live.all():
            match_q, rows = match_q[live], rows[live]
        rows = rows[np.lexsort((self._row_seq[rows],
                                self._row_priority[rows], match_q))]
        offsets = np.zeros(n_q + 1, dtype=np.intp)
        np.cumsum(np.bincount(match_q, minlength=n_q), out=offsets[1:])
        return rows, offsets.tolist()

    # -- telemetry ---------------------------------------------------------------

    @property
    def stats(self) -> FabricStats:
        per_bank = [
            BankTelemetry(
                bank_id=bank.bank_id, occupancy=bank.occupancy,
                searches=bank.cam.search_count,
                energy=bank.cam.energy_spent,
                rows_examined=rows_examined,
                step1_eliminated=step1_eliminated)
            for bank, rows_examined, step1_eliminated in zip(
                self.banks, self._rows_examined.tolist(),
                self._step1_eliminated.tolist())]
        return FabricStats(
            num_banks=self.num_banks, rows_per_bank=self.rows_per_bank,
            width=self.width, occupancy=self.occupancy,
            searches=self._searches,
            energy_total=sum(bank.cam.energy_spent for bank in self.banks),
            worst_latency=self._worst_latency, per_bank=per_bank)

    def __repr__(self) -> str:
        return (f"<TcamFabric banks={self.num_banks} "
                f"rows_per_bank={self.rows_per_bank} width={self.width} "
                f"design={self.design} "
                f"occupancy={self.occupancy}/{self.capacity}>")
