"""`CamStore` — the one associative-store facade.

The store owns the policy layer every workload used to hand-roll:

* key allocation (auto keys, duplicate detection) and priorities
  (insertion order by default, so the priority encoder preserves
  first-write-wins semantics);
* word/query canonicalization, batch-first search entry points;
* the LRU query-result cache with write-generation invalidation (the
  only query cache in the stack);
* cumulative telemetry (:class:`StoreStats`).

Physical storage is a :class:`~fecam.store.SearchBackend`: a sharded
multi-bank fabric (:class:`~fecam.store.FabricBackend`) laid out by
:class:`~fecam.store.StoreConfig` — scaling from one bank to many is a
config edit.

>>> store = CamStore(StoreConfig(width=8, rows=4))
>>> _ = store.insert("1010XXXX", key="rule-a")
>>> store.search_first("10101111").key
'rule-a'
"""

from __future__ import annotations

import threading
import time

from operator import attrgetter

import numpy as np

from dataclasses import replace
from typing import (Any, Dict, Hashable, List, Optional, Sequence, Tuple,
                    Union)

from ..analysis.markers import hot_path, lock_free, requires_lock
from ..cam.states import normalize_word
from ..errors import OperationError, TernaryValueError
from ..fabric.batch import normalize_queries
from ..fabric.cache import QueryCache
from ..obs.trace import active as trace_active
from ..obs.trace import record_span
from ..obs.trace import stage as trace_stage
from ..designs import DesignKind
from .backend import SearchBackend
from .config import StoreConfig
from .fabric import FabricBackend
from .result import Match, Query, QueryResult, StoreStats

__all__ = ["CamStore"]

_CANONICAL_ORDS = (ord("0"), ord("1"), ord("X"))


def _normalize_words(words: Sequence[str], width: int) -> List[str]:
    """Canonicalize a batch of ternary words, vectorized.

    Canonical '01X' strings of the right width pass in one NumPy scan;
    anything else (aliases like '*'/'?', lowercase, non-strings) falls
    back to per-word :func:`normalize_word`, which raises the same
    errors a loop of scalar writes would.
    """
    words = list(words)
    try:
        if all(len(word) == width for word in words):
            buf = "".join(words).encode("ascii")
            sym = np.frombuffer(buf, dtype=np.uint8)
            o0, o1, ox = _CANONICAL_ORDS
            if ((sym == o0) | (sym == o1) | (sym == ox)).all():
                return words
    except (TypeError, UnicodeEncodeError):
        pass
    normalized = []
    for i, word in enumerate(words):
        try:
            normalized.append(normalize_word(word))
        except TernaryValueError as exc:
            raise TernaryValueError(f"word {i}: {exc}") from None
    return normalized


class CamStore:
    """One associative store over a fabric (or cluster) backend."""

    def __init__(self, config: Optional[StoreConfig] = None, *,
                 backend: Optional[SearchBackend] = None, **overrides):
        """Build a store from a config (plus keyword overrides).

        ``CamStore(width=8, rows=64)`` and
        ``CamStore(StoreConfig(width=8, rows=64))`` are equivalent;
        overrides win over the config's fields.  ``backend`` injects a
        pre-built backend (its config wins) — how a recovered or
        cluster-wrapped fabric gets its facade.
        """
        if backend is not None:
            if config is not None or overrides:
                raise OperationError(
                    "pass either a backend or a config, not both")
            config = backend.config
        else:
            if config is None:
                config = StoreConfig(**overrides)
            elif overrides:
                config = replace(config, **overrides)
            config = config.resolved()
            backend = FabricBackend(config)
        self.config = config
        self._backend = backend
        self._cache: Optional[QueryCache] = (
            QueryCache(config.cache_size) if config.cache_size else None)
        self._generation = 0
        # Start above any adopted entry's seq (an injected backend may
        # arrive loaded), so fresh inserts can never collide with — or
        # outrank — adopted priorities/seqs.
        self._seq = 1 + max((entry.seq for entry in backend.entries()),
                            default=-1)
        self._searches = 0
        self._array_searches = 0
        self._writes = 0
        self._worst_latency = 0.0
        # Readers share the read lock; the search counters need their own.
        self._stats_lock = threading.Lock()

    # -- layout ------------------------------------------------------------------

    @property
    @lock_free
    def backend(self) -> SearchBackend:
        """The active backend — one atomic reference.  Reshard swaps it
        under the write lock; reading the reference itself needs none."""
        return self._backend

    @backend.setter
    def backend(self, value: SearchBackend) -> None:
        self._backend = value

    @property
    @lock_free
    def width(self) -> int:
        return self.config.width

    @property
    @lock_free
    def design(self) -> DesignKind:
        return self.config.design

    @property
    @lock_free
    def banks(self) -> int:
        return self.config.banks

    @property
    @lock_free
    def capacity(self) -> int:
        return self.backend.capacity

    @property
    @requires_lock("read")
    def occupancy(self) -> int:
        return self.backend.occupancy

    @property
    @requires_lock("read")
    def generation(self) -> int:
        """Monotonic write-generation counter of this store's content.

        Advances by exactly one on every mutating operation —
        ``insert``, ``insert_many`` (one bump for the whole batch),
        ``delete``, ``update`` — mirroring the planes-tier
        write-generation scheme one level up, where a generation is one
        journaled operation instead of one arena write.  The query
        cache invalidates on it, and the serving tier tags every
        result with the generation it was computed at, so a serial
        replay of the operation journal up to that generation
        reproduces the observed state.
        """
        return self._generation

    # -- content lifecycle -------------------------------------------------------

    def _allocate_key(self, key: Optional[Hashable]) -> Hashable:
        return ("auto", self._seq) if key is None else key

    def _wrote(self) -> None:
        self._writes += 1
        self._generation += 1  # invalidates every cached result

    @requires_lock("write")
    def insert(self, word: str, key: Optional[Hashable] = None, *,
               priority: Optional[float] = None,
               payload: Any = None) -> Match:
        """Store a word; returns its :class:`Match` handle.

        ``key`` defaults to a unique auto key; ``priority`` defaults to
        insertion order (earlier = higher priority, i.e. sorts first).
        """
        word = normalize_word(word)
        key = self._allocate_key(key)
        match = self.backend.insert(
            word, key, self._seq if priority is None else priority,
            payload, self._seq)
        self._seq += 1
        self._wrote()
        return match

    @requires_lock("write")
    def insert_many(self, words: Sequence[str],
                    keys: Optional[Sequence[Hashable]] = None, *,
                    priorities: Optional[Sequence[float]] = None,
                    payloads: Optional[Sequence[Any]] = None
                    ) -> List[Match]:
        """Bulk load through the vectorized packer (atomic)."""
        words = _normalize_words(words, self.width)
        n = len(words)
        for name, seq in (("keys", keys), ("priorities", priorities),
                          ("payloads", payloads)):
            if seq is not None and len(seq) != n:
                raise OperationError(f"{name} must match words in length")
        if n == 0:
            return []
        seqs = list(range(self._seq, self._seq + n))
        # Per-item auto keys take their own seq — ("auto", self._seq)
        # for every None would collide inside one batch.
        keys = ([("auto", seq) if key is None else key
                 for key, seq in zip(keys, seqs)] if keys is not None
                else [("auto", seq) for seq in seqs])
        if len(set(keys)) != n:
            raise OperationError("duplicate keys in bulk insert")
        matches = self.backend.insert_many(
            words, keys,
            list(priorities) if priorities is not None else seqs,
            list(payloads) if payloads is not None else [None] * n,
            seqs)
        self._seq += n
        self._wrote()
        return matches

    @requires_lock("write")
    def delete(self, key: Hashable) -> Match:
        """Remove an entry; its row returns to the backend's free pool."""
        match = self.backend.delete(key)
        self._wrote()
        return match

    @requires_lock("write")
    def update(self, key: Hashable, word: str, *,
               payload: Any = None) -> Match:
        """Rewrite an entry's word; returns the :class:`Match` that
        replaces it (placement/priority kept, the old one untouched)."""
        match = self.backend.update(key, normalize_word(word), payload)
        self._wrote()
        return match

    @requires_lock("read")
    def get(self, key: Hashable) -> Match:
        return self.backend.get(key)

    @requires_lock("read")
    def entries(self) -> List[Match]:
        """All live entries in global priority order."""
        return self.backend.entries()

    def __len__(self) -> int:
        return self.backend.occupancy

    def __contains__(self, key: Hashable) -> bool:
        return key in self.backend

    # -- search ------------------------------------------------------------------

    def _coerce_batch(self, queries: Sequence[Union[Query, str]],
                      mask: Optional[str]) -> "tuple[List[str], Optional[str]]":
        # Each query's effective mask is its own, falling back to the
        # batch argument.  The kernel applies ONE mask to the whole
        # batch, so any disagreement — including a masked Query next to
        # an unmasked one — must be an error, never a silent leak of
        # one query's mask onto its neighbours.
        if set(map(type, queries)) <= {str}:
            # Plain-string batches (the serving hot path) carry no
            # per-query mask, so the conflict accounting below is moot.
            return normalize_queries(queries, self.width), mask
        bits: List[str] = []
        effective_masks = set()
        for query in queries:
            query = Query.coerce(query)
            if (query.mask is not None and mask is not None
                    and query.mask != mask):
                raise OperationError(
                    "a query's own mask conflicts with the batch mask "
                    "argument")
            effective_masks.add(query.mask if query.mask is not None
                                else mask)
            bits.append(query.bits)
        if len(effective_masks) > 1:
            raise OperationError(
                "all queries of one batch must share one mask "
                "(mix of masked and unmasked queries)")
        if effective_masks:
            mask = next(iter(effective_masks))
        return normalize_queries(bits, self.width), mask

    @staticmethod
    def _from_cache(hit: QueryResult) -> QueryResult:
        # A hit fires no array: report the cost actually paid (none).
        return QueryResult(hit.query, list(hit.matches), 0.0, 0.0, True)

    @requires_lock("read")
    def search(self, query: Union[Query, str],
               mask: Optional[str] = None, *,
               use_cache: bool = True) -> QueryResult:
        """Search one query (a bit-string or :class:`Query`)."""
        return self.search_batch([query], mask=mask,
                                 use_cache=use_cache)[0]

    @requires_lock("read")
    def search_first(self, query: Union[Query, str],
                     mask: Optional[str] = None) -> Optional[Match]:
        """Priority-encoder output: the best-priority match, or None."""
        return self.search(query, mask).best

    @hot_path
    @requires_lock("read")
    def search_batch(self, queries: Sequence[Union[Query, str]],
                     mask: Optional[str] = None, *,
                     use_cache: bool = True) -> List[QueryResult]:
        """Vectorized multi-query search; one result per query, in order.

        Without a cache this is bit-identical (matches, energy, latency)
        to a loop of :meth:`search` calls, and the backend's results
        come back as they are; with a cache, duplicate queries inside
        the batch are computed once and the copies served as hits.
        """
        bits_list, mask = self._coerce_batch(queries, mask)
        if not bits_list:
            return []
        targets = trace_active()
        start = time.perf_counter() if targets else 0.0
        if self._cache is None or not use_cache:
            results = self._compute(bits_list, mask)
            computed = len(bits_list)
        else:
            results, computed = self._serve_cached(self._cache, bits_list,
                                                   mask)
        if targets:
            # Time the whole store stage (cache lookups included) and
            # annotate how much of the batch actually fired the arrays
            # vs. rode the query cache.
            record_span(targets, "store.search_batch", start,
                        time.perf_counter(), queries=len(bits_list),
                        computed=computed,
                        cache_served=len(bits_list) - computed)
        return results

    def _compute(self, bits: List[str],
                 mask: Optional[str]) -> List[QueryResult]:
        """Fire the arrays for ``bits`` and count what that cost."""
        with trace_stage("backend.search_batch", queries=len(bits)):
            results = self.backend.search_batch(bits, mask)
        worst = max(map(attrgetter("latency"), results))
        with self._stats_lock:
            self._searches += len(bits)
            self._array_searches += len(bits)
            self._worst_latency = max(self._worst_latency, worst)
        return results

    def _serve_cached(self, cache: QueryCache, bits_list: List[str],
                      mask: Optional[str]
                      ) -> Tuple[List[QueryResult], int]:
        """Serve a batch through the query cache, deduplicated.

        Each distinct query is looked up once and the misses are
        computed in one backend call.  A duplicate inside the batch is a
        hit on its first occurrence — what a sequential loop over a
        warm cache converges to.  Returns the results and how many
        queries fired the arrays.
        """
        generation = (self._generation,)
        results: List[Any] = [None] * len(bits_list)
        pending: Dict[str, List[int]] = {}
        hits = 0
        for i, bits in enumerate(bits_list):
            if bits in pending:
                pending[bits].append(i)
                continue
            hit = cache.get((bits, mask), generation)
            if hit is None:
                pending[bits] = [i]
            else:
                results[i] = self._from_cache(hit)
                hits += 1
        with self._stats_lock:
            self._searches += hits
        if pending:
            computed = self._compute(list(pending), mask)
            for (bits, indices), result in zip(pending.items(), computed):
                # The base-class copy, not result.freeze(): a view's
                # freeze() returns the view itself, whose match list
                # the caller it is served to may mutate.
                cache.put((bits, mask), generation,
                          QueryResult.freeze(result))
                results[indices[0]] = result
                for extra in indices[1:]:
                    cache.note_hit()
                    results[extra] = self._from_cache(result)
            with self._stats_lock:
                self._searches += len(bits_list) - len(pending) - hits
        return results, len(pending)

    # -- telemetry ---------------------------------------------------------------

    @property
    @requires_lock("read")
    def stats(self) -> StoreStats:
        cache = self._cache
        return StoreStats(
            backend=self.backend.name, banks=self.banks, width=self.width,
            capacity=self.capacity, occupancy=self.occupancy,
            searches=self._searches, array_searches=self._array_searches,
            writes=self._writes, energy_total=self.backend.energy_total,
            worst_latency=self._worst_latency,
            cache_hits=cache.hits if cache is not None else 0,
            cache_misses=cache.misses if cache is not None else 0,
            cache_hit_rate=cache.hit_rate if cache is not None else 0.0)

    def __repr__(self) -> str:
        cache = (str(self.config.cache_size)
                 if self._cache is not None else "off")
        return (f"<CamStore backend={self.backend.name} "
                f"banks={self.banks} {self.capacity}x{self.width} "
                f"design={self.design} "
                f"occupancy={self.occupancy}/{self.capacity} "
                f"cache={cache}>")
