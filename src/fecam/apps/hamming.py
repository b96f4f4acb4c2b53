"""Approximate (Hamming-distance) matching on the associative store.

The paper's author group uses FeFET CAMs for multi-state Hamming-distance
search [3] and one-shot learning [5].  An exact-match TCAM can answer
*bounded* Hamming-distance queries by query perturbation: a stored word
within distance ``d`` of the query matches at least one of the queries
obtained by flipping ``<= d`` bits — with wildcards reducing the search
effort.  This module implements:

* :func:`hamming_distance` over ternary words (don't-cares are free);
* :class:`HammingSearcher` — bounded-distance and nearest-neighbor search
  over a :class:`~fecam.store.CamStore` (each perturbation ring is one
  batched store pass), with an exact reference implementation;
* a one-shot-classifier convenience built on nearest-neighbor search
  (class prototypes stored as ternary words, unstable bits as 'X').
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from ..cam.states import normalize_query, normalize_word
from ..errors import OperationError, TernaryValueError
from ..store import CamStore, StoreConfig

__all__ = ["hamming_distance", "HammingSearcher", "OneShotClassifier"]


def hamming_distance(stored: str, query: str) -> int:
    """Mismatch count between a ternary word and a binary query
    ('X' positions cost nothing)."""
    stored = normalize_word(stored)
    query = normalize_query(query)
    if len(stored) != len(query):
        raise TernaryValueError("length mismatch")
    return sum(1 for s, q in zip(stored, query) if s != "X" and s != q)


def _ring(query: str, width: int, d: int) -> List[str]:
    """Every query obtained by flipping exactly ``d`` bits, in the
    deterministic :func:`itertools.combinations` order."""
    ring: List[str] = []
    for flip_positions in combinations(range(width), d):
        bits = list(query)
        for p in flip_positions:
            bits[p] = "0" if bits[p] == "1" else "1"
        ring.append("".join(bits))
    return ring


class HammingSearcher:
    """Bounded-distance / nearest-neighbor search over a CamStore.

    Query perturbation: distance-``d`` candidates are found by searching
    the original query plus every query with ``<= d`` bits flipped
    (``sum C(n,k)`` searches, each ring served as one batched store
    pass).  Practical for the small ``d`` used in associative-memory
    workloads (the cited one-shot learners use d<=3).
    """

    def __init__(self, rows: int, width: int, *,
                 store_config: Optional[StoreConfig] = None):
        config = store_config or StoreConfig()
        self.cam_store = CamStore(config.with_geometry(width=width,
                                                       rows=rows))
        self.width = width
        self._words: Dict[int, str] = {}

    @property
    def capacity(self) -> int:
        return self.cam_store.capacity

    def store(self, row: int, word: str) -> None:
        """Store a prototype word under ``row`` (rewrites in place)."""
        word = normalize_word(word)
        if row in self.cam_store:
            self.cam_store.update(row, word)
        else:
            # Priority = row keeps lowest-row-wins tie-breaking across
            # backends, like a hardware priority encoder would.
            self.cam_store.insert(word, key=row, priority=row)
        self._words[row] = word

    def _ring_rows(self, queries: Sequence[str]) -> List[int]:
        """Rows matching any query of one perturbation ring (one batched
        store pass), in ascending row order."""
        rows = {m.key for r in self.cam_store.search_batch(queries)
                for m in r.matches}
        return sorted(rows)

    def search_within(self, query: str, distance: int) -> List[Tuple[int, int]]:
        """All (row, exact_distance) with distance <= ``distance``,
        sorted by distance then row."""
        query = normalize_query(query)
        if distance < 0:
            raise OperationError("distance must be non-negative")
        if distance > self.width:
            distance = self.width
        found: Dict[int, int] = {}
        for d in range(distance + 1):
            for row in self._ring_rows(_ring(query, self.width, d)):
                if row not in found:
                    found[row] = hamming_distance(self._words[row], query)
        return sorted(found.items(), key=lambda kv: (kv[1], kv[0]))

    def nearest(self, query: str, max_distance: Optional[int] = None
                ) -> Optional[Tuple[int, int]]:
        """(row, distance) of the closest stored word, expanding the
        search radius ring by ring (early exit at the first non-empty
        ring; ties broken by the lowest row)."""
        query = normalize_query(query)
        limit = self.width if max_distance is None else max_distance
        for d in range(limit + 1):
            rows = self._ring_rows(_ring(query, self.width, d))
            if rows:
                row = rows[0]
                return row, hamming_distance(self._words[row], query)
        return None

    def nearest_reference(self, query: str) -> Optional[Tuple[int, int]]:
        """Exhaustive software nearest-neighbor (specification)."""
        query = normalize_query(query)
        best: Optional[Tuple[int, int]] = None
        for row, word in sorted(self._words.items()):
            d = hamming_distance(word, query)
            if best is None or d < best[1]:
                best = (row, d)
        return best


class OneShotClassifier:
    """Nearest-prototype classifier (the ferroelectric TCAM one-shot
    learning use case [5]): one ternary prototype per class."""

    def __init__(self, width: int, capacity: int = 64, *,
                 store_config: Optional[StoreConfig] = None):
        self.width = width
        self.searcher = HammingSearcher(rows=capacity, width=width,
                                        store_config=store_config)
        self.labels: List[str] = []

    def learn(self, label: str, prototype: str) -> int:
        """Store one class prototype ('X' marks unreliable features)."""
        if len(self.labels) >= self.searcher.capacity:
            raise OperationError("classifier capacity exhausted")
        row = len(self.labels)
        self.searcher.store(row, prototype)
        self.labels.append(label)
        return row

    def classify(self, features: str,
                 max_distance: Optional[int] = None) -> Optional[str]:
        hit = self.searcher.nearest(features, max_distance=max_distance)
        if hit is None:
            return None
        return self.labels[hit[0]]

    def classify_batch(self, features: Sequence[str],
                       max_distance: Optional[int] = None
                       ) -> List[Optional[str]]:
        """Classify many feature vectors (rings batched per query)."""
        return [self.classify(f, max_distance=max_distance)
                for f in features]
