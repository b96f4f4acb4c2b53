"""LRU query-result cache with generation-based invalidation.

Associative search is read-dominated in every workload the paper
motivates (routing tables mutate rarely; classification rule sets are
near-static), so repeated queries can skip the array entirely — zero
search energy, zero match-line activity.  Correctness is kept by
*generation vectors*: each cached result remembers the write-generation
counters it was computed at, and a hit is only served while those
counters still agree — lazily, with no scan over the cache.  The one
user, :class:`~fecam.store.CamStore`, keys on its single store-wide
write generation, so any write invalidates every cached result.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

from ..errors import OperationError

__all__ = ["QueryCache"]


class QueryCache:
    """Bounded LRU mapping (query, mask) -> search result.

    Telemetry counters:

    * ``hits`` / ``misses`` — lookup outcomes (stale entries count as
      misses);
    * ``stale_drops`` — entries discarded because the content was
      written after the result was cached;
    * ``evictions`` — capacity-pressure LRU drops.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise OperationError("cache capacity must be positive")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Tuple[Tuple[int, ...], Any]]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stale_drops = 0
        self.evictions = 0

    def get(self, key: Hashable, generations: Tuple[int, ...]) -> Optional[Any]:
        """Return the cached result, or None on miss/stale."""
        item = self._data.get(key)
        if item is None:
            self.misses += 1
            return None
        cached_generations, result = item
        if cached_generations != generations:
            del self._data[key]
            self.stale_drops += 1
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return result

    def put(self, key: Hashable, generations: Tuple[int, ...],
            result: Any) -> None:
        """Insert/refresh an entry, evicting the LRU one if over capacity."""
        self._data[key] = (generations, result)
        self._data.move_to_end(key)
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def note_hit(self) -> None:
        """Count a hit served without a ``get`` (intra-batch duplicate)."""
        self.hits += 1

    def clear(self) -> None:
        self._data.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<QueryCache {len(self._data)}/{self.capacity}, "
                f"hit_rate={self.hit_rate:.2f}>")
