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
from typing import (Any, Callable, Hashable, List, Optional, Sequence,
                    Tuple)

from ..errors import OperationError

__all__ = ["QueryCache", "serve_cached_batch"]


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


def serve_cached_batch(cache: Optional[QueryCache],
                       generation: Tuple[int, ...],
                       items: Sequence[Any],
                       key_fn: Callable[[Any], Hashable],
                       compute: Callable[[List[Any]], List[Any]],
                       snapshot: Callable[[Any], Any],
                       from_cache: Callable[[Any], Any],
                       count_served: Callable[[], None]) -> List[Any]:
    """Serve a query batch through an optional cache, deduplicated.

    The subtle hit/miss/duplicate accounting behind
    :meth:`fecam.store.CamStore.search_batch`:

    * without a cache, ``compute(items)`` runs verbatim (duplicates
      recompute, exactly like a sequential loop would);
    * with a cache, each distinct item is looked up once, misses are
      computed in one ``compute(unique)`` call, and intra-batch
      duplicates are served as hits (``note_hit``) from the result of
      their first occurrence — the behavior a sequential loop over a
      warm cache converges to.

    ``compute`` owns the accounting of the queries it serves (searches
    fired, energy, latency); ``count_served`` is invoked once per query
    served *from the cache* instead.  ``snapshot`` isolates the stored
    copy from caller mutation; ``from_cache`` builds the zero-cost
    served result.
    """
    if cache is None:
        return compute(list(items))
    results: List[Any] = [None] * len(items)
    pending: "OrderedDict[Any, List[int]]" = OrderedDict()
    for i, item in enumerate(items):
        if item in pending:
            # A duplicate of an item already being computed this batch:
            # a sequential loop would serve it from the cache after the
            # first occurrence, so it is accounted as a hit below, not
            # as another miss here.
            pending[item].append(i)
            continue
        hit = cache.get(key_fn(item), generation)
        if hit is not None:
            count_served()
            results[i] = from_cache(hit)
        else:
            pending.setdefault(item, []).append(i)
    if pending:
        computed = compute(list(pending))
        for item, result in zip(pending, computed):
            cache.put(key_fn(item), generation, snapshot(result))
            indices = pending[item]
            results[indices[0]] = result
            for extra in indices[1:]:
                cache.note_hit()
                count_served()
                results[extra] = from_cache(result)
    return results
