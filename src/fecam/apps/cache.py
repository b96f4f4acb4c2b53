"""Fully-associative cache with TCAM tag matching — the paper's
"high-associativity caches" motivation (Sec. I / abstract).

The tag store is a binary-mode :class:`~fecam.store.CamStore` (no
wildcards in tags, one entry per cache line, priority = line index so
hit detection keeps the classic lowest-line priority-encoder
semantics); hit detection is one parallel search.  Replacement is LRU.
A ``store_config`` scales the tag store across banks and adds query
caching for probe-heavy traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import OperationError
from ..store import CamStore, StoreConfig, StoreStats

__all__ = ["AccessResult", "TcamCache"]


@dataclass
class AccessResult:
    hit: bool
    line: int
    evicted_tag: Optional[int] = None


class TcamCache:
    """Fully-associative cache: TCAM tags + LRU replacement.

    >>> cache = TcamCache(lines=2, block_bits=4, address_bits=16)
    >>> cache.access(0x1230).hit
    False
    >>> cache.access(0x1234).hit   # same block
    True
    """

    def __init__(self, lines: int, *, block_bits: int = 6,
                 address_bits: int = 32,
                 store_config: Optional[StoreConfig] = None):
        config = store_config or StoreConfig()
        if lines < 1:
            raise OperationError("cache needs at least one line")
        if not 0 < block_bits < address_bits:
            raise OperationError("invalid block/address split")
        self.lines = lines
        self.block_bits = block_bits
        self.tag_bits = address_bits - block_bits
        # TCAM words must be even-length for the 2-cell pairing.
        self._pad = self.tag_bits % 2
        self._store = CamStore(config.with_geometry(
            width=self.tag_bits + self._pad, rows=lines))
        self._tags: List[Optional[int]] = [None] * lines
        self._lru: List[int] = list(range(lines))  # front = LRU victim
        self.hits = 0
        self.misses = 0

    def _tag_of(self, address: int) -> int:
        return address >> self.block_bits

    def _tag_word(self, tag: int) -> str:
        return format(tag, f"0{self.tag_bits + self._pad}b")

    def _touch(self, line: int) -> None:
        self._lru.remove(line)
        self._lru.append(line)

    def _probe(self, tag: int) -> Optional[int]:
        """The line holding ``tag``, via one parallel tag search."""
        match = self._store.search_first(self._tag_word(tag))
        if match is not None and self._tags[match.key] == tag:
            return match.key
        return None

    def access(self, address: int) -> AccessResult:
        """Look up an address; allocate on miss (LRU victim)."""
        if address < 0:
            raise OperationError("addresses are non-negative")
        tag = self._tag_of(address)
        line = self._probe(tag)
        if line is not None:
            self.hits += 1
            self._touch(line)
            return AccessResult(hit=True, line=line)
        self.misses += 1
        victim = self._lru[0]
        evicted = self._tags[victim]
        self._tags[victim] = tag
        if evicted is None:
            # Line index doubles as key and priority: hit detection
            # returns the lowest matching line, like the raw-row search.
            self._store.insert(self._tag_word(tag), key=victim,
                               priority=victim)
        else:
            self._store.update(victim, self._tag_word(tag))
        self._touch(victim)
        return AccessResult(hit=False, line=victim, evicted_tag=evicted)

    def contains(self, address: int) -> bool:
        """Non-allocating membership probe (still fires a tag search)."""
        if address < 0:
            raise OperationError("addresses are non-negative")
        return self._probe(self._tag_of(address)) is not None

    def contains_batch(self, addresses: Sequence[int]) -> List[bool]:
        """Vectorized membership probe for a batch of addresses."""
        for address in addresses:
            if address < 0:
                raise OperationError("addresses are non-negative")
        if not addresses:
            return []
        tags = [self._tag_of(address) for address in addresses]
        results = self._store.search_batch(
            [self._tag_word(tag) for tag in tags])
        return [r.best is not None and self._tags[r.best.key] == tag
                for tag, r in zip(tags, results)]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def energy_spent(self) -> float:
        return self._store.stats.energy_total

    @property
    def store_stats(self) -> StoreStats:
        """Full telemetry of the backing tag store."""
        return self._store.stats
