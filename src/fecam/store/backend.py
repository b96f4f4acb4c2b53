"""The :class:`SearchBackend` contract every store backend satisfies.

A backend owns physical storage (a fabric of banks — in this process
for :class:`~fecam.store.FabricBackend`, behind worker processes for
:class:`~fecam.cluster.ClusterBackend`) and answers batch searches; all
policy above raw storage — key allocation, priorities, query caching,
telemetry aggregation — lives in the :class:`~fecam.store.CamStore`
facade, so backends stay thin.  Words and queries arrive canonicalized
('01X' / '01' strings of exactly ``width`` symbols); backends never
normalize.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable, List, Optional, Sequence

from ..errors import OperationError
from .config import StoreConfig
from .result import Match, QueryResult

__all__ = ["SearchBackend"]


class SearchBackend(ABC):
    """Uniform storage + batch-search interface over one or many banks."""

    #: Short backend identifier, reported in :class:`StoreStats`.
    name: str = "abstract"

    def __init__(self, config: StoreConfig):
        if config.width is None or config.rows is None:
            raise OperationError(
                "backends need a resolved StoreConfig (width and rows)")
        self.config = config

    # -- layout ------------------------------------------------------------------

    @property
    def width(self) -> int:
        return self.config.width

    @property
    @abstractmethod
    def capacity(self) -> int:
        """Total rows this backend can hold."""

    @property
    @abstractmethod
    def occupancy(self) -> int:
        """Live entries currently stored."""

    @property
    @abstractmethod
    def energy_total(self) -> float:
        """Cumulative J spent by the arrays (searches and writes)."""

    # -- content lifecycle -------------------------------------------------------

    @abstractmethod
    def insert(self, word: str, key: Hashable, priority: float,
               payload: Any, seq: int) -> Match:
        """Store one canonical word; returns its :class:`Match` handle."""

    @abstractmethod
    def insert_many(self, words: Sequence[str], keys: Sequence[Hashable],
                    priorities: Sequence[float], payloads: Sequence[Any],
                    seqs: Sequence[int]) -> List[Match]:
        """Bulk store through the vectorized packer (atomic: validates
        capacity and every word before any row is written)."""

    @abstractmethod
    def delete(self, key: Hashable) -> Match:
        """Remove an entry; its row returns to the free pool."""

    @abstractmethod
    def update(self, key: Hashable, word: str,
               payload: Any = None) -> Match:
        """Rewrite an entry's word; returns the new :class:`Match` that
        replaces the published one (placement/priority kept)."""

    @abstractmethod
    def get(self, key: Hashable) -> Match:
        """The entry stored under ``key`` (raises on missing keys)."""

    @abstractmethod
    def entries(self) -> List[Match]:
        """All live entries in global priority order."""

    @abstractmethod
    def __contains__(self, key: Hashable) -> bool: ...

    # -- search ------------------------------------------------------------------

    @abstractmethod
    def search_batch(self, queries: Sequence[str],
                     mask: Optional[str] = None) -> List[QueryResult]:
        """Search canonical binary queries; one result per query, in
        order, with matches in global priority order and exact
        energy/latency accounting (never cached at this layer)."""
