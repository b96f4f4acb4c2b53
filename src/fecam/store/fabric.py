"""Fabric backend: a sharded multi-bank :class:`TcamFabric` behind the
store API.

The one in-process storage path: a one-bank store is a one-bank fabric,
and scaling past it is a config edit.  The fabric broadcasts every
query to all banks, merges matches with cross-bank priority-encoder
semantics, and sums energy / maxes latency exactly as parallel hardware
banks would.  It also owns every stored entry — the :class:`Match`
records it keeps are the ones searches return — so this backend holds
no key map of its own; query caching lives one level up, in the store
facade.
"""

from __future__ import annotations

from typing import Any, Hashable, List, Optional, Sequence

from ..fabric.fabric import Match, TcamFabric
from ..fabric.shard import HashSharding
from ..planes import TernaryPlanes
from .backend import SearchBackend
from .config import StoreConfig
from .result import QueryResult

__all__ = ["FabricBackend"]


class FabricBackend(SearchBackend):
    """Store backend over a sharded multi-bank TCAM fabric."""

    name = "fabric"

    def __init__(self, config: StoreConfig, *,
                 arena: Optional[TernaryPlanes] = None):
        super().__init__(config)
        sharding = (HashSharding(config.banks)
                    if config.placement == "hash" else None)
        # ``arena`` threads the planes-over-foreign-buffers seam through
        # to the fabric so `fecam.cluster` can build the writer-side
        # backend directly atop a shared-memory mapping.
        self.fabric = TcamFabric(
            banks=config.banks, rows_per_bank=config.rows_per_bank,
            width=config.width, design=config.design, sharding=sharding,
            energy_model=config.resolve_energy_model(), arena=arena)

    # -- durable restore ----------------------------------------------------------

    def _adopt_placements(self, placements, *, write: bool) -> None:
        self.fabric.adopt_entries(
            [Match(key=key, word=word, priority=priority, bank=bank,
                   row=row, payload=payload, seq=seq)
             for key, word, priority, payload, seq, bank, row
             in placements], write=write)

    @classmethod
    def from_placements(cls, config: StoreConfig, placements, *,
                        arena: Optional[TernaryPlanes] = None
                        ) -> "FabricBackend":
        """Rebuild a backend by writing words at recorded bank/row slots.

        ``placements`` rows of ``(key, word, priority, payload, seq,
        bank, row)`` — the WAL reshard-record payload — go through
        :meth:`TcamFabric.adopt_entries`, so replay reproduces the live
        placement bit-for-bit instead of re-running the allocator.
        """
        backend = cls(config, arena=arena)
        backend._adopt_placements(placements, write=True)
        return backend

    @classmethod
    def from_snapshot(cls, config: StoreConfig, planes_state,
                      placements, *,
                      arena: Optional[TernaryPlanes] = None
                      ) -> "FabricBackend":
        """Rebuild a backend from a serialized arena plus the entry map
        (the snapshot-restore path: the contiguous arena loads
        wholesale, then allocators and key maps are rebuilt around
        it).  With ``arena=`` the load lands in caller-owned (shared)
        buffers — how a recovered store's content enters a cluster."""
        backend = cls(config, arena=arena)
        value, care, valid = planes_state
        backend.fabric.arena.load(value, care, valid)
        backend._adopt_placements(placements, write=False)
        return backend

    def _bank_for(self, seq: int) -> Optional[int]:
        # Striped placement overrides the fabric's hash sharding with
        # round-robin-by-insertion-order (balanced occupancy; one bank
        # fills rows in insertion order).
        if self.config.placement == "striped":
            return seq % self.config.banks
        return None

    # -- layout ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.fabric.capacity

    @property
    def occupancy(self) -> int:
        return self.fabric.occupancy

    @property
    def energy_total(self) -> float:
        return sum(bank.cam.energy_spent for bank in self.fabric.banks)

    # -- content lifecycle -------------------------------------------------------

    def insert(self, word: str, key: Hashable, priority: float,
               payload: Any, seq: int) -> Match:
        return self.fabric.insert(word, key=key, priority=priority,
                                  payload=payload,
                                  bank=self._bank_for(seq), seq=seq)

    def insert_many(self, words: Sequence[str], keys: Sequence[Hashable],
                    priorities: Sequence[float], payloads: Sequence[Any],
                    seqs: Sequence[int]) -> List[Match]:
        banks = ([self._bank_for(seq) for seq in seqs]
                 if self.config.placement == "striped" else None)
        return self.fabric.insert_many(words, keys=keys,
                                       priorities=priorities,
                                       payloads=payloads, banks=banks,
                                       seqs=seqs)

    def delete(self, key: Hashable) -> Match:
        return self.fabric.delete(key)

    def update(self, key: Hashable, word: str,
               payload: Any = None) -> Match:
        return self.fabric.update(key, word, payload=payload)

    def get(self, key: Hashable) -> Match:
        return self.fabric.entry(key)

    def entries(self) -> List[Match]:
        return self.fabric.entries()

    def __contains__(self, key: Hashable) -> bool:
        return key in self.fabric

    # -- search ------------------------------------------------------------------

    def search_batch(self, queries: Sequence[str],
                     mask: Optional[str] = None) -> List[QueryResult]:
        return self.fabric.search_normalized(list(queries), mask)

    def __repr__(self) -> str:
        return (f"<FabricBackend {self.config.banks}x"
                f"{self.config.rows_per_bank}x{self.width} "
                f"({self.config.design}), {self.occupancy} entries>")
