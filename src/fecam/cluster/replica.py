"""Reader-side fabric replica over an attached shared arena.

A worker process does not rebuild content — it *attaches*: the replica
wraps a real :class:`~fecam.fabric.TcamFabric` whose arena is
constructed over the shared mapping, so the exact fused batch kernel,
per-bank energy constants, and priority-encoder order of the
single-process path (:meth:`~fecam.fabric.TcamFabric.search_rows`) run
against the writer's bytes.  Bit-identical results are therefore a
structural property, not a reimplementation to keep in sync — the
cross-process conformance battery proves it.

The replica holds no entries.  The priority/seq/live columns that order
matches are shared like the planes, so a search ends at arena row ids;
the writer's process turns them into its own published entries.  Every
request runs under the arena seqlock: one consistent window yields one
``(generation, rows, offsets, energies, latencies)`` reply, torn
windows bust the replica's derived-plane memos and retry.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..fabric.fabric import TcamFabric
from ..fabric.shard import HashSharding
from ..store.config import StoreConfig
from .shm import SharedArena

__all__ = ["Replica"]


class Replica:
    """One process's read-only view of the cluster fabric."""

    def __init__(self, arena: SharedArena, config: StoreConfig, *,
                 read_timeout: float = 5.0):
        sharding = (HashSharding(config.banks)
                    if config.placement == "hash" else None)
        self.arena = arena
        self.read_timeout = read_timeout
        self.fabric = TcamFabric(
            banks=config.banks, rows_per_bank=config.rows_per_bank,
            width=config.width, design=config.design, sharding=sharding,
            energy_model=config.resolve_energy_model(),
            arena=arena.planes())

    def _refresh(self) -> int:
        """Key the local memos to the published generation.

        The planes change under this process without a local write, so
        the planes generation is moved to the published one: derived
        planes and step-1 indexes re-key (they compare generations).
        """
        generation = self.arena.generation
        self.fabric.arena.generation = generation
        return generation

    def _bust(self) -> None:
        """Discard anything cached during a torn window."""
        self.fabric.arena.forget()

    def serve_search(self, queries: Sequence[str],
                     mask: Optional[str] = None
                     ) -> Tuple[int, List[int], List[int], List[float],
                                List[float]]:
        """One consistent search: ``(generation, rows, offsets,
        energies, latencies)``, query ``i`` matching arena rows
        ``rows[offsets[i]:offsets[i + 1]]`` in priority order.

        The whole batch runs inside a single seqlock window, so every
        query of the response was answered at exactly the tagged
        generation — the invariant the cross-process snapshot-isolation
        stress test replays against.
        """
        def attempt():
            return (self._refresh(),
                    *self.fabric.search_rows(list(queries), mask))
        generation, rows, offsets, energies, latencies = \
            self.arena.read_consistent(attempt, timeout=self.read_timeout,
                                       on_retry=self._bust)
        return generation, rows.tolist(), offsets, energies, latencies

    def telemetry(self) -> Dict[str, Any]:
        fabric = self.fabric
        return {
            "pid": os.getpid(),
            "generation": self.arena.generation,
            "searches": fabric._searches,
            "energy": sum(b.cam.energy_spent for b in fabric.banks),
            "rows_examined": int(fabric._rows_examined.sum()),
            "step1_eliminated": int(fabric._step1_eliminated.sum()),
            "worst_latency": fabric._worst_latency,
            "occupancy": int(fabric._row_live.sum()),
        }
