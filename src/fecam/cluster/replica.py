"""Reader-side fabric replica over an attached shared arena.

A worker process does not rebuild content — it *attaches*: the replica
wraps a real :class:`~fecam.fabric.TcamFabric` whose arena is
constructed over the shared mapping, so the exact fused batch kernel,
per-bank energy constants, and priority-encoder merge of the
single-process path run against the writer's bytes.  Bit-identical
results are therefore a structural property, not a reimplementation to
keep in sync — the cross-process conformance battery proves it.

What the writer cannot share through the planes — the placement table
mapping arena rows back to entries — rides in the arena's metadata
blob and is re-read (memoized by generation) whenever the published
generation moves.  Every request runs under the arena seqlock:
one consistent window yields one ``(generation, results)`` pair, torn
windows bust the replica's derived-plane memos and retry.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..fabric.fabric import Match, TcamFabric
from ..fabric.shard import HashSharding
from ..store.config import StoreConfig
from .shm import SharedArena

__all__ = ["Replica"]

#: Wire row for one match: the fields of a :class:`Match`, in order.
WireMatch = Tuple[Hashable, str, float, int, int, Any, int]


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
        self._meta_generation = -1

    # -- refresh -----------------------------------------------------------------

    def _refresh(self) -> int:
        """Sync entry metadata + memo keys to the published generation."""
        generation = self.arena.generation
        if generation != self._meta_generation:
            blob = self.arena.read_meta()
            placements = pickle.loads(blob) if blob else []
            self.fabric.load_entries(
                [Match(key=key, word=word, priority=priority, bank=bank,
                       row=row, payload=payload, seq=seq)
                 for key, word, priority, payload, seq, bank, row
                 in placements])
            # Planes content changed under us: move the local planes
            # generation to the published one so derived-plane and
            # step-1-index memos re-key (they compare generations).
            self.fabric.arena.generation = generation
            self._meta_generation = generation
        return generation

    def _bust(self) -> None:
        """Discard anything cached during a torn window."""
        self.fabric.arena.forget()
        self._meta_generation = -1

    # -- serving -----------------------------------------------------------------

    def serve_search(self, queries: Sequence[str],
                     mask: Optional[str] = None
                     ) -> Tuple[int, List[List[WireMatch]],
                                List[float], List[float]]:
        """One consistent search: ``(generation, matches, energies,
        latencies)`` with all three lists aligned to ``queries``.

        The whole batch runs inside a single seqlock window, so every
        query of the response was answered at exactly the tagged
        generation — the invariant the cross-process snapshot-isolation
        stress test replays against.
        """
        def attempt():
            generation = self._refresh()
            return generation, self.fabric.search_normalized(
                list(queries), mask)
        generation, raw = self.arena.read_consistent(
            attempt, timeout=self.read_timeout, on_retry=self._bust)
        matches = [
            [(e.key, e.word, e.priority, e.bank, e.row, e.payload, e.seq)
             for e in r.matches] for r in raw]
        return (generation, matches,
                [r.energy for r in raw], [r.latency for r in raw])

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
            "occupancy": fabric.occupancy,
        }
