"""The store's uniform result model.

Every backend answers every workload with the same shapes:

* :class:`Query` — what to search (bits plus an optional global mask);
* :class:`Match` — one stored entry that matched, with its placement
  (the fabric's own entry record, re-exported here).  A ``Match`` is a
  snapshot: a write replaces the entry's record rather than mutating
  it;
* :class:`QueryResult` — the priority-ordered matches of one query plus
  the energy/latency actually paid to serve it;
* :class:`StoreStats` — cumulative store telemetry.

The first three are defined with the fabric
(:mod:`fecam.fabric.result`), whose batch search builds them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fabric.result import Match, Query, QueryResult

__all__ = ["Query", "Match", "QueryResult", "StoreStats"]


@dataclass
class StoreStats:
    """Cumulative telemetry of one :class:`~fecam.store.CamStore`."""

    backend: str            # "fabric" | "cluster"
    banks: int
    width: int
    capacity: int           # total rows
    occupancy: int          # live entries
    searches: int           # queries answered, including cache hits
    array_searches: int     # queries that actually fired the arrays
    writes: int             # insert/update/delete operations
    energy_total: float     # J spent by the arrays (searches + writes)
    worst_latency: float    # s, worst single-query latency observed
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
