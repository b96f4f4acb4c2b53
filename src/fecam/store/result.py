"""The store's uniform result model.

Every backend answers every workload with the same shapes:

* :class:`Query` — what to search (bits plus an optional global mask);
* :class:`Match` — one stored entry that matched, with its placement
  (the fabric's own entry record, re-exported here);
* :class:`QueryResult` — the priority-ordered matches of one query plus
  the energy/latency actually paid to serve it;
* :class:`StoreStats` — cumulative store telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, List, Optional, Sequence, Tuple

from ..errors import TernaryValueError
from ..fabric.fabric import Match

__all__ = ["Query", "Match", "LazyMatches", "QueryResult", "StoreStats"]


@dataclass(frozen=True)
class Query:
    """One search request: fully-specified bits, optional global mask.

    ``mask`` is the classic TCAM global-masking register: positions
    marked '0' are excluded from the comparison for this query.
    """

    bits: str
    mask: Optional[str] = None

    @classmethod
    def coerce(cls, query: "Query | str") -> "Query":
        """Accept a plain bit-string wherever a Query is expected."""
        if isinstance(query, cls):
            return query
        if isinstance(query, str):
            return cls(bits=query)
        raise TernaryValueError(
            f"queries must be bit-strings or Query objects, "
            f"got {type(query).__name__}")


class LazyMatches(Sequence):
    """A frozen match list that materializes :class:`Match` objects on
    first access.

    Holds the per-match field tuples captured at freeze time (so later
    writes to the backend's live ``Match`` objects cannot leak in) and
    defers constructing ``Match`` instances until somebody actually
    looks: a served result that is only counted, or whose caller reads
    nothing beyond ``len()``, never pays the per-match object builds.
    """

    __slots__ = ("_rows", "_items")

    def __init__(self, rows: List[Tuple]):
        self._rows = rows          # (key, word, priority, bank, row,
        self._items: Optional[List[Match]] = None   # payload, seq)

    @classmethod
    def snapshot(cls, matches: Sequence[Match]) -> "LazyMatches":
        """Capture the field state of live matches without building
        detached ``Match`` objects yet."""
        return cls([(m.key, m.word, m.priority, m.bank, m.row,
                     m.payload, m.seq) for m in matches])

    def _materialize(self) -> List[Match]:
        items = self._items
        if items is None:
            items = [Match(*row) for row in self._rows]
            self._items = items
        return items

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self) -> Iterator[Match]:
        return iter(self._materialize())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyMatches):
            other = other._materialize()
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LazyMatches({self._materialize()!r})"


@dataclass
class QueryResult:
    """Priority-ordered matches of one query and what serving it cost.

    A cache hit reports ``energy == latency == 0.0`` (no array fired)
    and ``cached=True``, consistent with the store's cumulative energy
    not growing on hits.
    """

    query: Query
    matches: Sequence[Match] = field(default_factory=list)
    energy: float = 0.0    # J, summed over every bank that fired
    latency: float = 0.0   # s, worst bank (banks search in parallel)
    cached: bool = False

    def freeze(self) -> "QueryResult":
        """A frozen snapshot detached from the backend's live matches.

        Backends reuse live :class:`Match` objects (``update()``
        mutates word/payload in place), so anything that outlives the
        lock it was computed under must hold copies.  The snapshot is
        field tuples plus a :class:`LazyMatches` view — cheaper than
        cloning ``Match`` objects eagerly, with materialization paid
        only by results that are actually inspected.
        """
        return QueryResult(query=self.query,
                           matches=LazyMatches.snapshot(self.matches),
                           energy=self.energy, latency=self.latency,
                           cached=self.cached)

    @property
    def best(self) -> Optional[Match]:
        """Priority-encoder output: the best-priority match."""
        return self.matches[0] if self.matches else None

    @property
    def match_keys(self) -> List[Hashable]:
        return [match.key for match in self.matches]

    def __len__(self) -> int:
        return len(self.matches)

    def __bool__(self) -> bool:
        # A result with zero matches is still a real result.
        return True


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
