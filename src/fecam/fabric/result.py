"""The search result model every tier returns (re-exported by
:mod:`fecam.store.result`): :class:`Match`, :class:`Query`,
:class:`QueryResult`, and :class:`BatchMatches`, the columnar batch
result that a batch search's per-query results are views over.

A published :class:`Match` is never mutated (a write replaces it), so a
result is a snapshot as soon as its matches are resolved, and
:meth:`QueryResult.freeze` copies nothing but the match list."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Any, Hashable, List, Optional, Sequence, Tuple

from ..errors import TernaryValueError

__all__ = ["Match", "Query", "QueryResult", "BatchMatches"]

_KEY = attrgetter("key")


@dataclass
class Match:
    """One stored entry and where the fabric placed it — the single
    record the fabric stores and every search (fabric, store, served)
    returns.

    Once the fabric has published a ``Match`` it is never mutated: a
    write replaces it with a new object, so a result keeps naming what
    it matched.  Re-read an entry's current state with ``get()``."""

    key: Hashable
    word: str
    priority: float
    bank: int
    row: int
    payload: Any = None
    seq: int = 0  # insertion tiebreak for equal priorities

    @property
    def sort_key(self) -> Tuple[float, int]:
        return (self.priority, self.seq)


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


@dataclass(slots=True)
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
        """A snapshot safe to hand past the lock it was computed under.

        Published :class:`Match` objects are never mutated, so copying
        the match list (which a caller may mutate) is all it takes.
        """
        return QueryResult(self.query, list(self.matches), self.energy,
                           self.latency, self.cached)

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


class _BatchView(QueryResult):
    """One query of a :class:`BatchMatches`: ``query``, ``matches`` and
    ``match_keys`` are built from the batch on first read."""

    __slots__ = ("_batch", "_index", "_query", "_matches")

    def __init__(self, batch: "BatchMatches", index: int, energy: float,
                 latency: float):
        self._query: Optional[Query] = None
        self._matches: Optional[Sequence[Match]] = None
        self._batch = batch
        self._index = index
        self.energy = energy
        self.latency = latency
        self.cached = False

    @property
    def query(self) -> Query:
        query = self._query
        if query is None:
            batch = self._batch
            query = self._query = Query(batch.bits[self._index], batch.mask)
        return query

    @query.setter
    def query(self, query: Query) -> None:
        self._query = query

    @property
    def matches(self) -> Sequence[Match]:
        matches = self._matches
        if matches is None:
            offsets = self._batch.offsets
            i = self._index
            matches = self._matches = \
                self._batch.entries[offsets[i]:offsets[i + 1]]
        return matches

    @matches.setter
    def matches(self, matches: Sequence[Match]) -> None:
        self._matches = matches

    def freeze(self) -> "QueryResult":
        """Already a snapshot: the batch's entries never change, and
        ``matches`` is a fresh slice per view."""
        return self

    @property
    def match_keys(self) -> List[Hashable]:
        if self._matches is not None:  # already read, or reassigned
            return [match.key for match in self._matches]
        batch = self._batch
        keys = batch.keys
        if keys is None:  # one pass over the whole batch, on first read
            keys = batch.keys = list(map(_KEY, batch.entries))
        i = self._index
        return keys[batch.offsets[i]:batch.offsets[i + 1]]


class BatchMatches:
    """One batch search's matches in columnar form: every matched
    :class:`Match`, grouped by query in priority order, query ``i``
    owning ``entries[offsets[i]:offsets[i + 1]]``.  Entries are resolved
    from arena rows under the search's read lock, so a later update or
    delete, or an insert reusing a row, cannot change what a result
    names."""

    __slots__ = ("bits", "mask", "entries", "offsets", "keys")

    def __init__(self, bits: List[str], mask: Optional[str],
                 entries: List[Match], offsets: List[int]):
        self.bits = bits
        self.mask = mask
        self.entries = entries
        self.offsets = offsets
        self.keys: Optional[List[Hashable]] = None

    def results(self, energies: Sequence[float],
                latencies: Sequence[float]) -> List[QueryResult]:
        """One :class:`QueryResult` view per query, in batch order."""
        n = len(self.bits)
        return list(map(_BatchView, repeat(self, n), range(n), energies,
                        latencies))
