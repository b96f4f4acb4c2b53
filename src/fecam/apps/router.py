"""Longest-prefix-match IP routing on the associative store — the
paper's classic network-router motivation (Sec. I).

Prefixes map naturally onto ternary words (the host bits become 'X');
longest-prefix-match priority is realized by storing routes in
descending-prefix-length priority order, so the store's priority encoder
returns the most specific route — exactly how commercial router TCAMs
operate.  The table lives in a :class:`~fecam.store.CamStore`, so one
config (``store_config=StoreConfig(banks=..., cache_size=...)``) scales
it from a single bank to a sharded multi-bank fabric with batched
lookups and query caching.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import OperationError
from ..service import SearchService, ServiceStats
from ..store import CamStore, StoreConfig, StoreStats

__all__ = ["Route", "ServedRouter", "TcamRouter", "parse_cidr",
           "ip_to_int", "int_to_ip"]


def ip_to_int(address: str) -> int:
    parts = address.split(".")
    if len(parts) != 4:
        raise OperationError(f"invalid IPv4 address {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise OperationError(f"invalid IPv4 octet in {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_cidr(cidr: str) -> Tuple[int, int]:
    """Parse 'a.b.c.d/len' into (network_int, prefix_len)."""
    try:
        address, _, length_str = cidr.partition("/")
        length = int(length_str) if length_str else 32
    except ValueError:
        raise OperationError(f"invalid CIDR {cidr!r}") from None
    if not 0 <= length <= 32:
        raise OperationError(f"invalid prefix length in {cidr!r}")
    network = ip_to_int(address)
    if length < 32:
        network &= ~((1 << (32 - length)) - 1)
    return network, length


@dataclass(frozen=True)
class Route:
    network: int
    prefix_len: int
    next_hop: str

    def ternary_word(self) -> str:
        bits = format(self.network, "032b")
        return bits[:self.prefix_len] + "X" * (32 - self.prefix_len)

    def covers(self, address: int) -> bool:
        if self.prefix_len == 0:
            return True
        shift = 32 - self.prefix_len
        return (address >> shift) == (self.network >> shift)


class ServedRouter:
    """Concurrent LPM front door over one routing-table snapshot.

    Handed out by :meth:`TcamRouter.serve`; wraps the table's
    :class:`~fecam.service.SearchService` with address-level lookups.
    Thread-safe: call :meth:`lookup` from any number of threads, or
    :meth:`alookup` from coroutines.
    """

    def __init__(self, service: SearchService):
        self.service = service

    @staticmethod
    def _query(address: str) -> str:
        return format(ip_to_int(address), "032b")

    def lookup(self, address: str) -> Optional[str]:
        """Blocking concurrent LPM; returns the next hop (or None)."""
        best = self.service.search(self._query(address)).best
        return best.payload.next_hop if best is not None else None

    def lookup_batch(self, addresses: Sequence[str]) -> List[Optional[str]]:
        """Submit a burst; the dispatcher fuses it into batch searches."""
        served = self.service.search_many(
            [self._query(address) for address in addresses])
        return [s.best.payload.next_hop if s.best is not None else None
                for s in served]

    async def alookup(self, address: str) -> Optional[str]:
        """``asyncio`` LPM front door."""
        served = await self.service.asearch(self._query(address))
        best = served.best
        return best.payload.next_hop if best is not None else None

    @property
    def stats(self) -> ServiceStats:
        return self.service.stats


class TcamRouter:
    """An IPv4 forwarding table backed by a :class:`CamStore`.

    Routes are stored in descending-prefix-length priority order so the
    store's priority encoder returns the longest (most specific)
    prefix.  The backing layout (banks, design, query cache) comes from
    ``store_config``.

    >>> router = TcamRouter(capacity=16)
    >>> router.add_route("10.0.0.0/8", "coarse")
    >>> router.add_route("10.1.0.0/16", "fine")
    >>> router.lookup("10.1.2.3")
    'fine'
    """

    def __init__(self, capacity: int = 1024, *,
                 store_config: Optional[StoreConfig] = None):
        self.capacity = capacity
        self.store_config = store_config or StoreConfig()
        self._routes: List[Route] = []
        self._store: Optional[CamStore] = None
        self._dirty = True

    # -- table management -----------------------------------------------------------

    def add_route(self, cidr: str, next_hop: str) -> Route:
        if len(self._routes) >= self.capacity:
            raise OperationError("routing table full")
        network, length = parse_cidr(cidr)
        route = Route(network=network, prefix_len=length, next_hop=next_hop)
        # Replace an identical prefix if present.
        self._routes = [r for r in self._routes
                        if (r.network, r.prefix_len) != (network, length)]
        self._routes.append(route)
        self._dirty = True
        return route

    def remove_route(self, cidr: str) -> bool:
        network, length = parse_cidr(cidr)
        before = len(self._routes)
        self._routes = [r for r in self._routes
                        if (r.network, r.prefix_len) != (network, length)]
        self._dirty = self._dirty or len(self._routes) != before
        return len(self._routes) != before

    def __len__(self) -> int:
        return len(self._routes)

    def _rebuild(self) -> None:
        # Longest prefixes first => priority encoder returns LPM; the
        # store stripes rows round-robin for balanced bank occupancy.
        self._routes.sort(key=lambda r: (-r.prefix_len, r.network))
        self._store = CamStore(self.store_config.with_geometry(
            width=32, rows=max(len(self._routes), 1)))
        if self._routes:
            self._store.insert_many(
                [route.ternary_word() for route in self._routes],
                keys=[(route.network, route.prefix_len)
                      for route in self._routes],
                priorities=list(range(len(self._routes))),
                payloads=self._routes)
        self._dirty = False

    # -- lookups ---------------------------------------------------------------------

    def lookup(self, address: str) -> Optional[str]:
        """TCAM longest-prefix-match lookup; returns the next hop."""
        route = self.lookup_route(address)
        return route.next_hop if route else None

    def lookup_route(self, address: str) -> Optional[Route]:
        if not self._routes:
            return None
        if self._dirty:
            self._rebuild()
        match = self._store.search_first(
            format(ip_to_int(address), "032b"))
        return match.payload if match is not None else None

    def lookup_batch(self, addresses: Sequence[str]) -> List[Optional[str]]:
        """Vectorized LPM for a batch of addresses (one store pass)."""
        if not self._routes:
            return [None] * len(addresses)
        if self._dirty:
            self._rebuild()
        queries = [format(ip_to_int(a), "032b") for a in addresses]
        results = self._store.search_batch(queries)
        return [r.best.payload.next_hop if r.best is not None else None
                for r in results]

    @contextmanager
    def serve(self, **service_kwargs) -> "Iterator[ServedRouter]":
        """Serve this table to concurrent callers through the service tier.

        Builds (or reuses) the backing store and wraps it in a
        :class:`~fecam.service.SearchService`, so many threads — or
        ``asyncio`` coroutines — look up addresses concurrently and
        their requests coalesce into fused batch searches.  The served
        table is the route set at entry: route edits made while serving
        take effect on the next ``serve()`` (the store is rebuilt),
        matching how production routers swap whole FIB snapshots.

        While serving, the :class:`ServedRouter` is the only supported
        access path to the table: the service's reader-writer lock
        covers dispatches and service writes, not this router's own
        ``lookup()``/``stats`` entry points, so direct calls on the
        router from another thread race the dispatcher on the shared
        store (query-cache mutation, torn reads past service writes).

        >>> router = TcamRouter(capacity=16)
        >>> router.add_route("10.0.0.0/8", "core")
        >>> with router.serve() as served:
        ...     served.lookup("10.1.2.3")
        'core'
        """
        if self._dirty or self._store is None:
            self._rebuild()
        service = SearchService(self._store, **service_kwargs)
        try:
            yield ServedRouter(service)
        finally:
            service.close()

    def lookup_reference(self, address: str) -> Optional[str]:
        """Pure-software LPM (specification for tests)."""
        value = ip_to_int(address)
        best: Optional[Route] = None
        for route in self._routes:
            if route.covers(value):
                if best is None or route.prefix_len > best.prefix_len:
                    best = route
        return best.next_hop if best else None

    @property
    def store_stats(self) -> Optional[StoreStats]:
        """Full telemetry of the backing store (None before first build)."""
        return self._store.stats if self._store is not None else None

    @property
    def stats(self) -> Dict[str, float]:
        if self._store is None:
            return {"searches": 0, "energy_j": 0.0, "banks": self.store_config.banks,
                    "cache_hits": 0}
        stats = self._store.stats
        return {"searches": stats.searches,
                "energy_j": stats.energy_total,
                "banks": stats.banks,
                "cache_hits": stats.cache_hits}
