"""Packet classification with range-to-ternary expansion.

Firewall/QoS rules mix prefixes (addresses) with numeric ranges (ports).
TCAMs store only ternary words, so ranges are expanded into the minimal
set of prefix words (the classic O(2w) expansion); each logical rule may
occupy several TCAM rows.  Priority = rule insertion order, mapped to row
order so the priority encoder returns the highest-priority hit.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import OperationError
from ..service import SearchService, ServiceStats
from ..store import CamStore, StoreConfig, StoreStats

__all__ = ["range_to_prefixes", "Rule", "Packet", "ServedClassifier",
           "TcamClassifier"]


def range_to_prefixes(lo: int, hi: int, width: int) -> List[str]:
    """Minimal prefix cover of the integer range [lo, hi].

    Returns ternary words of ``width`` bits.  This is the standard TCAM
    range-expansion: worst case 2*width - 2 prefixes (e.g. [1, 2^w - 2]).
    """
    if lo > hi:
        raise OperationError(f"empty range [{lo}, {hi}]")
    if lo < 0 or hi >= (1 << width):
        raise OperationError(f"range [{lo}, {hi}] exceeds {width} bits")
    prefixes: List[str] = []

    def cover(lo_: int, hi_: int) -> None:
        if lo_ > hi_:
            return
        # Largest aligned block starting at lo_ that fits in [lo_, hi_].
        size = 1
        while True:
            next_size = size * 2
            if lo_ % next_size != 0 or lo_ + next_size - 1 > hi_:
                break
            size = next_size
        bits = width - size.bit_length() + 1
        if bits == 0:
            prefix = ""  # the block covers the whole space: all wildcards
        else:
            prefix = format(lo_ >> (width - bits), f"0{bits}b")
        prefixes.append(prefix + "X" * (width - bits))
        cover(lo_ + size, hi_)

    cover(lo, hi)
    return prefixes


@dataclass(frozen=True)
class Packet:
    """The 5-tuple-ish header the classifier matches on."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int

    def key_bits(self) -> str:
        return (format(self.src_ip, "032b") + format(self.dst_ip, "032b")
                + format(self.src_port, "016b") + format(self.dst_port, "016b")
                + format(self.protocol, "08b"))


@dataclass
class Rule:
    """One classification rule; ranges expand to multiple TCAM rows."""

    name: str
    src_prefix: Tuple[int, int] = (0, 0)  # (network, prefix_len)
    dst_prefix: Tuple[int, int] = (0, 0)
    src_port_range: Tuple[int, int] = (0, 65535)
    dst_port_range: Tuple[int, int] = (0, 65535)
    protocol: Optional[int] = None  # None = any

    def _prefix_word(self, prefix: Tuple[int, int]) -> str:
        network, length = prefix
        bits = format(network, "032b")
        return bits[:length] + "X" * (32 - length)

    def ternary_words(self) -> List[str]:
        """Cartesian product of the field expansions."""
        src = self._prefix_word(self.src_prefix)
        dst = self._prefix_word(self.dst_prefix)
        sports = range_to_prefixes(*self.src_port_range, width=16)
        dports = range_to_prefixes(*self.dst_port_range, width=16)
        proto = ("X" * 8 if self.protocol is None
                 else format(self.protocol, "08b"))
        return [src + dst + sp + dp + proto for sp in sports for dp in dports]

    def matches(self, packet: Packet) -> bool:
        """Reference (non-TCAM) semantics for verification."""
        def prefix_ok(value, prefix):
            network, length = prefix
            if length == 0:
                return True
            shift = 32 - length
            return value >> shift == network >> shift

        return (prefix_ok(packet.src_ip, self.src_prefix)
                and prefix_ok(packet.dst_ip, self.dst_prefix)
                and self.src_port_range[0] <= packet.src_port <= self.src_port_range[1]
                and self.dst_port_range[0] <= packet.dst_port <= self.dst_port_range[1]
                and (self.protocol is None or packet.protocol == self.protocol))


class ServedClassifier:
    """Concurrent classification front door over one rule-set snapshot.

    Handed out by :meth:`TcamClassifier.serve`.  Thread-safe:
    :meth:`classify` from any number of threads, :meth:`aclassify`
    from coroutines; concurrent packets coalesce into fused batch
    searches over the expanded rule rows.
    """

    def __init__(self, classifier: "TcamClassifier",
                 service: SearchService):
        self._rules = list(classifier.rules)  # snapshot for name lookup
        self.service = service

    def _name_of(self, served) -> Optional[str]:
        best = served.best
        return self._rules[best.payload].name if best is not None else None

    def classify(self, packet: Packet) -> Optional[str]:
        """Blocking concurrent classification; highest-priority rule name."""
        return self._name_of(self.service.search(packet.key_bits()))

    def classify_batch(self, packets: Sequence[Packet]
                       ) -> List[Optional[str]]:
        """Submit a burst; the dispatcher fuses it into batch searches."""
        served = self.service.search_many(
            [packet.key_bits() for packet in packets])
        return [self._name_of(s) for s in served]

    async def aclassify(self, packet: Packet) -> Optional[str]:
        """``asyncio`` classification front door."""
        return self._name_of(await self.service.asearch(packet.key_bits()))

    @property
    def stats(self) -> ServiceStats:
        return self.service.stats


class TcamClassifier:
    """Priority packet classifier over a 104-bit TCAM key.

    Backed by a :class:`CamStore`: the expanded rule rows stripe
    round-robin over the configured banks (priority = expansion order,
    so the cross-bank encoder preserves first-rule-wins semantics), and
    packet batches classify through the vectorized search path.
    """

    KEY_WIDTH = 32 + 32 + 16 + 16 + 8

    def __init__(self, capacity_rows: int = 4096, *,
                 store_config: Optional[StoreConfig] = None):
        self.capacity_rows = capacity_rows
        self.store_config = store_config or StoreConfig()
        self.rules: List[Rule] = []
        self._rows_used = 0  # running expansion count (capacity check)
        self._store: Optional[CamStore] = None
        self._dirty = True

    def add_rule(self, rule: Rule) -> int:
        """Append a rule (lower index = higher priority); returns the
        number of TCAM rows it expands to."""
        words = rule.ternary_words()
        if self._rows_used + len(words) > self.capacity_rows:
            raise OperationError("classifier TCAM capacity exceeded")
        self.rules.append(rule)
        self._rows_used += len(words)
        self._dirty = True
        return len(words)

    def _rebuild(self) -> None:
        rows: List[Tuple[str, int]] = []
        for idx, rule in enumerate(self.rules):
            for word in rule.ternary_words():
                rows.append((word, idx))
        self._store = CamStore(self.store_config.with_geometry(
            width=self.KEY_WIDTH, rows=max(len(rows), 1)))
        if rows:
            self._store.insert_many(
                [word for word, _ in rows],
                keys=list(range(len(rows))),
                priorities=list(range(len(rows))),
                payloads=[idx for _, idx in rows])
        self._rows_used = len(rows)
        self._dirty = False

    @property
    def rows_used(self) -> int:
        # add_rule keeps the expansion count in sync; no rebuild needed.
        return self._rows_used

    def classify(self, packet: Packet) -> Optional[str]:
        """Highest-priority rule name matching the packet, or None."""
        if not self.rules:
            return None
        if self._dirty:
            self._rebuild()
        match = self._store.search_first(packet.key_bits())
        if match is None:
            return None
        return self.rules[match.payload].name

    def classify_batch(self, packets: Sequence[Packet]) -> List[Optional[str]]:
        """Vectorized classification of a packet batch (one store pass)."""
        if not self.rules:
            return [None] * len(packets)
        if self._dirty:
            self._rebuild()
        results = self._store.search_batch(
            [p.key_bits() for p in packets])
        return [self.rules[r.best.payload].name if r.best is not None
                else None for r in results]

    @contextmanager
    def serve(self, **service_kwargs) -> "Iterator[ServedClassifier]":
        """Serve this rule set to concurrent callers via the service tier.

        Builds (or reuses) the backing store and wraps it in a
        :class:`~fecam.service.SearchService`.  The served rule set is
        a snapshot: rules added while serving take effect on the next
        ``serve()``, when the store is rebuilt.

        While serving, the :class:`ServedClassifier` is the only
        supported access path: the service's reader-writer lock covers
        dispatches and service writes, not this classifier's own
        ``classify()``/``store_stats`` entry points, so direct calls
        from another thread race the dispatcher on the shared store.
        """
        if self._dirty or self._store is None:
            self._rebuild()
        service = SearchService(self._store, **service_kwargs)
        try:
            yield ServedClassifier(self, service)
        finally:
            service.close()

    def classify_reference(self, packet: Packet) -> Optional[str]:
        for rule in self.rules:
            if rule.matches(packet):
                return rule.name
        return None

    @property
    def store_stats(self) -> Optional[StoreStats]:
        """Full telemetry of the backing store (None before first build)."""
        return self._store.stats if self._store is not None else None
