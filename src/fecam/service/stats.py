"""Serving-tier telemetry: counters, batch histogram, latency tails.

:class:`ServiceStats` is an immutable snapshot a
:class:`~fecam.service.SearchService` produces on demand — safe to read
while the dispatcher keeps serving.  Latency percentiles come from a
bounded reservoir of the most recent request latencies (enqueue to
completion), so the p50/p99 track current behavior instead of averaging
over the whole process lifetime.
"""

from __future__ import annotations

import itertools
import math

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable

__all__ = ["LatencyReservoir", "ServiceStats"]


class LatencyReservoir:
    """Sliding window of the last ``capacity`` request latencies.

    ``percentile`` uses the nearest-rank method on a sorted copy; with
    the default window of a few thousand samples that is microseconds of
    work, paid only when a stats snapshot is requested.
    """

    def __init__(self, capacity: int = 4096):
        self._window: "deque[float]" = deque(maxlen=capacity)

    def record(self, latency: float) -> None:
        self._window.append(latency)

    def record_many(self, latency: float, count: int) -> None:
        """Record ``count`` requests that shared one ``latency``."""
        self._window.extend(itertools.repeat(latency, count))

    def __len__(self) -> int:
        return len(self._window)

    def snapshot(self) -> "tuple[float, ...]":
        return tuple(self._window)

    @staticmethod
    def percentile(sample: Iterable[float], p: float) -> float:
        """Nearest-rank percentile of ``sample`` (0.0 when empty).

        ``p`` is validated before any work happens, so a bad percentile
        raises even for empty or huge samples instead of sorting first.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        ordered = sorted(sample)
        if not ordered:
            return 0.0
        rank = max(int(math.ceil(p / 100.0 * len(ordered))), 1)
        return ordered[rank - 1]


@dataclass(frozen=True)
class ServiceStats:
    """One immutable snapshot of a service's cumulative telemetry.

    ``coalesced`` counts requests served by a dispatch batch that held
    more than one request (the micro-batcher paid off); ``direct``
    counts requests that dispatched alone.  ``coalesced_ratio`` is their
    normalized split — 1.0 means every request rode a fused batch.
    """

    submitted: int          # requests accepted into the queue
    served: int             # futures completed with a result
    failed: int             # futures completed with an exception
    overloads: int          # submissions rejected by backpressure
    queue_depth: int        # queries waiting right now
    max_queue_depth: int    # high-water mark of queue_depth
    batches: int            # dispatches issued to the store
    batch_size_hist: Dict[int, int] = field(default_factory=dict)
    coalesced: int = 0      # requests served in a batch of size > 1
    direct: int = 0         # requests served in a batch of size 1
    writes: int = 0         # write transactions applied via the service
    generation: int = 0     # store write-generation at snapshot time
    p50_latency: float = 0.0   # s, median request latency (window)
    p99_latency: float = 0.0   # s, tail request latency (window)
    latency_samples: int = 0   # how many latencies back the percentiles
    timestamp: float = 0.0     # wall clock when the snapshot was taken
    uptime_s: float = 0.0      # monotonic seconds since service start

    @property
    def mean_batch_size(self) -> float:
        total = sum(size * count
                    for size, count in self.batch_size_hist.items())
        return total / self.batches if self.batches else 0.0

    @property
    def coalesced_ratio(self) -> float:
        total = self.coalesced + self.direct
        return self.coalesced / total if total else 0.0

    @property
    def pending(self) -> int:
        """Requests accepted but not yet completed (either way)."""
        return self.submitted - self.served - self.failed

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe flat dict with an explicit, round-trippable schema.

        ``batch_size_hist`` is exported as a sorted list of
        ``{"size": int, "count": int}`` rows — ``json.dumps`` would
        silently stringify int dict keys, and the naive dict shape does
        not survive a dump/load cycle.  :meth:`from_dict` inverts this
        exactly.
        """
        return {
            "submitted": self.submitted, "served": self.served,
            "failed": self.failed, "overloads": self.overloads,
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "batches": self.batches,
            "batch_size_hist": [
                {"size": size, "count": count}
                for size, count in sorted(self.batch_size_hist.items())],
            "mean_batch_size": self.mean_batch_size,
            "coalesced": self.coalesced, "direct": self.direct,
            "coalesced_ratio": self.coalesced_ratio,
            "writes": self.writes, "generation": self.generation,
            "p50_latency_s": self.p50_latency,
            "p99_latency_s": self.p99_latency,
            "latency_samples": self.latency_samples,
            "timestamp": self.timestamp,
            "uptime_s": self.uptime_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ServiceStats":
        """Rebuild a snapshot from :meth:`as_dict` output (post-JSON).

        Derived values (``mean_batch_size``, ``coalesced_ratio``,
        ``pending``) are recomputed from the fields, not read back.
        """
        hist_rows = data.get("batch_size_hist", [])
        return cls(
            submitted=int(data["submitted"]), served=int(data["served"]),
            failed=int(data["failed"]), overloads=int(data["overloads"]),
            queue_depth=int(data["queue_depth"]),
            max_queue_depth=int(data["max_queue_depth"]),
            batches=int(data["batches"]),
            batch_size_hist={int(row["size"]): int(row["count"])
                             for row in hist_rows},
            coalesced=int(data.get("coalesced", 0)),
            direct=int(data.get("direct", 0)),
            writes=int(data.get("writes", 0)),
            generation=int(data.get("generation", 0)),
            p50_latency=float(data.get("p50_latency_s", 0.0)),
            p99_latency=float(data.get("p99_latency_s", 0.0)),
            latency_samples=int(data.get("latency_samples", 0)),
            timestamp=float(data.get("timestamp", 0.0)),
            uptime_s=float(data.get("uptime_s", 0.0)),
        )
