"""Process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` names every time series of a serving stack
(`fecam_service_queue_depth`, `fecam_fabric_bank_occupancy{bank="3"}`,
...) and snapshots them on demand.  The design follows the Prometheus
data model — metric *families* carry a name, help text, type, and label
names; each distinct label-value combination is an independent child
series — but with no external dependency and two fecam-specific rules:

* **lock-cheap recording**: every child guards its own tiny mutex, and
  :meth:`Histogram.observe_many` takes it once per batch, so the
  serving tier records a whole dispatch's latencies in one acquisition;
* **pull adapters**: most series are not written on the hot path at
  all.  Adapters (:mod:`fecam.obs.adapters`) register ``on_collect``
  hooks that fold the existing stats silos (``ServiceStats``,
  ``StoreStats``, ``FabricStats``, the engine's cam counters) into the
  registry only when a snapshot is requested — the request path pays
  nothing for them.

Registration is validated and idempotent: re-registering an identical
family returns the existing object; any mismatch (type, label names,
buckets) raises :class:`~fecam.errors.ObservabilityError`.
"""

from __future__ import annotations

import bisect
import math
import re
import threading

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from ..errors import ObservabilityError

__all__ = ["MetricsRegistry", "MetricFamily", "Counter", "Gauge",
           "Histogram", "HistogramValue", "MetricSample", "FamilySnapshot",
           "DEFAULT_LATENCY_BUCKETS"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for request latencies (seconds): log-ish
#: spacing from 10 us to 1 s, the range a micro-batched in-process
#: search service actually occupies.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class HistogramValue:
    """Snapshot of one histogram child: cumulative buckets + sum/count.

    ``buckets`` pairs each upper bound with the count of observations
    ``<= bound`` (Prometheus ``le`` semantics); the implicit ``+Inf``
    bucket is included last, so its count always equals ``count``.
    """

    buckets: Tuple[Tuple[float, int], ...]
    sum: float
    count: int


@dataclass(frozen=True)
class MetricSample:
    """One child series at snapshot time."""

    labels: Tuple[Tuple[str, str], ...]  # (name, value) pairs, family order
    value: Union[float, HistogramValue]


@dataclass(frozen=True)
class FamilySnapshot:
    """One metric family at snapshot time (what exporters consume)."""

    name: str
    help: str
    kind: str  # "counter" | "gauge" | "histogram"
    labelnames: Tuple[str, ...]
    samples: Tuple[MetricSample, ...]


class _Child:
    """Base of one labeled series; subclasses hold the actual value."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()


class Counter(_Child):
    """Monotonically increasing count (events, requests, joules)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counters only go up (inc by {amount})")
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Mirror an externally-accumulated total into this counter.

        The adapter hook for the existing stats silos: their cumulative
        counters are the source of truth, and this series reflects them
        at collect time.  The mirrored value may reset (a store swap
        restarts its counters) exactly like a process restart resets a
        native Prometheus counter.
        """
        with self._lock:
            self._value = float(value)

    def get(self) -> float:
        with self._lock:
            return self._value

    def _snapshot(self) -> float:
        return self.get()


class Gauge(_Child):
    """Point-in-time value (queue depth, occupancy, hit rate)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def get(self) -> float:
        with self._lock:
            return self._value

    def _snapshot(self) -> float:
        return self.get()


class Histogram(_Child):
    """Distribution with explicit, cumulative-exported buckets.

    ``bounds`` are inclusive upper edges (Prometheus ``le``): an
    observation lands in the first bucket whose bound is ``>= value``,
    or the implicit ``+Inf`` overflow.  Internally counts are stored
    per-bucket (non-cumulative) so ``observe`` is O(log buckets); the
    snapshot accumulates.
    """

    __slots__ = ("_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        super().__init__()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # + the +Inf overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch under one lock acquisition.

        The serving tier's dispatcher records every latency of a drain
        in one call, so per-request overhead amortizes across the batch.
        Large batches sort once (C timsort) and walk the bounds with
        one C bisect each — O(bounds) interpreter iterations per batch
        instead of O(values), which keeps metrics-only serving overhead
        a small fraction of the dispatch cost.
        """
        if not values:
            return
        bounds = self._bounds
        n = len(values)
        if n <= len(bounds):
            with self._lock:
                counts = self._counts
                for value in values:
                    counts[bisect.bisect_left(bounds, value)] += 1
                self._sum += sum(values)
                self._count += n
            return
        ordered = sorted(values)
        bisect_right = bisect.bisect_right
        with self._lock:
            counts = self._counts
            previous = 0
            for index, bound in enumerate(bounds):
                cumulative = bisect_right(ordered, bound)
                counts[index] += cumulative - previous
                previous = cumulative
                if previous == n:
                    break
            counts[len(bounds)] += n - previous
            self._sum += sum(ordered)
            self._count += n

    def load(self, pairs: Iterable[Tuple[float, int]]) -> None:
        """Replace this histogram's state from ``(value, count)`` pairs.

        The adapter hook for pre-aggregated silo histograms (the
        service's ``batch_size_hist``): the whole distribution is
        re-derived at collect time from the silo's exact counts.
        """
        bounds = self._bounds
        counts = [0] * (len(bounds) + 1)
        total = 0.0
        n = 0
        for value, count in pairs:
            counts[bisect.bisect_left(bounds, value)] += count
            total += value * count
            n += count
        with self._lock:
            self._counts = counts
            self._sum = total
            self._count = n

    def _snapshot(self) -> HistogramValue:
        with self._lock:
            counts = list(self._counts)
            total, n = self._sum, self._count
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self._bounds, counts):
            running += count
            cumulative.append((bound, running))
        cumulative.append((math.inf, n))
        return HistogramValue(buckets=tuple(cumulative), sum=total, count=n)


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and all of its labeled children.

    Families without label names proxy the child API directly
    (``family.inc()`` etc.); labeled families hand out children via
    :meth:`labels`.
    """

    def __init__(self, name: str, help: str, kind: str,
                 labelnames: Tuple[str, ...],
                 buckets: Optional[Tuple[float, ...]] = None):
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Child] = {}
        if not labelnames:
            self._children[()] = self._new_child()

    def _new_child(self) -> _Child:
        if self.kind == "histogram":
            return Histogram(self.buckets)
        return _CHILD_TYPES[self.kind]()

    def labels(self, **labelvalues) -> _Child:
        """The child series for one label-value combination.

        Values are coerced to ``str`` (Prometheus labels are strings);
        children are created on first use and live for the registry's
        lifetime.
        """
        if set(labelvalues) != set(self.labelnames):
            raise ObservabilityError(
                f"metric {self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}")
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
            return child

    def _sole_child(self) -> _Child:
        if self.labelnames:
            raise ObservabilityError(
                f"metric {self.name} has labels {self.labelnames}; "
                f"address a child via .labels() first")
        return self._children[()]

    # Unlabeled convenience proxies -----------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self._sole_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._sole_child().dec(amount)

    def set(self, value: float) -> None:
        self._sole_child().set(value)

    def set_total(self, value: float) -> None:
        self._sole_child().set_total(value)

    def get(self) -> float:
        return self._sole_child().get()

    def observe(self, value: float) -> None:
        self._sole_child().observe(value)

    def observe_many(self, values: Sequence[float]) -> None:
        self._sole_child().observe_many(values)

    def load(self, pairs: Iterable[Tuple[float, int]]) -> None:
        self._sole_child().load(pairs)

    # Snapshot --------------------------------------------------------------------

    def snapshot(self) -> FamilySnapshot:
        with self._lock:
            children = sorted(self._children.items())
        samples = tuple(
            MetricSample(labels=tuple(zip(self.labelnames, key)),
                         value=child._snapshot())
            for key, child in children)
        return FamilySnapshot(name=self.name, help=self.help,
                              kind=self.kind, labelnames=self.labelnames,
                              samples=samples)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<MetricFamily {self.kind} {self.name} "
                f"labels={self.labelnames} children={len(self._children)}>")


def _validate_name(name: str) -> None:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ObservabilityError(
            f"invalid metric name {name!r} (want [a-zA-Z_:][a-zA-Z0-9_:]*)")


def _validate_labelnames(labelnames: Sequence[str], kind: str) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not isinstance(label, str) or not _LABEL_RE.match(label):
            raise ObservabilityError(
                f"invalid label name {label!r} "
                f"(want [a-zA-Z_][a-zA-Z0-9_]*)")
        if label.startswith("__"):
            raise ObservabilityError(
                f"label name {label!r} is reserved (double underscore)")
        if kind == "histogram" and label == "le":
            raise ObservabilityError(
                "'le' is the histogram bucket label; it cannot be a "
                "user label")
    if len(set(names)) != len(names):
        raise ObservabilityError(f"duplicate label names in {names}")
    return names


def _validate_buckets(buckets: Sequence[float]) -> Tuple[float, ...]:
    bounds = tuple(float(b) for b in buckets)
    if not bounds:
        raise ObservabilityError("histograms need at least one bucket")
    for bound in bounds:
        if not math.isfinite(bound):
            raise ObservabilityError(
                "explicit buckets must be finite (+Inf is implicit)")
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ObservabilityError(
            f"bucket bounds must be strictly increasing, got {bounds}")
    return bounds


class MetricsRegistry:
    """A namespace of metric families plus collect-time pull hooks.

    >>> registry = MetricsRegistry()
    >>> served = registry.counter("demo_served_total", "Requests served.")
    >>> served.inc()
    >>> [f.name for f in registry.collect()]
    ['demo_served_total']
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}
        self._hooks: List[Callable[[], None]] = []

    # -- registration ------------------------------------------------------------

    def _register(self, name: str, help: str, kind: str,
                  labelnames: Sequence[str],
                  buckets: Optional[Sequence[float]]) -> MetricFamily:
        _validate_name(name)
        names = _validate_labelnames(labelnames, kind)
        bounds = _validate_buckets(buckets) if kind == "histogram" else None
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (existing.kind != kind or existing.labelnames != names
                        or existing.buckets != bounds):
                    raise ObservabilityError(
                        f"metric {name} already registered as "
                        f"{existing.kind}{existing.labelnames} "
                        f"(buckets={existing.buckets}); cannot re-register "
                        f"as {kind}{names} (buckets={bounds})")
                return existing
            family = MetricFamily(name, help, kind, names, bounds)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help, "counter", labelnames, None)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help, "gauge", labelnames, None)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> MetricFamily:
        return self._register(name, help, "histogram", labelnames, buckets)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._families

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    # -- collect-time pull hooks ---------------------------------------------------

    def on_collect(self, hook: Callable[[], None]) -> Callable[[], None]:
        """Run ``hook`` before every snapshot; returns an unregisterer.

        This is how adapters fold live stats silos into the registry
        without touching the hot path: the silo is read (and the
        mirrored series updated) only when someone actually collects.
        """
        with self._lock:
            self._hooks.append(hook)

        def unregister() -> None:
            with self._lock:
                try:
                    self._hooks.remove(hook)
                except ValueError:
                    pass  # already unregistered

        return unregister

    # -- snapshot ------------------------------------------------------------------

    def collect(self) -> List[FamilySnapshot]:
        """Run the pull hooks, then snapshot every family (name order)."""
        with self._lock:
            hooks = list(self._hooks)
        for hook in hooks:
            hook()
        with self._lock:
            families = sorted(self._families.items())
        return [family.snapshot() for _, family in families]

    def __repr__(self) -> str:  # pragma: no cover
        with self._lock:
            return (f"<MetricsRegistry families={len(self._families)} "
                    f"hooks={len(self._hooks)}>")
