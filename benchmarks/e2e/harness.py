"""Load generation, timing and bookkeeping shared by the workloads.

Everything here measures the program from outside: client threads call a
door (a public function of one layer), hydrate what came back the way a
caller would, compare it with the oracle and note when the call started
and ended.  Nothing reaches into ``fecam``.
"""

import math
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A batch is the queries of one call and the answer the oracle expects.
Batch = Tuple[List[str], List[List[int]]]

SLICE_S = 0.5
WARMUP_TOLERANCE = 0.10
#: A client that keeps raising is stopped rather than spinning on errors.
MAX_CLIENT_ERRORS = 50


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(int(math.ceil(p / 100.0 * len(ordered))), 1)
    return ordered[rank - 1]


def supported_tail(n: int) -> float:
    """The highest of the usual percentiles with >= 10 samples beyond it."""
    best = 50.0
    for p in (90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            best = p
    return best


def describe(samples_s: Sequence[float]) -> str:
    """One line for the human report: p50/p95/tail/p99/max in ms, count."""
    n = len(samples_s)
    if n == 0:
        return "no samples"
    tail = supported_tail(n)
    ms = [s * 1e3 for s in samples_s]
    return (f"p50 {percentile(ms, 50):.3f} ms, p95 {percentile(ms, 95):.3f} ms, "
            f"highest supported p{tail:g} {percentile(ms, tail):.3f} ms, "
            f"p99 {percentile(ms, 99):.3f} ms (not gated), "
            f"max {max(ms):.3f} ms (not gated), n={n}")


class Phase:
    """Attempted/failed accounting of one phase, shared by its clients."""

    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def add(self, attempted: int, failed: int = 0,
            error: Optional[str] = None) -> None:
        with self._lock:
            self.attempted += attempted
            self.failed += failed
            if error is not None and len(self.errors) < 5:
                self.errors.append(error)

    def as_dict(self) -> Dict[str, object]:
        return {"attempted": self.attempted,
                "succeeded": self.attempted - self.failed,
                "failed": self.failed, "errors": list(self.errors)}


class Spans:
    """Harness-side spans around calls into a layer's public function.

    Kept in memory and written out once the run is over; ``parent`` is
    the enclosing span of the same thread, ``request`` the batch id.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.rows: List[Tuple[int, Optional[int], str, float, float, int]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0

    @contextmanager
    def span(self, name: str, request: int = -1):
        if not self.enabled:
            yield
            return
        with self._lock:
            span_id = self._next
            self._next += 1
        parent = getattr(self._local, "current", None)
        self._local.current = span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._local.current = parent
            with self._lock:
                self.rows.append((span_id, parent, name, start, end, request))

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child_time: Dict[int, float] = {}
        for _sid, parent, _name, start, end, _req in self.rows:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out: Dict[str, float] = {}
        for sid, _parent, name, start, end, _req in self.rows:
            out[name] = out.get(name, 0.0) + (end - start) \
                - child_time.get(sid, 0.0)
        return out

    def as_records(self) -> List[Dict[str, object]]:
        return [{"id": sid, "parent": parent, "name": name, "start": start,
                 "end": end, "request": request}
                for sid, parent, name, start, end, request in self.rows]


class Samples:
    """What the clients of one phase observed: every call's start, end and
    completed queries, over the stretch from ``started`` to ``stopped``."""

    def __init__(self, calls: List[Tuple[float, float, int]],
                 started: float, stopped: float):
        #: (call start, call end, queries completed), sorted by end time.
        self.calls = sorted(calls, key=lambda c: c[1])
        self.started = started
        self.stopped = stopped

    @property
    def latencies(self) -> List[float]:
        return [end - start for start, end, _n in self.calls]

    @property
    def completed(self) -> int:
        return sum(n for _s, _e, n in self.calls)

    @property
    def elapsed(self) -> float:
        return self.stopped - self.started

    def mean_rate(self) -> float:
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    def slice_rates(self) -> List[float]:
        """Completions per second in each whole ``SLICE_S`` of the phase.
        A call that straddles a slice boundary counts in each slice by
        the share of its duration spent there, so a rate is not a
        multiple of the batch size."""
        counts = [0.0] * int(self.elapsed / SLICE_S)
        for start, end, n in self.calls:
            first = int((start - self.started) / SLICE_S)
            last = int((end - self.started) / SLICE_S)
            for index in range(first, min(last, len(counts) - 1) + 1):
                begin = self.started + index * SLICE_S
                overlap = min(end, begin + SLICE_S) - max(start, begin)
                counts[index] += n * overlap / (end - start)
        return [count / SLICE_S for count in counts]

    def median_rate(self) -> float:
        """Median per-slice rate: what the phase sustains, with the odd
        scheduler stall (which flips a mean on a 2-CPU host) left out.  A
        phase shorter than two slices has only its mean."""
        rates = self.slice_rates()
        return statistics.median(rates) if len(rates) >= 2 \
            else self.mean_rate()


def drive(call: Callable[[List[str]], List[List[int]]],
          streams: Sequence[Sequence[Batch]], seconds: float, phase: Phase,
          spans: Optional[Spans] = None, *,
          until: Optional[Callable[["_Progress"], bool]] = None,
          check: Optional[Callable[[List[str], List[List[int]],
                                    List[List[int]]], int]] = None
          ) -> Samples:
    """Closed loop: one client thread per stream, each cycling through its
    batches with one call in flight, for ``seconds`` (or until ``until``
    says so, asked every ``SLICE_S`` — the warm-up's stopping rule).

    ``call`` returns the hydrated answer (per query, the matching keys
    best first); it is timed as the caller's latency.  The comparison
    with the oracle happens outside that timer but inside the loop, so
    throughput counts verified lookups.  ``check`` replaces the default
    exact comparison and returns the number of wrong answers.
    """
    spans = spans if spans is not None else Spans(False)
    stop = threading.Event()
    progress = _Progress(len(streams))
    per_client: List[List[Tuple[float, float, int]]] = [[] for _ in streams]

    def client(index: int) -> None:
        batches = streams[index]
        calls = per_client[index]
        errors = 0
        position = 0
        while not stop.is_set():
            queries, expected = batches[position % len(batches)]
            request = index * 1_000_000 + position
            position += 1
            start = time.perf_counter()
            try:
                if spans.enabled:
                    with spans.span("client.call", request):
                        got = call(queries)
                else:
                    got = call(queries)
            except Exception as exc:  # refused or failed: a failure
                phase.add(len(queries), len(queries),
                          f"{type(exc).__name__}: {exc}")
                errors += 1
                if errors >= MAX_CLIENT_ERRORS:
                    return
                continue
            end = time.perf_counter()
            if check is not None:
                wrong = check(queries, got, expected)
            elif got == expected:
                wrong = 0
            else:
                wrong = sum(1 for g, e in zip(got, expected) if g != e) \
                    + abs(len(got) - len(expected))
            phase.add(len(queries), wrong,
                      "wrong answer" if wrong else None)
            calls.append((start, end, len(queries)))
            progress.done[index] += len(queries)

    threads = [threading.Thread(target=client, args=(i,), daemon=True,
                                name=f"e2e-client-{i}")
               for i in range(len(streams))]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    if until is None:
        time.sleep(seconds)
    else:
        time.sleep(SLICE_S)
        while not until(progress):
            time.sleep(SLICE_S)
    stopped = time.perf_counter()
    stop.set()
    for thread in threads:
        thread.join()
    # A call in flight at the stop ends after it and is not counted.
    return Samples([c for calls in per_client for c in calls
                    if c[1] <= stopped], started, stopped)


class _Progress:
    """Per-client completion counters the warm-up rule reads (each slot
    has one writer, so no lock)."""

    def __init__(self, clients: int):
        self.done = [0] * clients
        self.started = time.perf_counter()
        self.history: List[int] = []


def steady(min_s: float, max_s: float,
           tolerance: float = WARMUP_TOLERANCE
           ) -> Callable[[_Progress], bool]:
    """Warm-up stopping rule: at least ``min_s`` of real traffic and three
    consecutive slices whose rates agree within ``tolerance`` (the
    compiled kernel runs 10-15x slow for the first second or so of a
    process, and caches and thread pools need traffic to fill)."""

    def rule(progress: _Progress) -> bool:
        progress.history.append(sum(progress.done))
        elapsed = time.perf_counter() - progress.started
        if elapsed >= max_s:
            return True
        if elapsed < min_s or len(progress.history) < 4:
            return False
        totals = progress.history[-4:]
        rates = [b - a for a, b in zip(totals, totals[1:])]
        return min(rates) > 0 and \
            (max(rates) - min(rates)) <= tolerance * max(rates)

    return rule


def batches_of(queries: List[str], expected: List[List[int]],
               size: int) -> List[Batch]:
    """Cut a stream into whole batches of ``size`` (a short tail is
    dropped so every call does the same amount of work)."""
    return [(queries[i:i + size], expected[i:i + size])
            for i in range(0, len(queries) - size + 1, size)]


def in_thread(fn: Callable[..., object], *args):
    """Run ``fn(*args)`` on a fresh thread and wait for it.

    The compiled kernel gives every thread that calls it an OpenMP team
    of its own, which lives as long as the thread does.  Once a second
    team exists on a 2-CPU host libgomp throttles its spin-wait, and
    every later search in the process runs about a third slower.  So the
    harness itself never calls a search from the main thread: each step
    that might runs here, and its team dies with the thread.
    """
    outcome: List[object] = []

    def target() -> None:
        try:
            outcome.append((True, fn(*args)))
        except BaseException as exc:   # re-raised in the caller below
            outcome.append((False, exc))

    thread = threading.Thread(target=target, name=f"e2e-{fn.__name__}")
    thread.start()
    thread.join()
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


def seconds_of(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def median_time(fn: Callable[[], object], repeats: int) -> float:
    """Median seconds of ``repeats`` calls of ``fn``."""
    return statistics.median(seconds_of(fn) for _ in range(repeats))
