"""`SearchService` — concurrent micro-batching serving over a store.

Every entry point below the service is a synchronous single-caller API;
the fused arena kernel only pays off when many queries arrive in one
``search_batch`` call.  The service closes that gap for concurrent
callers: requests enqueue onto a bounded queue, a dispatcher thread
drains it every ``max_wait`` seconds (or as soon as ``max_batch``
queries are waiting) and issues **one** fused batch search per mask
for the whole drain — many small independent requests ride one kernel
pass.

A queue item is a run of queries sharing one mask: a ``submit`` is one
single-query item, a ``search_many`` burst of plain strings is ONE item
(validated by one vectorised pass, queued under one mutex hold,
resolved by one future).  The drain takes whole items up to
``max_batch`` queries and splits the item that straddles the boundary,
so dispatches are composed exactly as if every query were queued on
its own; ``max_queue`` and the queue-depth stats count queries.

Consistency is snapshot isolation by construction:

* writers (:meth:`SearchService.write` and the convenience wrappers)
  take a writer-preferring :class:`~fecam.service.RWLock` exclusively;
* the dispatcher searches under the read side, so a batch can never
  observe a half-applied write, and every result is tagged with the
  store's write-generation at which it was computed
  (:attr:`ServedResult.generation`) — a serial replay of the write
  journal up to that generation reproduces the result bit-identically
  (the stress suite proves exactly this);
* a write replaces an entry's :class:`~fecam.store.result.Match`
  instead of mutating it, so a served result keeps naming what it
  matched with no deep copy: ``freeze()`` only detaches the list.

Backpressure is explicit: a full queue raises
:class:`~fecam.errors.ServiceOverloaded` at submission, a closed
service raises :class:`~fecam.errors.ServiceClosed`.  Both a sync front
door (``submit().result()`` / :meth:`search`) and an ``asyncio`` one
(:meth:`asearch`, bridging the dispatcher's
:class:`concurrent.futures.Future` into the caller's event loop) are
provided.

>>> from fecam.store import CamStore, StoreConfig
>>> store = CamStore(StoreConfig(width=8, rows=4, fidelity="analytical"))
>>> _ = store.insert("1010XXXX", key="rule-a")
>>> with SearchService(store) as service:
...     served = service.search("10101111")
>>> served.result.best.key
'rule-a'
"""

from __future__ import annotations

import asyncio
import threading
import time

from collections import Counter, deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Hashable, List,
                    Optional, Sequence, Tuple, Union)

from ..analysis.sanitize import maybe_sanitize_service
from ..errors import OperationError, ServiceClosed, ServiceOverloaded
from ..fabric.batch import normalize_queries
from ..functional.engine import check_mask
from ..obs.trace import Span, Trace, activated
from ..store import CamStore
from ..store.result import Match, Query, QueryResult
from .locks import RWLock
from .stats import LatencyReservoir, ServiceStats

if TYPE_CHECKING:  # avoid importing the full obs package eagerly
    from ..obs import Observability

__all__ = ["SearchService", "ServedResult"]

#: str.translate table deleting '0'/'1' — an already-canonical query
#: translates to the empty string, so the submit fast path is one
#: length check plus one C-level scan instead of a NumPy round trip.
_NON_BINARY = str.maketrans("", "", "01")


@dataclass(frozen=True)
class ServedResult:
    """One completed request: the result plus its consistency tag.

    ``generation`` is the store write-generation the search was computed
    at — every write through the service advances it by exactly one, so
    replaying the write journal up to ``generation`` reproduces the
    store state this result observed.  ``latency`` is the wall time from
    submission to completion (what the caller actually waited, including
    queueing and coalescing delay).
    """

    result: QueryResult
    generation: int
    latency: float

    @property
    def best(self) -> Optional[Match]:
        return self.result.best

    @property
    def match_keys(self) -> List[Hashable]:
        return self.result.match_keys


class _Burst:
    """One ``search_many`` call: its queue items share ONE future.

    The future-per-request protocol costs a few microseconds per
    request (Future construction, per-future condition locks on
    set_result and result()); a burst pays it once.  Each of its items
    fills its slice of ``results`` and drops ``remaining`` (the items
    still out, including tails split off at a ``max_batch`` boundary);
    the last one resolves the future, with the first dispatch error if
    any item failed.  ``results``/``remaining``/``error`` are only
    mutated under the service mutex — the dispatcher's drain and
    completion and close()'s rejection path can touch items of the same
    burst concurrently.
    """

    __slots__ = ("future", "results", "remaining", "error")

    def __init__(self, future: "Future", n: int, items: int):
        self.future = future
        self.results: List[Optional[ServedResult]] = [None] * n
        self.remaining = items
        self.error: Optional[BaseException] = None


class _Pending:
    """One queue item: a run of validated queries sharing one mask.

    A burst item's results land at ``burst.results[slot:slot +
    len(bits)]``; an item without a burst is one query with its own
    ``future``.  ``traces`` is aligned with ``bits``, or ``None`` when
    no member was sampled.
    """

    __slots__ = ("bits", "mask", "future", "enqueued_at", "burst",
                 "slot", "traces")

    def __init__(self, bits: List[str], mask: Optional[str],
                 future: "Future", enqueued_at: float,
                 burst: "Optional[_Burst]" = None, slot: int = 0,
                 traces: "Optional[List[Optional[Trace]]]" = None):
        self.bits = bits
        self.mask = mask
        self.future = future
        self.enqueued_at = enqueued_at
        self.burst = burst
        self.slot = slot
        self.traces = traces


class SearchService:
    """Thread-safe micro-batching search service over a :class:`CamStore`.

    Parameters
    ----------
    store:
        The store to serve.  The service assumes ownership of its
        consistency: all mutation while serving must go through
        :meth:`write` (or the ``insert``/``delete``/``update``
        wrappers), which take the writer lock.
    max_batch:
        Most queries one dispatch drains (the fused-kernel batch size).
    max_wait:
        Longest a request waits for co-riders before dispatching anyway
        (seconds).  The default ``0`` is *natural batching*: the
        dispatcher drains whatever is queued immediately, and batches
        form from the requests that pile up while the previous kernel
        call runs — no artificial latency, coalescing proportional to
        load.  A positive window trades per-request latency for larger
        fused batches (useful when callers pipeline bursts).
    max_queue:
        Most queries waiting in the queue, however they were submitted
        (a ``search_many`` burst counts each of its queries); a
        submission that would pass it raises
        :class:`ServiceOverloaded`, all of a burst or none of it.
    start:
        Start the dispatcher thread immediately (default).  Pass
        ``False`` to enqueue deterministically first — tests do this to
        pin batch composition — then call :meth:`start`.
    latency_window:
        Size of the latency reservoir behind the p50/p99 stats.
    use_cache:
        Serve dispatches through the store's query cache (default).
        Pass ``False`` for unique-query workloads: the per-query cache
        bookkeeping (key lookups, puts, snapshot copies) then costs
        more than it ever saves, and skipping it measurably fattens
        peak throughput.
    obs:
        An optional :class:`~fecam.obs.Observability` bundle.  When set,
        the dispatcher feeds its request-latency histogram (one lock per
        drained batch), honors its sampled tracer (per-stage spans:
        ``queue``, ``coalesce``, ``lock_wait``, ``kernel``, ``freeze``),
        and checks its slow-query log threshold per completed request.
        When ``None`` (default), the request path pays a single ``None``
        check — observability off costs nothing measurable.
    """

    def __init__(self, store: CamStore, *, max_batch: int = 64,
                 max_wait: float = 0.0, max_queue: int = 1024,
                 start: bool = True, latency_window: int = 4096,
                 use_cache: bool = True,
                 obs: "Optional[Observability]" = None):
        if max_batch < 1:
            raise OperationError("max_batch must be at least 1")
        if max_queue < 1:
            raise OperationError("max_queue must be at least 1")
        if max_wait < 0:
            raise OperationError("max_wait must be non-negative")
        self.store = store
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.max_queue = max_queue
        self.use_cache = use_cache
        self._rw = RWLock()
        # One mutex guards the queue and every counter; the condition
        # wakes the dispatcher on submissions and close().
        self._mutex = threading.Lock()
        self._wakeup = threading.Condition(self._mutex)
        self._queue: "deque[_Pending]" = deque()
        self._depth = 0     # queries in _queue (items hold runs)
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._submitted = 0
        self._served = 0
        self._failed = 0
        self._overloads = 0
        self._max_queue_depth = 0
        self._batches = 0
        self._batch_sizes: "Counter[int]" = Counter()
        self._coalesced = 0
        self._direct = 0
        self._writes = 0
        self._latencies = LatencyReservoir(latency_window)
        self._obs = obs
        # Cached so the submit path's tracing gate is one slot load +
        # None check — identical work whether obs is absent or
        # metrics-only (the <1% disabled-overhead budget is ~a couple
        # hundred ns per request on slow hosts).
        self._tracer = obs.tracer if obs is not None else None
        self._started_wall = time.time()
        self._started_mono = time.perf_counter()
        # Dispatcher-thread-only drain timestamps (stage-span inputs):
        # when the wait loop saw work, and when the drain finished
        # popping.  Single dispatcher thread, so plain attributes.
        self._drain_wake = self._started_mono
        self._drain_end = self._started_mono
        # Opt-in concurrency sanitizer (FECAM_SANITIZE=1): instruments
        # the RWLock with per-thread locksets and wraps the backend's
        # planes so unlocked arena access and missed generation bumps
        # surface as structured violations.  No-op when disabled.
        maybe_sanitize_service(self)
        if start:
            self.start()

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "SearchService":
        """Start the dispatcher thread (idempotent)."""
        with self._mutex:
            if self._closed:
                raise ServiceClosed("service is closed")
            if self._thread is not None:
                return self
            self._thread = threading.Thread(
                target=self._dispatch_loop,
                name="fecam-service-dispatcher", daemon=True)
            # Start inside the mutex: close() may read _thread the
            # moment we release it, and joining a never-started thread
            # raises.
            self._thread.start()
        return self

    @property
    def closed(self) -> bool:
        with self._mutex:
            return self._closed

    def close(self, *, drain: bool = True,
              timeout: Optional[float] = None) -> bool:
        """Shut down: stop accepting, then drain or fail the queue.

        With ``drain=True`` (default) every already-accepted request is
        still served before the dispatcher exits; with ``drain=False``
        queued requests fail with :class:`ServiceClosed`.  Idempotent.

        Returns ``True`` when the dispatcher has fully stopped (the
        drain contract held).  With a ``timeout``, a still-draining
        dispatcher makes this return ``False`` — requests may complete
        after the call returns, and callers who need the drain
        guarantee must check the result rather than assume it.
        """
        with self._mutex:
            already = self._closed
            self._closed = True
            rejected: List[_Pending] = []
            if not drain:
                rejected = list(self._queue)
                self._queue.clear()
                self._depth = 0
            self._wakeup.notify_all()
            thread = self._thread
        for item in rejected:
            error = ServiceClosed("service closed before "
                                  "this request dispatched")
            self._fail_traces(item, error)
            self._complete_error(item, error)
        if thread is not None:
            thread.join(timeout)
            return not thread.is_alive()
        if drain and not already:
            # Never started: serve the backlog inline so close() keeps
            # its contract (accepted requests complete) even without a
            # dispatcher thread.
            self._dispatch_loop()
        return True

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- front doors -------------------------------------------------------------

    def _prepare(self, query: Union[Query, str],
                 mask: Optional[str]) -> Tuple[str, Optional[str]]:
        """Validate one request; returns ``(bits, effective_mask)``.

        Plain canonical '0'/'1' strings of the right width — the
        overwhelming serving case — skip both the ``Query`` wrapper and
        the NumPy normalization round trip.  Everything non-canonical
        (aliases, int sequences, bad widths) takes the full
        normalization path and raises the same errors it always did.
        """
        if type(query) is str:
            bits: Any = query
            own_mask: Optional[str] = None
        else:
            coerced = Query.coerce(query)
            bits = coerced.bits
            own_mask = coerced.mask
        if not (isinstance(bits, str) and len(bits) == self.store.width
                and not bits.translate(_NON_BINARY)):
            bits = normalize_queries([bits], self.store.width)[0]
        if own_mask is not None and mask is not None \
                and own_mask != mask:
            raise OperationError(
                "the query's own mask conflicts with the mask argument")
        effective = own_mask if own_mask is not None else mask
        if effective is not None:
            check_mask(effective, self.store.width)
        return bits, effective

    def _sample(self, bits: List[str], mask: Optional[str],
                enqueued_at: float) -> "Optional[List[Optional[Trace]]]":
        """One trace per sampled member of a run, or ``None`` if none.

        Gated on the tracer, not just on obs: metrics-only observability
        must not pay the sampling call per request.  Each root span
        starts at enqueue, on the same clock as the latency accounting,
        so stage durations sum to the e2e latency the caller observes.
        """
        tracer = self._tracer
        if tracer is None:
            return None
        traces = [tracer.begin(enqueued_at, bits=member, mask=mask)
                  if tracer.sampler() else None for member in bits]
        return traces if any(t is not None for t in traces) else None

    def _fail_traces(self, item: _Pending, error: BaseException,
                     at: Optional[float] = None) -> None:
        """Finish an item's sampled traces with ``error`` — a request
        rejected before or failed in dispatch still emits its trace, so
        sampled == finished holds for the tracer's counters."""
        for trace in item.traces or ():
            if trace is not None:
                trace.root.attrs["error"] = repr(error)
                self._obs.tracer.finish(trace, at)

    def submit(self, query: Union[Query, str],
               mask: Optional[str] = None) -> "Future[ServedResult]":
        """Enqueue one request; returns a future of :class:`ServedResult`.

        Validation (query and mask) happens here, at the front door, so
        a malformed request fails its own caller immediately instead of
        poisoning the batch it would have ridden.
        """
        bits, effective_mask = self._prepare(query, mask)
        future: "Future[ServedResult]" = Future()
        enqueued_at = time.perf_counter()
        self._enqueue([_Pending(
            [bits], effective_mask, future, enqueued_at,
            traces=self._sample([bits], effective_mask, enqueued_at))], 1)
        return future

    def submit_many(self, queries: Sequence[Union[Query, str]],
                    mask: Optional[str] = None
                    ) -> "List[Future[ServedResult]]":
        """Enqueue a burst; per-request futures, same order.

        The whole burst is validated up front, then enqueued (one item
        per request, each with its own future) under a single mutex hold
        with one dispatcher wakeup.  Validation and backpressure are
        all-or-nothing — a malformed query or mask, or a burst that does
        not fit under ``max_queue``, rejects the burst before any of it
        enqueues.
        """
        prepared = [self._prepare(query, mask) for query in queries]
        enqueued_at = time.perf_counter()
        items = [_Pending([bits], run_mask, Future(), enqueued_at,
                          traces=self._sample([bits], run_mask, enqueued_at))
                 for bits, run_mask in prepared]
        self._enqueue(items, len(items))
        return [item.future for item in items]

    def _submit_burst(self, queries: Sequence[Union[Query, str]],
                      mask: Optional[str]) -> "Future[List[ServedResult]]":
        """Validate and enqueue a burst on ONE shared future (see
        :class:`_Burst`), all-or-nothing like :meth:`submit_many`.

        Plain strings are one item, validated by one vectorised
        :func:`normalize_queries` pass; a burst holding :class:`Query`
        objects validates each member and is cut into one item per run
        of equal effective masks.
        """
        width = self.store.width
        runs: List[Tuple[List[str], Optional[str]]] = []
        if all(type(query) is str for query in queries):
            if mask is not None:
                check_mask(mask, width)
            runs.append((normalize_queries(queries, width), mask))
        else:
            for query in queries:
                bits, effective_mask = self._prepare(query, mask)
                if runs and runs[-1][1] == effective_mask:
                    runs[-1][0].append(bits)
                else:
                    runs.append(([bits], effective_mask))
        shared: "Future[List[ServedResult]]" = Future()
        enqueued_at = time.perf_counter()
        burst = _Burst(shared, len(queries), len(runs))
        items, slot = [], 0
        for bits, run_mask in runs:
            items.append(_Pending(bits, run_mask, shared, enqueued_at, burst,
                                  slot, self._sample(bits, run_mask,
                                                     enqueued_at)))
            slot += len(bits)
        self._enqueue(items, len(queries))
        return shared

    def _enqueue(self, items: List[_Pending], n: int) -> None:
        """Admit validated items holding ``n`` queries under one mutex
        hold, one wakeup.

        All-or-nothing backpressure: items that do not fit under
        ``max_queue`` queries raise without enqueueing any of them.
        """
        try:
            with self._mutex:
                if self._closed:
                    raise ServiceClosed("service is closed")
                if self._depth + n > self.max_queue:
                    self._overloads += 1
                    raise ServiceOverloaded(
                        f"{n} request(s) do not fit in the request queue "
                        f"({self._depth} of {self.max_queue} pending)")
                self._queue.extend(items)
                self._submitted += n
                self._depth += n
                if self._depth > self._max_queue_depth:
                    self._max_queue_depth = self._depth
                self._wakeup.notify_all()
        except (ServiceClosed, ServiceOverloaded) as exc:
            for item in items:
                self._fail_traces(item, exc)
            raise

    def search(self, query: Union[Query, str],
               mask: Optional[str] = None, *,
               timeout: Optional[float] = None) -> ServedResult:
        """Blocking front door: ``submit().result()``."""
        return self.submit(query, mask).result(timeout)

    def search_many(self, queries: Sequence[Union[Query, str]],
                    mask: Optional[str] = None, *,
                    timeout: Optional[float] = None) -> List[ServedResult]:
        """Blocking burst: submit all, then wait for all, in order.

        A burst of plain strings is ONE queue item on ONE future (see
        :class:`_Burst`): validated in one vectorised pass, queued under
        one mutex hold, resolved once.  Its queries still coalesce with
        other requests into fused batches — a drain that fills up at
        ``max_batch`` queries splits the item and serves the rest next.
        The future resolves when the last of the burst is served, with
        the burst's first dispatch error if any of it failed.
        """
        if not queries:
            return []
        return self._submit_burst(queries, mask).result(timeout)

    async def asearch(self, query: Union[Query, str],
                      mask: Optional[str] = None) -> ServedResult:
        """``asyncio`` front door.

        The dispatcher completes :class:`concurrent.futures.Future`
        objects from its own thread; ``asyncio.wrap_future`` bridges one
        into the running loop, so any number of coroutines await
        concurrently and coalesce into the same fused batches as
        threads do.
        """
        return await asyncio.wrap_future(self.submit(query, mask))

    async def asearch_many(self, queries: Sequence[Union[Query, str]],
                           mask: Optional[str] = None
                           ) -> List[ServedResult]:
        """``asyncio`` burst door: :meth:`search_many`'s one shared
        future, awaited; a malformed or overflowing burst is rejected
        before any of it enqueues."""
        if not queries:
            return []
        return await asyncio.wrap_future(self._submit_burst(queries, mask))

    # -- writes ------------------------------------------------------------------

    def write(self, txn: Callable[[CamStore], Any]) -> Any:
        """Run one mutating transaction with writer exclusivity.

        ``txn`` receives the store and runs with every search dispatch
        excluded, so multi-operation transactions are atomic with
        respect to served results — no batch ever observes a
        half-applied ``txn``.  Returns whatever ``txn`` returns.
        """
        if self.closed:
            raise ServiceClosed("service is closed")
        with self._rw.write_locked():
            result = txn(self.store)
        with self._mutex:
            self._writes += 1
        return result

    def read(self, fn: Callable[[CamStore], Any]) -> Any:
        """Run one read-only function under the read lock.

        The consistency door for non-search reads (snapshots, stats
        sweeps, durable checkpoints): ``fn`` observes a store no writer
        is mid-mutating, and may ride alongside search dispatches —
        readers share.  ``fn`` must not mutate the store.
        """
        if self.closed:
            raise ServiceClosed("service is closed")
        with self._rw.read_locked():
            return fn(self.store)

    def insert(self, word: str, key: Optional[Hashable] = None, *,
               priority: Optional[float] = None,
               payload: Any = None) -> Match:
        return self.write(lambda store: store.insert(
            word, key=key, priority=priority, payload=payload))

    def insert_many(self, words: Sequence[str],
                    keys: Optional[Sequence[Hashable]] = None, *,
                    priorities: Optional[Sequence[float]] = None,
                    payloads: Optional[Sequence[Any]] = None
                    ) -> List[Match]:
        return self.write(lambda store: store.insert_many(
            words, keys=keys, priorities=priorities, payloads=payloads))

    def delete(self, key: Hashable) -> Match:
        return self.write(lambda store: store.delete(key))

    def update(self, key: Hashable, word: str, *,
               payload: Any = None) -> Match:
        return self.write(lambda store: store.update(
            key, word, payload=payload))

    # -- dispatcher --------------------------------------------------------------

    def _next_batch(self) -> Optional[List[_Pending]]:
        """Block until work or shutdown; drain up to ``max_batch`` queries.

        The coalescing window: after the first request arrives, keep
        waiting (up to ``max_wait``) for co-riders unless the batch is
        already full or the service is closing — a closing service
        drains at full speed.  Whole items are taken in queue order; the
        item straddling ``max_batch`` is split, its head served now and
        its tail left first in line as one more item of its burst.
        """
        with self._mutex:
            while not self._queue and not self._closed:
                self._wakeup.wait()
            if not self._queue:
                return None  # closed and drained: dispatcher exits
            if self._obs is not None:
                self._drain_wake = time.perf_counter()
            if self.max_wait > 0 and not self._closed \
                    and self._depth < self.max_batch:
                deadline = time.monotonic() + self.max_wait
                while self._depth < self.max_batch \
                        and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._wakeup.wait(remaining)
            batch: List[_Pending] = []
            room = self.max_batch
            while room and self._queue:
                item = self._queue[0]
                burst = item.burst  # None: one query, which always fits
                if len(item.bits) <= room or burst is None:
                    batch.append(self._queue.popleft())
                    room -= len(item.bits)
                    continue
                batch.append(_Pending(
                    item.bits[:room], item.mask, item.future,
                    item.enqueued_at, burst, item.slot,
                    item.traces and item.traces[:room]))
                item.bits = item.bits[room:]
                item.traces = item.traces and item.traces[room:]
                item.slot += room
                burst.remaining += 1
                room = 0
            self._depth -= self.max_batch - room
            if self._obs is not None:
                self._drain_end = time.perf_counter()
            return batch

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._serve(batch)

    def _serve(self, batch: List[_Pending]) -> None:
        """One dispatch: search the whole drain under the read lock.

        Items sharing a mask fuse into one ``search_batch`` call; a
        drain mixing masks issues one call per mask group (the kernel
        applies a single mask per batch), all inside one read-lock hold
        so every result of the dispatch reports the same generation.
        Results are then sliced back per item: one comprehension of
        :class:`ServedResult` per item, all with the item's latency.
        """
        obs = self._obs
        traced = [(item.enqueued_at, trace) for item in batch
                  for trace in item.traces or () if trace is not None]
        groups: Dict[Optional[str], List[_Pending]] = {}
        for item in batch:
            groups.setdefault(item.mask, []).append(item)
        outcomes: List[Tuple[List[_Pending], Optional[BaseException],
                             Optional[List[QueryResult]]]] = []
        with self._rw.read_locked():
            if traced:
                # Pre-kernel stages per sampled request: queue wait
                # (enqueue until the dispatcher saw work), coalesce wait
                # (until the drain popped), and the read-lock wait.
                # Requests that arrived mid-window clamp to their own
                # enqueue time.
                t_locked = time.perf_counter()
                for enqueued_at, trace in traced:
                    wake = max(enqueued_at, self._drain_wake)
                    popped = max(wake, self._drain_end)
                    trace.record("queue", enqueued_at, wake)
                    trace.record("coalesce", wake, popped)
                    trace.record("lock_wait", popped, t_locked)
            generation = self.store.generation
            for mask, items in groups.items():
                bits = (items[0].bits if len(items) == 1
                        else [b for item in items for b in item.bits])
                # Each sampled request gets a "kernel" span covering its
                # group's fused store call; the store and arena kernel
                # nest their own stage spans under it via activated().
                kernel_spans: List[Tuple[Trace, Span]] = [
                    (trace, trace.open("kernel", queries=len(bits)))
                    for item in items for trace in item.traces or ()
                    if trace is not None]
                try:
                    if kernel_spans:
                        with activated([(trace, span.span_id)
                                        for trace, span in kernel_spans]):
                            results = self.store.search_batch(
                                bits, mask=mask, use_cache=self.use_cache)
                    else:
                        results = self.store.search_batch(
                            bits, mask=mask, use_cache=self.use_cache)
                except Exception as exc:  # fail the group, keep serving
                    if kernel_spans:
                        now = time.perf_counter()
                        for _trace, span in kernel_spans:
                            span.close(now)
                    outcomes.append((items, exc, None))
                else:
                    kernel_done = time.perf_counter()
                    for _trace, span in kernel_spans:
                        span.close(kernel_done)
                    # Freeze under the read lock.  Writes replace Match
                    # objects rather than mutate them, so a result's
                    # matches already name the pre-write entries;
                    # freeze() only detaches the match list (a batch
                    # view's slice is already its own).
                    frozen = [r.freeze() for r in results]
                    if kernel_spans:
                        freeze_done = time.perf_counter()
                        for trace, _span in kernel_spans:
                            trace.record("freeze", kernel_done,
                                         freeze_done)
                    outcomes.append((items, None, frozen))
        completed_at = time.perf_counter()
        size = sum(len(item.bits) for item in batch)
        with self._mutex:
            self._count_batch(size)
        slow_log = obs.slow_log if obs is not None else None
        # Hoist the threshold so the slow check is one float compare
        # per item (its members share one latency); record() (kwargs
        # build, JSON dump) only runs for actual offenders.
        slow_threshold = (slow_log.threshold_s if slow_log is not None
                          else None)
        deliveries: List[Tuple[_Pending, List[ServedResult], float]] = []
        for items, error, results in outcomes:
            if error is not None:
                for item in items:
                    self._fail_traces(item, error, completed_at)
                    self._complete_error(item, error)
                continue
            start = 0
            for item in items:
                chunk = results[start:start + len(item.bits)]
                start += len(item.bits)
                latency = completed_at - item.enqueued_at
                for trace, result in zip(item.traces or (), chunk):
                    if trace is not None:
                        trace.root.attrs.update(
                            generation=generation, batch_size=size,
                            matches=len(result.matches))
                        obs.tracer.finish(trace, completed_at)
                if slow_threshold is not None and latency >= slow_threshold:
                    for bits, result in zip(item.bits, chunk):
                        slow_log.record(
                            bits=bits, mask=item.mask, latency=latency,
                            generation=generation, batch_size=size,
                            matches=len(result.matches))
                deliveries.append((item, [ServedResult(r, generation, latency)
                                          for r in chunk], latency))
        self._complete_batch(deliveries)
        if obs is not None:
            # One histogram lock acquisition for the whole drain.
            latencies = [latency for _item, served, latency in deliveries
                         for _ in served]
            if latencies:
                obs.record_latencies(latencies)

    def _count_batch(self, size: int) -> None:
        """Count one dispatch of ``size`` requests; caller holds _mutex."""
        self._batches += 1
        self._batch_sizes[size] += 1
        if size > 1:
            self._coalesced += size
        else:
            self._direct += 1

    def _complete_batch(
            self,
            deliveries: "List[Tuple[_Pending, List[ServedResult], float]]"
    ) -> None:
        """Deliver one drain's results with a single counter-mutex hold.

        Counting happens before any future resolves: a caller reading
        stats right after its result arrives must see itself served.
        A burst item fills its slice of the burst's results in one slice
        assignment, and the burst's last item resolves the shared
        future; burst bookkeeping stays under the mutex because close()'s
        rejection path may race the dispatcher on items of the same
        burst.
        """
        singles: "List[Tuple[Future[ServedResult], ServedResult]]" = []
        resolved: List[_Burst] = []
        with self._mutex:
            for item, served, latency in deliveries:
                burst = item.burst
                if burst is None:
                    # Cancelled-while-queued futures drop out here;
                    # nothing to deliver, nothing to count.
                    if not item.future.set_running_or_notify_cancel():
                        continue
                    singles.append((item.future, served[0]))
                else:
                    burst.results[item.slot:item.slot + len(served)] = served
                    burst.remaining -= 1
                    if burst.remaining == 0:
                        resolved.append(burst)
                self._served += len(served)
                self._latencies.record_many(latency, len(served))
        for future, result in singles:
            future.set_result(result)
        for burst in resolved:
            try:
                if burst.error is not None:
                    burst.future.set_exception(burst.error)
                else:
                    burst.future.set_result(burst.results)
            except InvalidStateError:
                pass  # the burst caller cancelled; results are dropped

    def _complete_error(self, item: _Pending,
                        error: BaseException) -> None:
        burst = item.burst
        if burst is None:
            if not item.future.set_running_or_notify_cancel():
                return
            with self._mutex:
                self._failed += 1
            item.future.set_exception(error)
            return
        with self._mutex:
            self._failed += len(item.bits)
            if burst.error is None:
                burst.error = error
            burst.remaining -= 1
            resolve = burst.remaining == 0
        if resolve:
            try:
                burst.future.set_exception(burst.error)
            except InvalidStateError:
                pass  # the burst caller cancelled; the error is dropped

    # -- telemetry ---------------------------------------------------------------

    @property
    def obs(self) -> "Optional[Observability]":
        """The observability bundle this service feeds, if any."""
        return self._obs

    @property
    def stats(self) -> ServiceStats:
        # The store generation is shared arena state: read it under the
        # RWLock like every other store access (FCA002), and *outside*
        # the mutex — write() holds the write lock with the mutex
        # released, so nesting rw inside mutex here would let a
        # monitoring poll stall the queue behind an in-flight write.
        with self._rw.read_locked():
            generation = self.store.generation
        # Copy under the mutex, compute outside it: percentiles sort
        # the (bounded) latency window, and the submit/dispatch hot
        # path must not stall behind a monitoring poll.
        with self._mutex:
            sample = self._latencies.snapshot()
            counters = dict(
                submitted=self._submitted, served=self._served,
                failed=self._failed, overloads=self._overloads,
                queue_depth=self._depth,
                max_queue_depth=self._max_queue_depth,
                batches=self._batches,
                batch_size_hist=dict(self._batch_sizes),
                coalesced=self._coalesced, direct=self._direct,
                writes=self._writes,
                generation=generation)
        return ServiceStats(
            p50_latency=LatencyReservoir.percentile(sample, 50.0),
            p99_latency=LatencyReservoir.percentile(sample, 99.0),
            latency_samples=len(sample),
            timestamp=time.time(),
            uptime_s=time.perf_counter() - self._started_mono,
            **counters)

    def __repr__(self) -> str:  # pragma: no cover
        state = "closed" if self.closed else "open"
        return (f"<SearchService {state} store={self.store!r} "
                f"max_batch={self.max_batch} max_wait={self.max_wait} "
                f"max_queue={self.max_queue}>")
