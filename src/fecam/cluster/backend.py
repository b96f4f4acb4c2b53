"""`ClusterBackend` — the store backend that fans reads out to worker
processes over one shared-memory arena.

Topology: this process is the **single writer**.  It owns a
:class:`~fecam.cluster.shm.SharedArena`, runs a normal
:class:`~fecam.store.FabricBackend` whose planes and per-row
priority/seq/live columns live *in* that arena (so every mutation lands
directly in shared memory), and wraps each mutating op in a seqlock
publish window::

    seq -> odd                      # readers start spinning/retrying
    mutate planes + row columns     # the inner fabric writes in place
    seq -> even, generation += 1    # the new state is published

N **reader** worker processes each attach a
:class:`~fecam.cluster.replica.Replica` and search zero-copy.  A burst
is split into contiguous slices, one per live worker; each answers
with the matched arena row ids in priority order, and this process
resolves them to its own published entries (so a cluster result names
the very :class:`~fecam.store.Match` objects ``get()`` returns).  That
is sound while no write runs between the workers' search and the
resolution — the store holds its read lock across a batch search — and
a reply from any other generation raises :class:`ClusterError`.
Failure policy: a dead worker is respawned (or, with ``respawn=False``,
dropped from the live list) and its slice retried; a dead writer
(fault-injected via the ``cluster.publish.*`` crash sites) fails all
further writes while workers keep serving the last published
generation.

Lifecycle hygiene: :meth:`close` stops the workers and unlinks the
arena files, and a ``weakref.finalize`` guard does the same if the
backend is dropped without closing — no orphaned ``/dev/shm`` segments
either way.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import weakref
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Any, Deque, Dict, Hashable, List, Optional, Sequence, Tuple

from .. import errors as _errors
from ..durable.crash import CrashPoint
from ..durable.crash import fire as _fire_crash
from ..errors import (ClusterError, ClusterWriterFailed, OperationError,
                      SimulatedCrash, WorkerUnavailable)
from ..store.backend import SearchBackend
from ..store.config import StoreConfig
from ..store.fabric import FabricBackend
from ..store.result import Match, QueryResult
from .shm import SharedArena
from .worker import WorkerSpec, worker_main

__all__ = ["ClusterBackend", "resolve_start_method"]

_SEND_RETRIES = 3

#: Seconds past the worker's own ``read_timeout`` the parent waits for a
#: reply before it declares the worker hung.  A live worker answers (or
#: reports a typed seqlock timeout) within ``read_timeout``; the slack
#: covers queueing, the pipe, and the boot of a just-respawned worker
#: (its first request waits in the pipe while the interpreter starts).
#: Tests shorten it.
REPLY_SLACK_S = 10.0


def resolve_start_method(requested: Optional[str] = None) -> str:
    """Worker start method: explicit arg > ``FECAM_CLUSTER_START`` env >
    ``spawn``.

    ``fork`` is opt-in only: a worker forked after the parent has run an
    OpenMP region (the compiled kernel on a multi-core host) inherits
    libgomp's pool state without its threads and blocks forever.
    """
    method = (requested or os.environ.get("FECAM_CLUSTER_START")
              or "spawn")
    available = multiprocessing.get_all_start_methods()
    if method not in available:
        raise OperationError(
            f"start method {method!r} unavailable; one of {available}")
    return method


def _map_worker_error(type_name: str, message: str) -> Exception:
    """Rehydrate a worker-side exception by type name.

    Unknown names degrade to :class:`ClusterError` — the worker stays a
    black box, but typed errors (validation, seqlock timeout) cross the
    process boundary intact.
    """
    cls = getattr(_errors, type_name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        return cls(message)
    return ClusterError(f"worker error {type_name}: {message}")


class _WorkerHandle:
    """Parent-side endpoint for one worker process.

    Requests pipeline: ``request`` appends a future and sends under one
    lock (so FIFO pairing holds across threads), a dedicated reader
    thread drains responses in order.  Connection loss fails every
    in-flight future with :class:`WorkerUnavailable`.
    """

    def __init__(self, spec: WorkerSpec, ctx) -> None:
        self.spec = spec
        self.worker_id = spec.worker_id
        self.restarts = 0
        self._ctx = ctx
        self._lock = threading.Lock()
        self._respawn_lock = threading.Lock()
        self._pending: Deque[Future] = deque()
        self._alive = False
        self.process = None
        self.conn = None
        self._start()

    def _start(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        self.process = self._ctx.Process(
            target=worker_main, args=(self.spec, child_conn), daemon=True,
            name=f"fecam-cluster-w{self.worker_id}")
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self._alive = True
        reader = threading.Thread(
            target=self._drain, args=(parent_conn,), daemon=True,
            name=f"fecam-cluster-w{self.worker_id}-rx")
        reader.start()

    def _drain(self, conn) -> None:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError, ValueError, TypeError):
                # EOFError/OSError: worker died or pipe closed.
                # ValueError/TypeError: close() nulled the connection's
                # handle under a blocked recv — same thing, racier.
                break
            with self._lock:
                fut = self._pending.popleft() if self._pending else None
            if fut is not None:
                fut.set_result(msg)
        with self._lock:
            if conn is self.conn:
                self._alive = False
            orphans = list(self._pending)
            self._pending.clear()
        for fut in orphans:
            fut.set_exception(WorkerUnavailable(
                f"worker {self.worker_id} connection lost"))

    @property
    def alive(self) -> bool:
        return self._alive

    def request(self, msg: Tuple[Any, ...]) -> "Future[Tuple[Any, ...]]":
        fut: Future = Future()
        with self._lock:
            if not self._alive:
                raise WorkerUnavailable(
                    f"worker {self.worker_id} is not running")
            self._pending.append(fut)
            try:
                self.conn.send(msg)
            except (BrokenPipeError, OSError):
                self._pending.pop()
                self._alive = False
                raise WorkerUnavailable(
                    f"worker {self.worker_id} pipe is broken") from None
        return fut

    def respawn(self, hung=None) -> None:
        """Replace a dead worker process (no-op if it is healthy).

        ``hung`` is the process a caller watched time out: it is killed
        first, but only while it is still the current one — two callers
        timing out on one wedged worker must not kill its replacement.
        """
        with self._respawn_lock:
            if hung is not None and hung is self.process:
                self.terminate(kill=True)
            if self._alive and self.process is not None \
                    and self.process.is_alive():
                return
            self.terminate()
            self.restarts += 1
            self._start()

    def stop(self, timeout: float = 2.0) -> None:
        """Graceful shutdown: ask, then insist."""
        try:
            fut = self.request(("stop",))
            fut.result(timeout=timeout)
        except Exception:
            pass
        self.terminate(timeout)

    def terminate(self, timeout: float = 2.0, *,
                  kill: bool = False) -> None:
        """Stop the process: SIGTERM, then SIGKILL if it lingers.
        ``kill`` skips straight to SIGKILL — a stopped or wedged
        process never gets to act on anything gentler."""
        with self._lock:
            self._alive = False
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
        proc = self.process
        if proc is not None and proc.is_alive():
            if not kill:
                proc.terminate()
                proc.join(timeout)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout)


def _finalize_cluster(arena: SharedArena,
                      handles: Dict[int, _WorkerHandle]) -> None:
    """GC/atexit guard: never leak processes or /dev/shm files."""
    for handle in handles.values():
        try:
            handle.terminate(timeout=0.5)
        except Exception:  # pragma: no cover - best effort teardown
            pass
    arena.unlink()


class ClusterBackend(SearchBackend):
    """Store backend serving reads from worker processes.

    Satisfies the exact :class:`SearchBackend` contract — which is what
    lets the cross-backend conformance battery run the *same* tests
    over ``fabric`` / ``cluster`` and demand bit-identical matches,
    energy, and counters.
    """

    name = "cluster"

    def __init__(self, config: StoreConfig, *, workers: int = 2,
                 start_method: Optional[str] = None,
                 shm_dir: Optional[str] = None,
                 read_timeout: float = 5.0,
                 respawn: bool = True):
        super().__init__(config)
        if workers < 1:
            raise OperationError("a cluster needs at least one worker")
        self.start_method = resolve_start_method(start_method)
        self.read_timeout = read_timeout
        self._respawn_workers = respawn
        self._write_lock = threading.Lock()
        self._writer_failed = False
        self._generation = 0
        #: Test seams: an armed CrashPoint models the writer dying at a
        #: ``cluster.publish.*`` site; ``publish_hook`` (site -> None)
        #: lets the torn-read tests stall mid-window.
        self.crash_point: Optional[CrashPoint] = None
        self.publish_hook = None
        self.arena = SharedArena.create(
            rows=config.banks * config.rows_per_bank, width=config.width,
            base_dir=shm_dir)
        self.inner = FabricBackend(config, arena=self.arena.planes())
        # The sanitizer's duck-typed planes discovery looks for
        # ``backend.fabric`` — expose the writer-side fabric under the
        # same name so FECAM_SANITIZE=1 instruments shared planes too.
        self.fabric = self.inner.fabric
        ctx = multiprocessing.get_context(self.start_method)
        #: Worker ids that take slices of a burst (replaced under
        #: ``_live_lock``, never mutated, when ``respawn=False`` drops a
        #: failed worker).
        self.live_workers: List[int] = list(range(workers))
        self._live_lock = threading.Lock()
        # Rotates the first slice, so short bursts spread over workers.
        self._turns = itertools.count()
        self._handles: Dict[int, _WorkerHandle] = {}
        for worker_id in range(workers):
            spec = WorkerSpec(worker_id=worker_id,
                              directory=self.arena.directory,
                              config=config, read_timeout=read_timeout)
            self._handles[worker_id] = _WorkerHandle(spec, ctx)
        self._finalizer = weakref.finalize(
            self, _finalize_cluster, self.arena, self._handles)
        self._closed = False

    # -- writer: seqlock publication ---------------------------------------------

    def _fire(self, site: str) -> None:
        hook = self.publish_hook
        if hook is not None:
            hook(site)
        _fire_crash(self.crash_point, site)

    def _mutate(self, fn):
        """Run one mutating op inside a publish window.

        Three outcomes: success publishes ``generation + 1``; a
        validation error (duplicate key, capacity, bad word — the inner
        backend applies nothing) closes the window with the generation
        untouched, so readers never notice; a simulated writer death
        marks the writer failed — and if it struck *inside* the window
        the seq word stays odd, which readers surface as a typed
        timeout rather than a torn view.
        """
        if self._writer_failed:
            raise ClusterWriterFailed(
                "cluster writer has failed; reads continue from the "
                "last published generation")
        with self._write_lock:
            try:
                self._fire("cluster.publish.before")
            except SimulatedCrash:
                self._writer_failed = True
                raise
            self.arena.begin_publish()
            try:
                out = fn()
                self._fire("cluster.publish.mid")
                self._generation += 1
                self.arena.end_publish(generation=self._generation)
            except SimulatedCrash:
                self._writer_failed = True
                raise
            except BaseException:
                self.arena.end_publish()
                raise
            try:
                self._fire("cluster.publish.after")
            except SimulatedCrash:
                self._writer_failed = True
                raise
            return out

    # -- content lifecycle (writer ops) ------------------------------------------

    def insert(self, word: str, key: Hashable, priority: float,
               payload: Any, seq: int) -> Match:
        return self._mutate(
            lambda: self.inner.insert(word, key, priority, payload, seq))

    def insert_many(self, words: Sequence[str], keys: Sequence[Hashable],
                    priorities: Sequence[float], payloads: Sequence[Any],
                    seqs: Sequence[int]) -> List[Match]:
        return self._mutate(
            lambda: self.inner.insert_many(words, keys, priorities,
                                           payloads, seqs))

    def delete(self, key: Hashable) -> Match:
        return self._mutate(lambda: self.inner.delete(key))

    def update(self, key: Hashable, word: str,
               payload: Any = None) -> Match:
        return self._mutate(
            lambda: self.inner.update(key, word, payload=payload))

    def adopt_snapshot(self, planes_state, entries: Sequence[Match]) -> None:
        """Load a recovered arena and its entries wholesale (one window).

        The durable-recovery seam: ``recover()`` rebuilds a store, and
        this publishes its ``(value, care, valid)`` planes and the row
        columns of its entries into the shared arena, so every worker
        observes post-recovery content.
        """
        def load():
            self.inner.fabric.arena.load(*planes_state)
            self.inner.fabric.adopt_entries(entries, write=False)
        self._mutate(load)

    @classmethod
    def from_store(cls, store, **kwargs) -> "ClusterBackend":
        """Build a cluster seeded with an existing fabric store's state
        (e.g. the store :func:`fecam.durable.recover` just rebuilt)."""
        src = store.backend
        if not isinstance(src, FabricBackend):
            raise OperationError(
                "from_store needs a fabric-backed store to adopt")
        arena = src.fabric.arena
        backend = cls(store.config, **kwargs)
        backend.adopt_snapshot((arena.value, arena.care, arena.valid),
                               src.entries())
        return backend

    # -- reads (writer-side bookkeeping) -----------------------------------------

    def get(self, key: Hashable) -> Match:
        return self.inner.get(key)

    def entries(self) -> List[Match]:
        return self.inner.entries()

    def __contains__(self, key: Hashable) -> bool:
        return key in self.inner

    @property
    def capacity(self) -> int:
        return self.inner.capacity

    @property
    def occupancy(self) -> int:
        return self.inner.occupancy

    @property
    def energy_total(self) -> float:
        """Writer-side write energy plus search energy the workers
        actually spent (collected over the stats RPC)."""
        total = self.inner.energy_total
        for telemetry in self.worker_telemetry():
            total += telemetry.get("energy", 0.0)
        return total

    @property
    def generation_published(self) -> int:
        return self.arena.generation

    @property
    def writer_failed(self) -> bool:
        return self._writer_failed

    @property
    def workers(self) -> int:
        return len(self._handles)

    # -- search fan-out ----------------------------------------------------------

    def _handle_failure(self, worker_id: int, hung=None) -> None:
        """A worker failed — died, or went silent (``hung`` is then the
        process to kill): respawn it in place, or drop it from
        :attr:`live_workers`."""
        if self._closed:
            raise WorkerUnavailable("cluster backend is closed")
        handle = self._handles[worker_id]
        if self._respawn_workers:
            handle.respawn(hung)
        else:
            if hung is not None:
                handle.terminate(kill=True)
            with self._live_lock:
                self.live_workers = [w for w in self.live_workers
                                     if w != worker_id]

    def scatter_search(self, queries: Sequence[str],
                       mask: Optional[str] = None
                       ) -> List[Tuple[int, List[int], float, float]]:
        """Split the batch over the live workers; returns per-query
        ``(generation, rows, energy, latency)``, ``rows`` the matched
        arena row ids in priority order.

        One round sends each live worker a contiguous slice of the
        outstanding queries and pairs the responses; queries stranded by
        a death — or by a worker that stays silent past ``read_timeout +
        REPLY_SLACK_S`` and is killed for it — are split again (over the
        respawned worker, or the survivors) and retried.  Rounds running
        out raises :class:`WorkerUnavailable`, never a bare timeout.
        """
        queries = list(queries)
        out: List[Any] = [None] * len(queries)
        remaining = list(range(len(queries)))
        for attempt in range(_SEND_RETRIES + 1):
            if not remaining:
                break
            live = self.live_workers
            if not live:
                raise WorkerUnavailable("no cluster workers remain")
            turn = next(self._turns) % len(live)
            live = live[turn:] + live[:turn]
            in_flight = []
            stranded: List[int] = []
            n, k = len(remaining), len(live)
            for w, worker_id in enumerate(live):
                indices = remaining[n * w // k:n * (w + 1) // k]
                if not indices:
                    continue
                handle = self._handles[worker_id]
                process = handle.process
                try:
                    fut = handle.request(
                        ("search", [queries[i] for i in indices], mask))
                except WorkerUnavailable:
                    self._handle_failure(worker_id)
                    stranded.extend(indices)
                    continue
                in_flight.append((worker_id, indices, fut, process))
            for worker_id, indices, fut, process in in_flight:
                try:
                    msg = fut.result(
                        timeout=self.read_timeout + REPLY_SLACK_S)
                except WorkerUnavailable:
                    self._handle_failure(worker_id)
                    stranded.extend(indices)
                    continue
                except FutureTimeout:
                    self._handle_failure(worker_id, hung=process)
                    stranded.extend(indices)
                    continue
                if msg[0] == "error":
                    raise _map_worker_error(msg[1], msg[2])
                _, generation, rows, offsets, energies, latencies = msg
                for j, i in enumerate(indices):
                    out[i] = (generation, rows[offsets[j]:offsets[j + 1]],
                              energies[j], latencies[j])
            remaining = stranded
        if remaining:
            raise WorkerUnavailable(
                f"{len(remaining)} queries undeliverable after "
                f"{_SEND_RETRIES + 1} scatter rounds")
        return out

    def search_batch(self, queries: Sequence[str],
                     mask: Optional[str] = None) -> List[QueryResult]:
        """Scatter, then resolve the workers' rows to this process's
        published entries.  Raises :class:`ClusterError` if a write
        could have moved those entries since the workers searched."""
        queries = list(queries)
        if not queries:
            return []
        generations, hits, energies, latencies = zip(
            *self.scatter_search(queries, mask))
        batch = self.fabric.hydrate(
            queries, mask, list(itertools.chain.from_iterable(hits)),
            [0, *itertools.accumulate(map(len, hits))])
        # Checked after resolving: a write since the workers searched
        # has moved the generation, or still holds the window open.
        arena = self.arena
        if arena.seq & 1 or set(generations) != {arena.generation}:
            raise ClusterError(
                f"workers answered at generation(s) "
                f"{sorted(set(generations))}, but generation "
                f"{arena.generation} is published (seq {arena.seq}): "
                "search the cluster under the store's read lock")
        return batch.results(energies, latencies)

    # -- worker telemetry --------------------------------------------------------

    def worker_telemetry(self) -> List[Dict[str, Any]]:
        """Best-effort stats RPC to every worker (dead ones skipped)."""
        futures = []
        for worker_id, handle in self._handles.items():
            try:
                futures.append((worker_id, handle,
                                handle.request(("stats",))))
            except WorkerUnavailable:
                continue
        out = []
        for worker_id, handle, fut in futures:
            try:
                msg = fut.result(
                    timeout=self.read_timeout + REPLY_SLACK_S)
            except Exception:
                continue
            if msg[0] != "ok":
                continue
            telemetry = dict(msg[1])
            telemetry["worker_id"] = worker_id
            telemetry["restarts"] = handle.restarts
            telemetry["alive"] = handle.alive
            out.append(telemetry)
        return out

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Stop workers and unlink the shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        for handle in self._handles.values():
            handle.stop()
        self.arena.unlink()

    def __repr__(self) -> str:
        return (f"<ClusterBackend {len(self._handles)} workers over "
                f"{self.config.banks}x{self.config.rows_per_bank}x"
                f"{self.width}, gen {self.arena.generation}, "
                f"{self.start_method}>")
