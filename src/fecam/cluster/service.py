"""`ClusterService` — :class:`~fecam.service.SearchService` over a
:class:`~fecam.cluster.ClusterBackend` store.

All but the burst door is the in-process service: its dispatcher, its
writer lock, its :class:`~fecam.service.ServedResult`.  Reads run under
the read lock and are tagged with ``store.generation`` — with writers
excluded, the generation every worker serves under its seqlock.

``search_many`` scatters a plain-string burst on the caller's thread:
the kernel runs in the workers, so the one dispatcher thread would only
serialise parent-side work and keep one scatter in flight.  The workers
answer with arena rows, which the store resolves to its published
entries under the same read lock, so every door returns the objects
``get()`` does.  Results are frozen like the dispatcher's (a copy of
each match list), and its
``timeout`` does not bound the scatter: the workers' ``read_timeout``
rounds do.  Bursts of :class:`~fecam.store.Query` objects (per-query
masks) still go through the dispatcher, which groups them by mask.

A hung worker stalls writers, and every read behind a waiting writer,
for up to ``_SEND_RETRIES + 1`` rounds x workers x (``read_timeout +
REPLY_SLACK_S``) plus respawn time (see ``scatter_search``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Union

from ..errors import OperationError, ServiceClosed
from ..fabric.batch import normalize_queries
from ..functional.engine import check_mask
from ..service.service import SearchService, ServedResult
from ..store import CamStore
from ..store.config import StoreConfig
from ..store.result import Query
from .backend import ClusterBackend

__all__ = ["ClusterService"]


class ClusterService(SearchService):
    """Service front end over one writer + N reader processes.

    Builds and owns a :class:`ClusterBackend` store from ``config``, or
    fronts a given cluster ``store`` (owned only if ``owns_backend``).
    The store's query cache is never consulted.
    """

    def __init__(self, store: Optional[CamStore] = None, *,
                 config: Optional[StoreConfig] = None, workers: int = 2,
                 max_batch: int = 256, max_queue: int = 4096,
                 latency_window: int = 4096, start: bool = True,
                 start_method: Optional[str] = None,
                 shm_dir: Optional[str] = None,
                 read_timeout: float = 5.0, respawn: bool = True,
                 owns_backend: Optional[bool] = None):
        if store is None:
            if config is None:
                raise OperationError(
                    "ClusterService needs a store or a StoreConfig")
            store = CamStore(backend=ClusterBackend(
                config, workers=workers, start_method=start_method,
                shm_dir=shm_dir, read_timeout=read_timeout,
                respawn=respawn))
            if owns_backend is None:
                owns_backend = True
        backend = store.backend
        if not isinstance(backend, ClusterBackend):
            raise OperationError(
                "ClusterService fronts a ClusterBackend store; got "
                f"{type(backend).__name__}")
        self.backend: ClusterBackend = backend
        self._owns_backend = bool(owns_backend)
        super().__init__(store, max_batch=max_batch, max_queue=max_queue,
                         start=start, latency_window=latency_window,
                         use_cache=False)

    def close(self, *, drain: bool = True,
              timeout: Optional[float] = None) -> bool:
        """Close the service, then an owned backend.  Idempotent."""
        stopped = super().close(drain=drain, timeout=timeout)
        if self._owns_backend:
            self.backend.close()
        return stopped

    def search_many(self, queries: Sequence[Union[Query, str]],
                    mask: Optional[str] = None, *,
                    timeout: Optional[float] = None) -> List[ServedResult]:
        """Burst door: one scatter on this thread, one counted batch.

        ``timeout`` bounds only a burst of :class:`Query` objects (it
        rides the dispatcher); a plain-string scatter is bounded by the
        workers' ``read_timeout`` rounds instead.  A malformed mask is
        rejected before the burst counts as submitted, and so is a
        malformed query.
        """
        if not queries:
            return []
        if any(type(query) is not str for query in queries):
            return super().search_many(queries, mask, timeout=timeout)
        if mask is not None:
            check_mask(mask, self.store.width)
        queries = normalize_queries(queries, self.store.width)
        n = len(queries)
        with self._mutex:
            if self._closed:
                raise ServiceClosed("service is closed")
            self._submitted += n
        start = time.perf_counter()
        try:
            with self._rw.read_locked():
                generation = self.store.generation
                results = self.store.search_batch(queries, mask,
                                                  use_cache=False)
        except Exception:
            with self._mutex:
                self._failed += n
            raise
        wall = time.perf_counter() - start
        with self._mutex:
            self._count_batch(n)
            self._served += n
            self._latencies.record_many(wall, n)
        return [ServedResult(r.freeze(), generation, wall)
                for r in results]

    def worker_stats(self) -> List[Dict[str, Any]]:
        """Per-worker telemetry via the stats RPC: searches, energy,
        restarts, pid, the generation each worker currently observes."""
        return self.backend.worker_telemetry()
