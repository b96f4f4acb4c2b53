"""Multi-process serving: shared-memory fabric + consistent-hash front end.

The step from "fast on one core" to "heavy traffic from millions of
users": the contiguous planes arena moves into an mmap-backed shared
segment (:class:`SharedArena`), N worker processes serve
``search_batch`` from zero-copy views (:class:`~.replica.Replica`),
and the single writer publishes mutations seqlock-style — generation
word bumped odd before the mutation, even after, readers retrying torn
windows.  :class:`ClusterBackend` packages the writer + worker pool
behind the standard store-backend contract (so the cross-backend
conformance battery covers it verbatim), routing queries by
:class:`HashRing`; :class:`ClusterService` is the
:class:`~fecam.service.SearchService` over it, read lock included.

Failure modes, by design: a dead worker respawns (or its hash arc
moves to survivors); a dead writer fails writes while reads keep
serving the last published generation; a writer dead *mid-window* is
the one unrecoverable read state, surfaced as a typed
:class:`~fecam.errors.WorkerUnavailable` timeout, never a torn view.
"""

from .backend import ClusterBackend, resolve_start_method
from .replica import Replica
from .ring import HashRing
from .service import ClusterService
from .shm import SharedArena, default_shm_dir
from .worker import WorkerSpec, worker_main

__all__ = [
    "ClusterBackend", "ClusterService", "HashRing", "Replica",
    "SharedArena", "WorkerSpec", "default_shm_dir", "resolve_start_method",
    "worker_main",
]
