"""Multi-process serving: one shared-memory fabric, N searching workers.

The step from "fast on one core" to "heavy traffic from millions of
users": the contiguous planes arena, with the fabric's per-row
priority/seq/live columns, moves into an mmap-backed shared segment
(:class:`SharedArena`); N worker processes search it from zero-copy
views (:class:`~.replica.Replica`) and answer with matched arena row
ids; the single writer publishes mutations seqlock-style — sequence
word bumped odd before the mutation, even after, readers retrying torn
windows.  :class:`ClusterBackend` packages the writer + worker pool
behind the standard store-backend contract (so the cross-backend
conformance battery covers it verbatim): it splits each burst into
contiguous slices over the live workers and resolves their rows to its
own published entries.  :class:`ClusterService` is the
:class:`~fecam.service.SearchService` over it, read lock included.

Failure modes, by design: a dead worker respawns (or its slices move
to survivors); a dead writer fails writes while reads keep serving the
last published generation; a writer dead *mid-window* is the one
unrecoverable read state, surfaced as a typed
:class:`~fecam.errors.WorkerUnavailable` timeout, never a torn view.
"""

from .backend import ClusterBackend, resolve_start_method
from .replica import Replica
from .service import ClusterService
from .shm import SharedArena, default_shm_dir
from .worker import WorkerSpec, worker_main

__all__ = [
    "ClusterBackend", "ClusterService", "Replica", "SharedArena",
    "WorkerSpec", "default_shm_dir", "resolve_start_method", "worker_main",
]
