"""Online resharding: change bank count under live traffic.

Growing (or shrinking) a store's bank fan-out normally means rebuilding
the backend — seconds of downtime at scale.  :func:`reshard` does it
with a bounded pause instead, in three phases:

1. **Freeze** (read lock): take the live entry list (a true snapshot:
   writes replace entries, never mutate them) and arm a *tap* on the
   durable store's journal, so every write that lands after the freeze
   is captured as a resolved record.  Readers keep serving.
2. **Build** (no lock): construct the new-geometry backend and bulk-load
   the frozen entries in sequence order — the deterministic placement
   replay depends on.  Traffic (reads *and* writes) flows untouched.
3. **Commit** (write lock): drain the tapped records into the new
   backend, record the final placements, swap the backend under
   ``service.write()``, and append one ``reshard`` WAL record carrying
   the new config plus every ``(key, word, priority, payload, seq,
   bank, row)`` placement — replay restores the exact layout without
   re-running any allocator.  The pause is phase 3 alone.

:func:`reshard_inline` is the stop-the-world variant for a bare
:class:`DurableCamStore` with no service in front (tools, recovery
scripts); the caller owns write exclusivity.
"""

from __future__ import annotations

import time

from dataclasses import dataclass, replace as dc_replace
from typing import Any, List, Optional, Tuple

from ..errors import DurabilityError, OperationError
from ..store.backend import SearchBackend
from ..store.config import StoreConfig
from ..store.fabric import FabricBackend
from . import crash as _crash
from .snapshot import placements_of
from .store import DurableCamStore

__all__ = ["ReshardReport", "reshard", "reshard_inline"]


@dataclass(frozen=True)
class ReshardReport:
    """What one reshard did and what it cost."""

    old_banks: int
    new_banks: int
    entries: int          # entries carried over (at freeze time)
    drained_ops: int      # writes tapped during the build and drained
    build_s: float        # phase 2 (no lock held)
    pause_s: float        # phase 3 (write lock held — the user-visible pause)
    total_s: float


def _new_config(config: StoreConfig, banks: int,
                rows: Optional[int]) -> StoreConfig:
    if banks < 1:
        raise OperationError("a store needs at least one bank")
    # backend="auto": a config spelled backend="array" would reject
    # banks > 1 (the field is otherwise inert).
    return dc_replace(config, banks=banks,
                      rows=config.rows if rows is None else rows,
                      backend="auto").resolved()


def _apply_to_backend(backend: SearchBackend, op: Tuple[Any, ...]) -> None:
    """Apply one tapped (resolved) record to the under-construction
    backend — the drain step of the commit phase."""
    kind = op[0]
    if kind == "insert":
        _, word, key, priority, payload, seq = op
        backend.insert(word, key, priority, payload, seq)
    elif kind == "insert_many":
        _, words, keys, priorities, payloads, seqs = op
        backend.insert_many(words, keys, priorities, payloads, seqs)
    elif kind == "delete":
        backend.delete(op[1])
    elif kind == "update":
        _, key, word, payload = op
        backend.update(key, word, payload)
    else:  # pragma: no cover - the single-flight guard excludes reshard
        raise DurabilityError(
            f"cannot drain WAL record kind {kind!r} into a reshard")


def _build_backend(config: StoreConfig, frozen) -> SearchBackend:
    """Phase 2: a new-geometry backend loaded with the frozen entries.

    Entries go in ascending seq through the backend's own bulk path, so
    placement is the same deterministic function of (seq, geometry) a
    fresh store would compute.
    """
    backend = FabricBackend(config)
    entries = sorted(frozen, key=lambda m: m.seq)
    if entries:
        backend.insert_many(
            [m.word for m in entries], [m.key for m in entries],
            [m.priority for m in entries], [m.payload for m in entries],
            [m.seq for m in entries])
    return backend


def _resanitize(service: Any) -> None:
    """Re-wrap the swapped-in backend's planes for the sanitizer.

    ``maybe_sanitize_service`` instrumented the planes the service was
    *constructed* with; after a backend swap the new arena would run
    unchecked.  No-op unless the sanitizer is active on this service.
    """
    monitor = getattr(service._rw, "_monitor", None)
    if monitor is None:
        return
    from ..analysis.sanitize import _discover_planes, instrument_planes
    for label, planes in _discover_planes(service.store.backend):
        instrument_planes(planes, monitor, label=label,
                          active=lambda: not service._closed)


def reshard(service: Any, *, banks: int,
            rows: Optional[int] = None,
            crash_point: Optional[_crash.CrashPoint] = None
            ) -> ReshardReport:
    """Change a served store's bank count under live traffic.

    ``service`` is a :class:`~fecam.service.SearchService` over a
    :class:`DurableCamStore`.  Searches are never blocked by the build;
    writes landing during the build are journaled normally *and* tapped,
    then drained into the new backend inside the commit transaction.
    The write-locked pause covers only the drain, the placement record,
    and the swap.
    """
    store = service.store
    if not isinstance(store, DurableCamStore):
        raise DurabilityError(
            "online reshard needs a DurableCamStore (the drain rides "
            "the WAL's resolved records)")
    if crash_point is None:
        crash_point = store.crash_point
    if not store._reshard_guard.acquire(blocking=False):
        raise DurabilityError("a reshard is already in flight")
    t_start = time.perf_counter()
    tap: List[Tuple[int, Any]] = []
    try:
        def freeze(st):
            config = _new_config(st.config, banks, rows)
            # A snapshot: later writes replace entries, never mutate
            # them, so only the tapped records carry what lands next.
            frozen = st.backend.entries()
            # Arm the tap while the read lock excludes writers: no op
            # can slip between the freeze and the first tapped record.
            st._taps.append(tap)
            return st.config.banks, config, frozen

        old_banks, new_config, frozen = service.read(freeze)
        try:
            t_build = time.perf_counter()
            new_backend = _build_backend(new_config, frozen)
            _crash.fire(crash_point, "reshard.build")
            build_s = time.perf_counter() - t_build

            def commit(st):
                t_pause = time.perf_counter()
                # Count before draining: the reshard record logged
                # below lands in the still-armed tap too, and must not
                # inflate the drain tally.
                drained = len(tap)
                for _generation, op in tap[:drained]:
                    _apply_to_backend(new_backend, op)
                placements = placements_of(new_backend)
                _crash.fire(crash_point, "reshard.commit")
                st.config = new_config
                st.backend = new_backend
                st._wrote()
                st._log(("reshard", new_config, placements))
                _resanitize(service)
                return drained, time.perf_counter() - t_pause

            drained_ops, pause_s = service.write(commit)
        finally:
            store._taps.remove(tap)
        _crash.fire(crash_point, "reshard.after")
    finally:
        store._reshard_guard.release()
    return ReshardReport(
        old_banks=old_banks,
        new_banks=new_config.banks, entries=len(frozen),
        drained_ops=drained_ops, build_s=build_s, pause_s=pause_s,
        total_s=time.perf_counter() - t_start)


def reshard_inline(store: DurableCamStore, *, banks: int,
                   rows: Optional[int] = None,
                   crash_point: Optional[_crash.CrashPoint] = None
                   ) -> ReshardReport:
    """Stop-the-world reshard of an unserved durable store.

    The caller owns exclusivity (no concurrent readers or writers);
    with no traffic to protect there is nothing to tap, so the whole
    operation is one build-and-swap.
    """
    if not isinstance(store, DurableCamStore):
        raise DurabilityError("reshard_inline needs a DurableCamStore")
    if crash_point is None:
        crash_point = store.crash_point
    if not store._reshard_guard.acquire(blocking=False):
        raise DurabilityError("a reshard is already in flight")
    t_start = time.perf_counter()
    try:
        old_banks = store.config.banks
        new_config = _new_config(store.config, banks, rows)
        frozen = store.backend.entries()
        t_build = time.perf_counter()
        new_backend = _build_backend(new_config, frozen)
        _crash.fire(crash_point, "reshard.build")
        build_s = time.perf_counter() - t_build
        t_pause = time.perf_counter()
        placements = placements_of(new_backend)
        _crash.fire(crash_point, "reshard.commit")
        store.config = new_config
        store.backend = new_backend
        store._wrote()
        store._log(("reshard", new_config, placements))
        pause_s = time.perf_counter() - t_pause
        _crash.fire(crash_point, "reshard.after")
    finally:
        store._reshard_guard.release()
    return ReshardReport(
        old_banks=old_banks, new_banks=new_config.banks,
        entries=len(frozen), drained_ops=0, build_s=build_s,
        pause_s=pause_s, total_s=time.perf_counter() - t_start)
