"""`DurableCamStore` — a :class:`CamStore` with a WAL and snapshots.

Every mutating operation first applies in memory (through the plain
store path, so served results are bit-identical to a volatile store),
then appends exactly one resolved record to the write-ahead log tagged
with the post-op write generation.  Records are *resolved*: auto keys,
default priorities, and sequence numbers are already assigned, so
replay is pure mechanism — no allocator decisions happen twice.

Snapshots (:meth:`DurableCamStore.snapshot`) serialize the backend's
contiguous plane buffers plus the key/priority map under the read lock;
:func:`recover` loads the newest valid snapshot and replays the WAL
tail to the last intact generation, truncating a torn tail on the way.
The fault-injection suite proves recovery bit-identical to a serial
replay of the surviving record prefix for every crash site.
"""

from __future__ import annotations

import os
import threading
import time

from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Sequence, Tuple

from ..analysis.markers import requires_lock
from ..errors import DurabilityError
from ..obs.trace import active as trace_active, stage as trace_stage
from ..store import CamStore
from ..store.config import StoreConfig
from ..store.fabric import FabricBackend
from ..store.result import Match
from .crash import CrashPoint
from .snapshot import (load_snapshot, snapshot_candidates, write_snapshot)
from .wal import FSYNC_POLICIES, WriteAheadLog, list_segments

__all__ = ["DurabilityConfig", "DurableCamStore", "apply_op", "recover"]


@dataclass(frozen=True)
class DurabilityConfig:
    """Knobs of the persistence layer (all orthogonal to StoreConfig).

    ``snapshot_every`` auto-snapshots after that many logged operations
    (0 disables; explicit :meth:`DurableCamStore.snapshot` calls always
    work).  ``compact_on_snapshot`` deletes WAL segments fully covered
    by the new snapshot — fault tests turn it off so the whole journal
    stays available as the replay reference.
    """

    directory: str
    fsync: str = "interval"             # one of wal.FSYNC_POLICIES
    fsync_interval_s: float = 0.05
    segment_bytes: int = 1 << 22
    snapshot_every: int = 0
    compact_on_snapshot: bool = True

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise DurabilityError(
                f"fsync must be one of {FSYNC_POLICIES}, "
                f"got {self.fsync!r}")
        if self.snapshot_every < 0:
            raise DurabilityError("snapshot_every must be non-negative")


def _restored_backend(config: StoreConfig, placements,
                      planes_state=None):
    """Build a backend at recorded placements (see the classmethods)."""
    config = config.resolved()
    if planes_state is None:
        return FabricBackend.from_placements(config, placements)
    return FabricBackend.from_snapshot(config, planes_state, placements)


class DurableCamStore(CamStore):
    """A store whose every mutation survives a crash.

    >>> import tempfile
    >>> from fecam.store import StoreConfig
    >>> d = tempfile.mkdtemp()
    >>> store = DurableCamStore(StoreConfig(width=8, rows=4,
    ...                                     fidelity="analytical"),
    ...                         durability=DurabilityConfig(directory=d))
    >>> _ = store.insert("1010XXXX", key="rule-a")
    >>> store.close()
    >>> recovered = recover(d)
    >>> recovered.search_first("10101111").key
    'rule-a'
    """

    def __init__(self, config: Optional[StoreConfig] = None, *,
                 durability: DurabilityConfig,
                 backend=None, crash_point: Optional[CrashPoint] = None,
                 _recovered: Optional[Tuple[int, int, int]] = None,
                 **overrides):
        super().__init__(config, backend=backend, **overrides)
        self.durability = durability
        self.crash_point = crash_point
        if _recovered is None and os.path.isdir(durability.directory) \
                and list_segments(durability.directory):
            raise DurabilityError(
                f"{durability.directory} already holds a WAL; "
                "recover() it instead of constructing a fresh store")
        self.wal = WriteAheadLog(
            durability.directory, fsync=durability.fsync,
            fsync_interval_s=durability.fsync_interval_s,
            segment_bytes=durability.segment_bytes,
            crash_point=crash_point)
        # Live reshard drains concurrent writes through these taps (a
        # tap is a plain list; appends happen under the write lock).
        self._taps: List[List[Tuple[int, Any]]] = []
        self._reshard_guard = threading.Lock()
        self._ops_since_snapshot = 0
        self._recovered_records = 0
        self.snapshots_taken = 0
        self.on_snapshot = None  # optional tap: fn(seconds)
        if _recovered is None:
            self._snapshot_generation = -1
            # Baseline snapshot: recovery always has a floor to stand
            # on, even before the first mutation.
            self.snapshot()
        else:
            snap_gen, generation, seq = _recovered
            self._snapshot_generation = snap_gen
            self._generation = generation
            self._seq = seq

    # -- journaled mutation -------------------------------------------------------

    def _log(self, op: Tuple[Any, ...]) -> None:
        """Append one resolved record at the post-op generation."""
        if trace_active():
            with trace_stage("wal_append"):
                self.wal.append(self._generation, op)
        else:
            # The contextmanager alone costs ~2us; the untraced write
            # path skips it entirely.
            self.wal.append(self._generation, op)
        for tap in self._taps:
            tap.append((self._generation, op))
        self._ops_since_snapshot += 1
        every = self.durability.snapshot_every
        if every and self._ops_since_snapshot >= every:
            self.snapshot()

    @requires_lock("write")
    def insert(self, word: str, key: Optional[Hashable] = None, *,
               priority: Optional[float] = None,
               payload: Any = None) -> Match:
        match = super().insert(word, key=key, priority=priority,
                               payload=payload)
        self._log(("insert", match.word, match.key, match.priority,
                   match.payload, match.seq))
        return match

    @requires_lock("write")
    def insert_many(self, words: Sequence[str],
                    keys: Optional[Sequence[Hashable]] = None, *,
                    priorities: Optional[Sequence[float]] = None,
                    payloads: Optional[Sequence[Any]] = None
                    ) -> List[Match]:
        matches = super().insert_many(words, keys=keys,
                                      priorities=priorities,
                                      payloads=payloads)
        if matches:
            self._log(("insert_many",
                       [m.word for m in matches],
                       [m.key for m in matches],
                       [m.priority for m in matches],
                       [m.payload for m in matches],
                       [m.seq for m in matches]))
        return matches

    @requires_lock("write")
    def delete(self, key: Hashable) -> Match:
        match = super().delete(key)
        self._log(("delete", match.key))
        return match

    @requires_lock("write")
    def update(self, key: Hashable, word: str, *,
               payload: Any = None) -> Match:
        match = super().update(key, word, payload=payload)
        self._log(("update", key, match.word, payload))
        return match

    # -- snapshots ----------------------------------------------------------------

    @requires_lock("read")
    def snapshot(self) -> str:
        """Serialize the current state; returns the snapshot path.

        Runs under the read lock: snapshots ride alongside search
        dispatches, but never alongside a writer (the buffers are
        copied while no mutation is in flight).
        """
        start = time.perf_counter()
        with trace_stage("snapshot"):
            path = write_snapshot(
                self.durability.directory, generation=self._generation,
                seq=self._seq, config=self.config, backend=self.backend,
                crash_point=self.crash_point)
        elapsed = time.perf_counter() - start
        self._snapshot_generation = self._generation
        self._ops_since_snapshot = 0
        self.snapshots_taken += 1
        if self.durability.compact_on_snapshot:
            self.wal.compact(self._generation)
        if self.on_snapshot is not None:
            self.on_snapshot(elapsed)
        return path

    @property
    def snapshot_generation(self) -> int:
        """Generation of the newest snapshot this store wrote."""
        return self._snapshot_generation

    @property
    def recovered_records(self) -> int:
        """WAL records replayed when this store was recovered (0 for a
        freshly constructed store)."""
        return self._recovered_records

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Flush and close the WAL (the store stays readable)."""
        self.wal.close()

    def __enter__(self) -> "DurableCamStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<DurableCamStore backend={self.backend.name} "
                f"{self.capacity}x{self.width} "
                f"gen={self._generation} "
                f"wal={self.durability.directory!r} "
                f"fsync={self.durability.fsync}>")


def apply_op(store: CamStore, op: Tuple[Any, ...]) -> None:
    """Replay one resolved WAL record against a store, backend-level.

    Used by :func:`recover` and by the conformance tests' reference
    replay.  Ops apply beneath the journaling layer (no re-logging),
    advance the write generation by exactly one, and keep the sequence
    counter ahead of every recorded seq — exactly what the live
    mutators did when the record was written.
    """
    kind = op[0]
    if kind == "insert":
        _, word, key, priority, payload, seq = op
        store.backend.insert(word, key, priority, payload, seq)
        store._seq = max(store._seq, seq + 1)
    elif kind == "insert_many":
        _, words, keys, priorities, payloads, seqs = op
        store.backend.insert_many(words, keys, priorities, payloads,
                                  seqs)
        store._seq = max(store._seq, max(seqs) + 1)
    elif kind == "delete":
        store.backend.delete(op[1])
    elif kind == "update":
        _, key, word, payload = op
        store.backend.update(key, word, payload)
    elif kind == "reshard":
        _, config, placements = op
        store.config = config
        store.backend = _restored_backend(config, placements)
        store._seq = max(store._seq,
                         1 + max((p[4] for p in placements), default=-1))
    else:
        raise DurabilityError(f"unknown WAL record kind {kind!r}")
    store._wrote()


def recover(directory: str, *,
            crash_point: Optional[CrashPoint] = None,
            **durability_overrides) -> DurableCamStore:
    """Rebuild a :class:`DurableCamStore` from its directory.

    Repairs the WAL's torn tail (the expected crash shape), loads the
    newest snapshot that decodes cleanly (older candidates are
    fallbacks for a snapshot torn mid-write), then replays every WAL
    record past the snapshot's generation in lockstep — any gap or
    desynchronization raises :class:`DurabilityError` rather than
    silently serving wrong content.
    """
    durability = DurabilityConfig(directory=directory,
                                  **durability_overrides)
    wal = WriteAheadLog(directory, fsync=durability.fsync,
                        fsync_interval_s=durability.fsync_interval_s,
                        segment_bytes=durability.segment_bytes)
    records = wal.scan(repair=True)
    wal.close()
    meta = None
    planes_state = None
    errors: List[str] = []
    for path in snapshot_candidates(directory):
        try:
            meta, planes_state = load_snapshot(path)
            break
        except DurabilityError as exc:
            errors.append(str(exc))
    if meta is None:
        detail = ("; ".join(errors) if errors
                  else "no snapshot files present")
        raise DurabilityError(
            f"{directory}: no valid snapshot to recover from ({detail})")
    backend = _restored_backend(meta["config"], meta["entries"],
                                planes_state)
    snap_gen = meta["generation"]
    store = DurableCamStore(
        backend=backend, durability=durability, crash_point=crash_point,
        _recovered=(snap_gen, snap_gen, meta["seq"]))
    replayed = 0
    for generation, op in records:
        if generation <= snap_gen:
            continue  # already folded into the snapshot
        if generation != store._generation + 1:
            raise DurabilityError(
                f"{directory}: WAL resumes at generation {generation} "
                f"but the store stands at {store._generation} — "
                "records are missing")
        apply_op(store, op)
        if store._generation != generation:
            raise DurabilityError(
                f"{directory}: replaying generation {generation} moved "
                f"the store to {store._generation} — replay "
                "desynchronized")
        replayed += 1
    store._recovered_records = replayed
    return store
