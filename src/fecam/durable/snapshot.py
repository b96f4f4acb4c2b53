"""Generation-keyed arena snapshots.

A snapshot is one frame (see :mod:`fecam.durable.records`) holding the
store's full state at a write generation: a metadata dict (generation,
next sequence number, the resolved :class:`StoreConfig`, and every
entry's placement) plus the backend's contiguous
:class:`~fecam.planes.TernaryPlanes` buffers copied wholesale.  Restore
is the mirror image — load the planes in one shot, rebuild the
allocators and key maps around them — so it costs one bulk copy, not
one insert per entry.

Snapshots are written to a temp file, fsynced, and atomically renamed
to ``snap-<generation:016d>.snap``; the directory entry is fsynced too,
so a crash leaves either the complete new snapshot or none.  Corrupt
snapshots (CRC/magic/length damage) are detected at load and recovery
falls back to the next older candidate.
"""

from __future__ import annotations

import os

from typing import Any, Dict, List, Optional, Tuple

from ..errors import DurabilityError
from . import crash as _crash
from .records import SNAP_MAGIC, encode_frame, read_single_frame

__all__ = ["write_snapshot", "load_snapshot", "snapshot_candidates",
           "snapshot_path"]

#: (key, word, priority, payload, seq, bank, row) rows — the exact
#: placement record the restore classmethods and the reshard WAL record
#: share.
Placement = Tuple[Any, str, float, Any, int, int, int]


def snapshot_path(directory: str, generation: int) -> str:
    return os.path.join(directory, f"snap-{generation:016d}.snap")


def placements_of(backend: Any) -> List[Placement]:
    """Every live entry's full placement row, priority order."""
    return [(m.key, m.word, m.priority, m.payload, m.seq, m.bank, m.row)
            for m in backend.entries()]


def write_snapshot(directory: str, *, generation: int, seq: int,
                   config: Any, backend: Any,
                   crash_point: Optional[_crash.CrashPoint] = None) -> str:
    """Serialize one store state; returns the final snapshot path.

    The caller owns consistency: the store must not mutate while the
    buffers are copied (the durable store takes this under the read
    lock, so snapshots ride alongside searches but never alongside a
    writer).
    """
    cp = crash_point
    _crash.fire(cp, "snapshot.before")
    planes = backend.fabric.arena
    meta: Dict[str, Any] = {
        "generation": generation,
        "seq": seq,
        "config": config,
        "backend": backend.name,
        "entries": placements_of(backend),
    }
    payload = (meta, planes.value.copy(), planes.care.copy(),
               planes.valid.copy())
    frame = SNAP_MAGIC + encode_frame(generation, payload)
    final = snapshot_path(directory, generation)
    if cp is not None and cp.check("snapshot.torn"):
        # Model a non-atomic writer dying mid-file: half a frame lands
        # at the *final* name, which load_snapshot must reject and
        # recovery must fall back from.
        with open(final, "wb") as fh:
            fh.write(frame[:max(1, len(frame) // 2)])
            fh.flush()
        cp.crash("snapshot.torn")
    tmp = final + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(frame)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, final)
    _fsync_directory(directory)
    _crash.fire(cp, "snapshot.after")
    return final


def _fsync_directory(directory: str) -> None:
    # Make the rename itself durable (POSIX: the directory entry is
    # separate state from the file contents).
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def snapshot_candidates(directory: str) -> List[str]:
    """Existing snapshot paths, newest generation first."""
    names = sorted((name for name in os.listdir(directory)
                    if name.startswith("snap-")
                    and name.endswith(".snap")), reverse=True)
    return [os.path.join(directory, name) for name in names]


def load_snapshot(path: str) -> Tuple[Dict[str, Any], Tuple[Any, Any, Any]]:
    """Decode one snapshot; raises :class:`DurabilityError` on damage.

    Returns ``(meta, (value, care, valid))``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        generation, payload = read_single_frame(
            data, magic=SNAP_MAGIC, path=path)
        meta, value, care, valid = payload
    except DurabilityError:
        raise
    except Exception as exc:
        raise DurabilityError(f"{path}: undecodable snapshot "
                              f"payload ({exc!r})") from exc
    if meta.get("generation") != generation:
        raise DurabilityError(
            f"{path}: frame generation {generation} disagrees with "
            f"metadata {meta.get('generation')}")
    return meta, (value, care, valid)
