"""Runtime concurrency sanitizer for the serving stack.

The linter (:mod:`fecam.analysis.rules`) proves lock discipline
*lexically*; this module proves it *dynamically*, catching what static
analysis cannot see — aliased planes objects, dynamic call paths, test
doubles.  It is the ThreadSanitizer idea scaled down to the two
invariants this stack actually depends on:

1. **Lockset discipline** — every planes read happens on a thread that
   holds the service RWLock (read or write mode); every planes
   mutation and generation bump happens under the write lock.
2. **Generation discipline** — any mutation that changed plane content
   advanced the write generation (the snapshot-isolation tag and cache
   invalidator).

Enable with ``FECAM_SANITIZE=1`` (collect violations, inspect with
:func:`violations`) or ``FECAM_SANITIZE=raise`` (raise
:class:`SanitizerError` at the offending call, for pinpoint debugging).
When enabled, :class:`~fecam.service.SearchService` instruments itself
at construction: a :class:`LockMonitor` attaches to its RWLock via the
``_monitor`` seam in :mod:`fecam.service.locks`, and every planes
object reachable from the store backend gets per-instance method
wrappers.  Lock-order hazards that would *deadlock* (read->write
upgrade, re-entrant write) always raise — recording them and then
hanging would help nobody.

Overhead when disabled: one env read at service construction, one
``None`` check per lock operation.  The hot path is untouched.
"""

from __future__ import annotations

import os
import threading

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

import numpy as np

from .markers import is_planes_mutator

__all__ = ["SanitizerError", "SanitizerViolation", "enabled",
           "raise_mode", "violations", "reset", "LockMonitor",
           "instrument_planes", "sanitize_service",
           "maybe_sanitize_service"]

_ENV_VAR = "FECAM_SANITIZE"
_ON_VALUES = {"1", "true", "on", "yes", "raise"}

#: Planes methods that read derived/stored state (require >= read lock).
_READER_METHODS = ("derived", "step1_index", "build_derived",
                   "stored_word", "stored_words")
#: Canonical mutator names, unioned with ``@mutates_planes`` discovery
#: so an undecorated subclass override (a buggy test double, exactly
#: what the sanitizer exists to catch) is still wrapped.
_MUTATOR_METHODS = ("set_row", "set_rows", "clear_row")


class SanitizerError(RuntimeError):
    """Raised in ``FECAM_SANITIZE=raise`` mode, and always for lock
    misuse that would otherwise deadlock the calling thread."""


@dataclass(frozen=True)
class SanitizerViolation:
    """One observed invariant violation."""

    kind: str     # unlocked-read | unlocked-write | missing-generation-bump
    op: str       # e.g. "fabric.arena.set_row"
    thread: str   # offending thread's name
    message: str


def enabled() -> bool:
    """Is the sanitizer on?  Read from the environment each call so
    tests can flip it with monkeypatch before building a service."""
    return os.environ.get(_ENV_VAR, "").strip().lower() in _ON_VALUES


def raise_mode() -> bool:
    return os.environ.get(_ENV_VAR, "").strip().lower() == "raise"


_collected: List[SanitizerViolation] = []
_collect_lock = threading.Lock()


def violations() -> List[SanitizerViolation]:
    """Snapshot of every violation collected since the last reset."""
    with _collect_lock:
        return list(_collected)


def reset() -> None:
    with _collect_lock:
        _collected.clear()


def _report(kind: str, op: str, message: str) -> None:
    violation = SanitizerViolation(
        kind=kind, op=op, thread=threading.current_thread().name,
        message=message)
    if raise_mode():
        raise SanitizerError(f"[{violation.kind}] {op}: {message}")
    with _collect_lock:
        _collected.append(violation)


class LockMonitor:
    """Per-thread lockset for one RWLock, fed by the ``_monitor`` seam.

    Counts are thread-local: a reader thread knows only its own holds,
    which is exactly the lockset question ("does *this* thread hold the
    lock for *this* access?").
    """

    def __init__(self, lock: Any) -> None:
        self._local = threading.local()
        lock._monitor = self

    def _counts(self) -> List[int]:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = [0, 0]  # [read holds, write holds]
            self._local.counts = counts
        return counts

    def holds_read(self) -> bool:
        counts = self._counts()
        return counts[0] > 0 or counts[1] > 0

    def holds_write(self) -> bool:
        return self._counts()[1] > 0

    # -- RWLock hook interface ---------------------------------------------------

    def before_acquire_read(self) -> None:
        if self._counts()[1]:
            raise SanitizerError(
                "acquire_read() while holding the write lock would "
                "self-deadlock (writer blocks all readers)")

    def acquired_read(self) -> None:
        self._counts()[0] += 1

    def released_read(self) -> None:
        counts = self._counts()
        if counts[0] > 0:
            counts[0] -= 1

    def before_acquire_write(self) -> None:
        counts = self._counts()
        if counts[1]:
            raise SanitizerError(
                "re-entrant acquire_write() would self-deadlock "
                "(the RWLock is not recursive)")
        if counts[0]:
            raise SanitizerError(
                "read->write lock upgrade would self-deadlock "
                "(writer waits for all readers, including this one)")

    def acquired_write(self) -> None:
        self._counts()[1] += 1

    def released_write(self) -> None:
        counts = self._counts()
        if counts[1] > 0:
            counts[1] -= 1


def _snapshot_rows(planes: Any, name: str, args: Tuple[Any, ...],
                   kwargs: dict) -> Optional[Tuple[Any, Any, Any, Any]]:
    """Pre-call content snapshot of the rows a mutator will touch, or
    None when the rows cannot be determined (lock checks still apply)."""
    try:
        if name in ("set_row", "clear_row"):
            rows = np.array([kwargs.get("row", args[0])])
        elif name == "set_rows":
            rows = np.asarray(kwargs.get("rows", args[0]))
        else:
            return None
        if rows.size == 0:
            return None
        return (rows, planes.valid[rows].copy(),
                planes.value[rows].copy(), planes.care[rows].copy())
    except (IndexError, KeyError, TypeError, ValueError):
        return None


def _content_changed(planes: Any,
                     snapshot: Tuple[Any, Any, Any, Any]) -> bool:
    rows, valid, value, care = snapshot
    try:
        return bool((planes.valid[rows] != valid).any()
                    or (planes.value[rows] != value).any()
                    or (planes.care[rows] != care).any())
    except (IndexError, ValueError):
        return True  # shape changed under us; definitely a mutation


def instrument_planes(planes: Any, monitor: LockMonitor, *,
                      label: str = "planes",
                      active: Optional[Callable[[], bool]] = None) -> None:
    """Wrap one planes instance's readers/mutators with lockset checks.

    Per-instance monkeypatching (instance attributes shadow the class
    methods), so only objects owned by a sanitized service pay anything
    and plain stores stay untouched.  ``active`` gates checking — the
    service passes ``not self._closed`` so shutdown drains don't trip.
    """
    is_active = active if active is not None else (lambda: True)
    cls = type(planes)
    mutators = set(_MUTATOR_METHODS) | {
        name for name in dir(cls)
        if is_planes_mutator(getattr(cls, name, None))}

    def wrap_mutator(name: str, orig: Callable[..., Any]) -> None:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            if not is_active():
                return orig(*args, **kwargs)
            op = f"{label}.{name}"
            if not monitor.holds_write():
                _report("unlocked-write", op,
                        "planes mutation without the write lock")
            generation_before = planes.generation
            snapshot = _snapshot_rows(planes, name, args, kwargs)
            result = orig(*args, **kwargs)
            if (snapshot is not None
                    and _content_changed(planes, snapshot)
                    and planes.generation == generation_before):
                _report("missing-generation-bump", op,
                        "plane content changed but the write "
                        "generation did not advance")
            return result
        setattr(planes, name, wrapped)

    def wrap_reader(name: str, orig: Callable[..., Any]) -> None:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            if is_active() and not monitor.holds_read():
                _report("unlocked-read", f"{label}.{name}",
                        "planes read without holding the lock")
            return orig(*args, **kwargs)
        setattr(planes, name, wrapped)

    def wrap_bump(orig: Callable[..., Any]) -> None:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            if is_active() and not monitor.holds_write():
                _report("unlocked-write", f"{label}._bump",
                        "generation bump outside the write lock")
            return orig(*args, **kwargs)
        setattr(planes, "_bump", wrapped)

    for name in sorted(mutators):
        method = getattr(planes, name, None)
        if callable(method):
            wrap_mutator(name, method)
    for name in _READER_METHODS:
        method = getattr(planes, name, None)
        if callable(method):
            wrap_reader(name, method)
    bump = getattr(planes, "_bump", None)
    if callable(bump):
        wrap_bump(bump)


def _discover_planes(backend: Any) -> Iterable[Tuple[str, Any]]:
    """Every planes object reachable from a store backend, duck-typed
    (the fabric's shared arena plus each bank's zero-copy view of
    it)."""
    fabric = getattr(backend, "fabric", None)
    if fabric is not None:
        arena = getattr(fabric, "arena", None)
        if arena is not None:
            yield "fabric.arena", arena
        for i, bank in enumerate(getattr(fabric, "banks", ()) or ()):
            bank_cam = getattr(bank, "cam", None)
            if bank_cam is not None and getattr(
                    bank_cam, "planes", None) is not None:
                yield f"fabric.bank{i}.planes", bank_cam.planes


def sanitize_service(service: Any) -> LockMonitor:
    """Instrument a SearchService: lock monitor + planes wrappers.

    Checks deactivate once the service is closed (``service._closed``
    is a monotonic flag written before the final drain; reading it
    without the mutex can at worst keep checks on for one extra drain
    pass, never turn them on spuriously).
    """
    monitor = LockMonitor(service._rw)

    def active() -> bool:
        return not service._closed

    for label, planes in _discover_planes(service.store.backend):
        instrument_planes(planes, monitor, label=label, active=active)
    return monitor


def maybe_sanitize_service(service: Any) -> Optional[LockMonitor]:
    """Construction hook: instrument iff ``FECAM_SANITIZE`` is on."""
    if not enabled():
        return None
    return sanitize_service(service)
