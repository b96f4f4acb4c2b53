"""Shared-memory planes arena with seqlock publication.

One mmap-backed file holds the whole fabric arena — the same three
bitplanes :class:`~fecam.planes.TernaryPlanes` always owns, plus the
fabric's per-row priority/seq/live columns, laid out after a fixed
header — so any number of reader processes attach zero-copy ndarray
views over the very bytes the single writer mutates.

Layout (``arena.bin``; ``rows`` entries per column)::

    [ 4 KiB header | value (rows x chunks u64) | care
      | priority (f64) | seq (i64) | valid (bool) | live (bool) ]

The header's ``seq`` word is a classic seqlock: the writer bumps it
odd before touching planes or columns, even after everything —
including the published ``generation`` — is in place.  Readers snapshot
``seq`` (spinning while odd), run their search, and re-check: a changed
word means the window was torn and the attempt is discarded and
retried.  A window that never closes (writer died mid-mutation) turns
into a typed :class:`~fecam.errors.WorkerUnavailable` timeout instead
of a torn result.

The entries themselves (key, word, payload) never enter the arena:
a reader answers with arena row ids, and the writer's process resolves
them.

Files live in a private directory under tmpfs (``/dev/shm``) when
available; :meth:`SharedArena.unlink` removes the directory wholesale,
and it is the owner's job (``fecam.cluster.ClusterBackend``) to call it
— readers merely :meth:`close` their mappings.

Coherence note: mmap ``MAP_SHARED`` pages are coherent across processes
on one host, and the GIL orders the writer's stores well enough for the
x86-64/aarch64 hosts this targets; the seqlock re-check is what turns
any residual reordering into a retry rather than a wrong answer.
"""

from __future__ import annotations

import mmap
import os
import shutil
import tempfile
import time
from typing import Callable, Optional, Tuple, TypeVar

import numpy as np

from ..errors import OperationError, WorkerUnavailable
from ..planes import TernaryPlanes, n_chunks_for

__all__ = ["SharedArena", "default_shm_dir"]

_T = TypeVar("_T")

_MAGIC = int.from_bytes(b"FECAMSH2", "little")
_HEADER_BYTES = 4096
# uint64 slot indices into the header.
_H_MAGIC, _H_ROWS, _H_CHUNKS, _H_WIDTH, _H_SEQ, _H_GEN = range(6)

_ARENA_FILE = "arena.bin"

#: Reader backoff while a publish window is open / after a torn attempt.
_RETRY_SLEEP_S = 0.0002


def _arena_bytes(rows: int, chunks: int) -> int:
    # Per row: value + care chunks, priority + seq, valid + live.
    return _HEADER_BYTES + rows * (16 * chunks + 16 + 2)


def default_shm_dir() -> str:
    """Prefer tmpfs so arena pages never touch a disk."""
    shm = "/dev/shm"
    if os.path.isdir(shm) and os.access(shm, os.W_OK):
        return shm
    return tempfile.gettempdir()


class SharedArena:
    """One cross-process planes arena plus its seqlock words.

    Construct with :meth:`create` (the writer) or :meth:`attach`
    (readers); both map the same file and expose identical views, so
    the split is purely a lifecycle convention — exactly one process
    publishes, and only the creator unlinks.
    """

    def __init__(self) -> None:
        self.directory = ""
        self.rows = 0
        self.width = 0
        self.n_chunks = 0
        self._mm: Optional[mmap.mmap] = None
        self._arena_fd = -1
        self._header: Optional[np.ndarray] = None
        # value, care, priority, seq, valid, live: the file order.
        self._views: Optional[Tuple[np.ndarray, ...]] = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def create(cls, *, rows: int, width: int,
               base_dir: Optional[str] = None) -> "SharedArena":
        """Allocate a fresh arena in a private tempdir (writer side)."""
        if rows < 1 or width < 1:
            raise OperationError("rows and width must be positive")
        self = cls()
        self.directory = tempfile.mkdtemp(
            prefix="fecam-cluster-", dir=base_dir or default_shm_dir())
        chunks = n_chunks_for(width)
        self._arena_fd = os.open(os.path.join(self.directory, _ARENA_FILE),
                                 os.O_RDWR | os.O_CREAT, 0o600)
        os.ftruncate(self._arena_fd, _arena_bytes(rows, chunks))
        self._map(rows, chunks, width)
        header = self._header
        assert header is not None
        header[_H_ROWS] = rows
        header[_H_CHUNKS] = chunks
        header[_H_WIDTH] = width
        header[_H_SEQ] = 0
        header[_H_GEN] = 0
        # Magic last: an attacher that sees it knows the geometry words
        # before it are final.
        header[_H_MAGIC] = _MAGIC
        return self

    @classmethod
    def attach(cls, directory: str, *,
               timeout: float = 5.0) -> "SharedArena":
        """Map an existing arena by path (reader side).

        Waits briefly for the creator to finish initializing — worker
        processes race the writer's startup by design.
        """
        self = cls()
        self.directory = directory
        path = os.path.join(directory, _ARENA_FILE)
        deadline = time.monotonic() + timeout
        fd = -1
        while True:
            try:
                fd = os.open(path, os.O_RDWR)
                head = os.pread(fd, _HEADER_BYTES, 0)
                if len(head) == _HEADER_BYTES and \
                        int.from_bytes(head[:8], "little") == _MAGIC:
                    break
                os.close(fd)
                fd = -1
            except FileNotFoundError:
                pass
            if time.monotonic() > deadline:
                raise WorkerUnavailable(
                    f"no shared arena appeared at {directory!r} "
                    f"within {timeout:.1f}s")
            time.sleep(0.005)
        self._arena_fd = fd
        head_words = np.frombuffer(head, dtype=np.uint64, count=6)
        rows = int(head_words[_H_ROWS])
        chunks = int(head_words[_H_CHUNKS])
        width = int(head_words[_H_WIDTH])
        self._map(rows, chunks, width)
        return self

    def _map(self, rows: int, chunks: int, width: int) -> None:
        mm = mmap.mmap(self._arena_fd, _arena_bytes(rows, chunks))
        self._mm = mm  # MAP_SHARED by default
        self._header = np.frombuffer(mm, dtype=np.uint64,
                                     count=_HEADER_BYTES // 8)
        views = []
        offset = _HEADER_BYTES
        # The 8-byte regions first, so every region starts aligned.
        for dtype, count in ((np.uint64, rows * chunks),
                             (np.uint64, rows * chunks), (np.float64, rows),
                             (np.int64, rows), (np.bool_, rows),
                             (np.bool_, rows)):
            views.append(np.frombuffer(mm, dtype=dtype, count=count,
                                       offset=offset))
            offset += views[-1].nbytes
        value, care, *columns = views
        self._views = (value.reshape(rows, chunks),
                       care.reshape(rows, chunks), *columns)
        self.rows = rows
        self.n_chunks = chunks
        self.width = width

    def planes(self) -> TernaryPlanes:
        """Planes constructed *over* the shared mapping (zero-copy),
        carrying the shared priority/seq/live row columns."""
        if self._views is None:
            raise OperationError("arena is closed")
        value, care, priority, seq, valid, live = self._views
        return TernaryPlanes.over(value, care, valid, width=self.width,
                                  row_columns=(priority, seq, live))

    # -- seqlock words -----------------------------------------------------------

    @property
    def seq(self) -> int:
        assert self._header is not None
        return int(self._header[_H_SEQ])

    @property
    def generation(self) -> int:
        assert self._header is not None
        return int(self._header[_H_GEN])

    # -- writer protocol ---------------------------------------------------------

    def begin_publish(self) -> None:
        """Open the window: bump ``seq`` odd before any mutation."""
        assert self._header is not None
        seq = int(self._header[_H_SEQ])
        if seq & 1:
            raise OperationError("publish window already open")
        self._header[_H_SEQ] = seq + 1

    def end_publish(self, *, generation: Optional[int] = None) -> None:
        """Close the window: publish ``generation`` (if the mutation
        landed) and bump ``seq`` back to even.  Closing *without* a
        generation is the validation-failure path — nothing changed, so
        readers must see the old generation."""
        assert self._header is not None
        seq = int(self._header[_H_SEQ])
        if not seq & 1:
            raise OperationError("no publish window open")
        if generation is not None:
            self._header[_H_GEN] = generation
        self._header[_H_SEQ] = seq + 1

    # -- reader protocol ---------------------------------------------------------

    def read_consistent(self, fn: Callable[[], _T], *,
                        timeout: float = 5.0,
                        on_retry: Optional[Callable[[], None]] = None
                        ) -> _T:
        """Run ``fn`` inside a consistent seqlock window.

        Spins while a publish window is open, re-runs ``fn`` whenever
        the window moved underneath it (calling ``on_retry`` first so
        the caller can bust caches keyed on torn content), and raises
        :class:`~fecam.errors.WorkerUnavailable` if no consistent
        window arrives before ``timeout`` — the writer died mid-publish
        and failing is the only answer that is not a torn view.

        An exception from ``fn`` during a torn window is swallowed and
        retried (half-applied content may be arbitrarily malformed);
        the same exception with an unmoved ``seq`` is real and
        propagates.
        """
        assert self._header is not None
        header = self._header
        deadline = time.monotonic() + timeout
        while True:
            seq_before = int(header[_H_SEQ])
            if not seq_before & 1:
                try:
                    out = fn()
                except Exception:
                    if int(header[_H_SEQ]) == seq_before:
                        raise
                else:
                    if int(header[_H_SEQ]) == seq_before:
                        return out
                if on_retry is not None:
                    on_retry()
            if time.monotonic() > deadline:
                raise WorkerUnavailable(
                    f"seqlock read timed out after {timeout:.1f}s "
                    f"(seq={int(header[_H_SEQ])}): a publish window "
                    "never closed — the cluster writer likely died "
                    "mid-mutation")
            time.sleep(_RETRY_SLEEP_S)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping and descriptors (idempotent).

        Live planes built by :meth:`planes` keep the pages referenced
        until they die; the mmap handle itself then closes lazily.
        """
        self._header = None
        self._views = None
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                # ndarrays still exported over the mapping — the kernel
                # frees the pages when the last reference dies.
                pass
            self._mm = None
        if self._arena_fd >= 0:
            try:
                os.close(self._arena_fd)
            except OSError:
                pass
            self._arena_fd = -1

    def unlink(self) -> None:
        """Remove the backing files (owner only; idempotent).

        After this no segment remains under ``/dev/shm`` even if
        readers still hold mappings — their pages survive privately
        until they close."""
        self.close()
        if self.directory:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __repr__(self) -> str:
        state = "closed" if self._mm is None else (
            f"seq={self.seq} gen={self.generation}")
        return (f"<SharedArena {self.rows}x{self.width} "
                f"at {self.directory!r} {state}>")
