"""Worker process entry point and request protocol.

One worker = one process running :func:`worker_main` over a duplex
``multiprocessing.connection`` pipe.  The protocol is deliberately
tiny — tuples whose first element names the op — and strictly
request/response in FIFO order, which is what lets the parent pipeline
requests and pair responses without per-message ids:

``("search", queries, mask)``
    → ``("ok", generation, rows, offsets, energies, latencies)``, flat
    lists of matched arena rows in priority order (see
    :meth:`~fecam.cluster.replica.Replica.serve_search`).  No entry
    crosses the pipe; the parent resolves the rows.
``("stats",)``  → ``("ok", telemetry_dict)``
``("ping",)``   → ``("ok", pid)``
``("stop",)``   → ``("ok",)`` and the worker exits.

A failed request answers ``("error", exc_type_name, message)`` and the
worker keeps serving — only a broken pipe (parent gone) or ``stop``
ends the loop.  The module is import-clean for the ``spawn`` start
method: :class:`WorkerSpec` carries everything a fresh interpreter
needs (arena path, store config, timeouts) and is plain-picklable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from ..store.config import StoreConfig
from .replica import Replica
from .shm import SharedArena

__all__ = ["WorkerSpec", "worker_main"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to attach, shippable through spawn."""

    worker_id: int
    directory: str          # SharedArena path
    config: StoreConfig
    read_timeout: float = 5.0
    attach_timeout: float = 5.0


def worker_main(spec: WorkerSpec, conn: Any) -> None:
    """Serve requests until ``stop``, EOF, or a broken pipe.

    Runs in the child process.  Request-level exceptions become
    ``("error", ...)`` replies — a worker must survive a bad query or
    a seqlock timeout and keep serving the next request.
    """
    arena = None
    try:
        arena = SharedArena.attach(spec.directory,
                                   timeout=spec.attach_timeout)
        replica = Replica(arena, spec.config,
                          read_timeout=spec.read_timeout)
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg[0]
            try:
                if op == "search":
                    _, queries, mask = msg
                    reply = ("ok", *replica.serve_search(queries, mask))
                elif op == "stats":
                    reply = ("ok", replica.telemetry())
                elif op == "ping":
                    reply = ("ok", os.getpid())
                elif op == "stop":
                    conn.send(("ok",))
                    break
                else:
                    reply = ("error", "OperationError",
                             f"unknown worker op {op!r}")
            except Exception as exc:
                reply = ("error", type(exc).__name__, str(exc))
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        if arena is not None:
            arena.close()
        try:
            conn.close()
        except OSError:
            pass
