"""fecam.kernels — the pluggable compiled hot paths.

One C translation unit (``_kernel.c``), built on demand by the host's C
compiler (:mod:`fecam.kernels.build`) and driven through ctypes
(:mod:`fecam.kernels.compiled`), serves two callers:

* the fused two-step match kernel (:func:`fecam.fabric.batch.
  fused_count_matches`), whose ``numpy`` backend is the existing
  vectorized NumPy evaluation (candidate-index and dense strategies);
  the compiled one returns bit-identical counts and match order,
  several times faster, and releases the GIL while scanning;
* the SPICE engine's MNA assembly (:mod:`fecam.spice.analysis`), whose
  Python twin is each element's ``stamp()``; the compiled stamp table
  produces a bit-identical Jacobian and residual in one call per Newton
  iteration.

Selection is lazy and process-wide.  ``FECAM_KERNEL`` picks the policy:

==============  ================================================
``auto``        (default) compiled when it can be built, silent
                fallback to numpy otherwise
``compiled``    compiled preferred; falls back to numpy with a
                one-time warning if unavailable
``numpy``       never touch the compiler
==============  ================================================

Per-call forcing is stricter: ``fused_count_matches(...,
kernel="compiled")`` raises :class:`~fecam.errors.
KernelUnavailableError` rather than silently falling back, because a
caller that names the backend wants *that* backend (benchmarks, the
bit-identity suites).

Build failures are cached: one failed compile marks the backend
unavailable for the process instead of re-invoking the compiler on
every batch.  Tests reset the cached resolution with
:func:`reset_backend`.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import List, Optional, TYPE_CHECKING

from ..errors import KernelUnavailableError, TernaryValueError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .compiled import CompiledKernel

__all__ = ["BACKENDS", "KernelUnavailableError", "active_kernel",
           "backend_name", "compiled_kernel", "compiled_available",
           "reset_backend", "set_backend"]

#: Recognized FECAM_KERNEL / set_backend() values.
BACKENDS = ("auto", "numpy", "compiled")

_lock = threading.Lock()
_forced: Optional[str] = None          # set_backend() override
_kernel: Optional["CompiledKernel"] = None
_failure: Optional[KernelUnavailableError] = None
_attempted = False
_warned = False


def _policy() -> str:
    """The selection policy: forced override, else env, else auto."""
    if _forced is not None:
        return _forced
    env = os.environ.get("FECAM_KERNEL", "auto").strip().lower()
    if env not in BACKENDS:
        warnings.warn(
            f"FECAM_KERNEL={env!r} not recognized (expected one of "
            f"{'/'.join(BACKENDS)}); using 'auto'", RuntimeWarning,
            stacklevel=3)
        return "auto"
    return env


def _load_compiled() -> Optional["CompiledKernel"]:
    """Build/load the compiled kernel once; cache success or failure."""
    global _kernel, _failure, _attempted
    with _lock:
        if not _attempted:
            _attempted = True
            try:
                from .compiled import CompiledKernel
                _kernel = CompiledKernel()
            except KernelUnavailableError as exc:
                _failure = exc
            except Exception as exc:  # defensive: broken toolchain etc.
                _failure = KernelUnavailableError(
                    f"compiled kernel initialization failed: {exc!r}")
        return _kernel


def compiled_kernel() -> "CompiledKernel":
    """The compiled kernel, building it on first use.

    Raises :class:`KernelUnavailableError` when it cannot be provided
    (no compiler, compile failure, ABI mismatch) — including when the
    failure was cached by an earlier attempt.
    """
    kernel = _load_compiled()
    if kernel is None:
        assert _failure is not None
        raise _failure
    return kernel


def compiled_available() -> bool:
    """Whether the compiled backend can be (or has been) loaded."""
    return _load_compiled() is not None


def active_kernel() -> Optional["CompiledKernel"]:
    """The compiled kernel if the active policy selects it, else None.

    This is the hot-path query: the fused kernel calls it once per
    batch, the SPICE engine once per analysis.  After the first
    resolution it is a couple of attribute reads.
    """
    policy = _policy()
    if policy == "numpy":
        return None
    kernel = _load_compiled()
    if kernel is None and policy == "compiled":
        global _warned
        if not _warned:
            _warned = True
            warnings.warn(
                f"FECAM_KERNEL=compiled but the compiled kernel is "
                f"unavailable ({_failure}); falling back to the NumPy "
                f"backend", RuntimeWarning, stacklevel=3)
    return kernel


def backend_name() -> str:
    """The backend the active policy resolves to (telemetry label)."""
    return "compiled" if active_kernel() is not None else "numpy"


def set_backend(name: Optional[str]) -> None:
    """Force the backend policy for this process (tests, benchmarks).

    ``name`` is one of :data:`BACKENDS`, or None to return control to
    the ``FECAM_KERNEL`` environment variable.  Forcing ``compiled``
    here keeps the graceful-fallback semantics; per-call
    ``kernel="compiled"`` is the strict form.
    """
    global _forced
    if name is not None and name not in BACKENDS:
        raise TernaryValueError(
            f"kernel backend must be one of {BACKENDS}, got {name!r}")
    _forced = name


def reset_backend() -> None:
    """Drop every cached resolution (tests re-resolve from scratch).

    Clears the forced override, the loaded kernel, any cached build
    failure, and the one-time fallback warning latch.  The next
    :func:`active_kernel` call re-reads ``FECAM_KERNEL`` and re-attempts
    the build.
    """
    global _forced, _kernel, _failure, _attempted, _warned
    with _lock:
        _forced = None
        _kernel = None
        _failure = None
        _attempted = False
        _warned = False
