"""ctypes bindings for the compiled kernels: the two-step match and MNA
stamping.

:class:`CompiledKernel` drives the shared library built by
:mod:`fecam.kernels.build`.  The bindings are deliberately raw: every
array crosses the boundary as a bare data pointer (``c_void_p``)
because NumPy's ``ndpointer`` validation costs microseconds *per
argument per call* — more than the kernel itself on cached workloads.
Safety comes from checking dtype and contiguity **once per derived
generation** instead: pointers for the (memoized) derived planes and
step-1 index are validated and cached on those objects, so a
steady-state serve loop re-validates nothing.

ctypes releases the GIL for the duration of each call, so other
service threads make progress while the kernel scans.

The kernel is two-pass, mirroring the C side:

1. the count pass fills the (B, Q) ``step1``/``step2``/``full`` count
   matrices plus per-query match totals;
2. the fill pass re-scans only the queries that matched, sized exactly
   by the totals, and emits (query, arena row) pairs in the NumPy
   kernel's order — grouped by query, rows ascending.

Counts are integers, query compression is the identical masked-shift
pext, and the match order is deterministic, so results are
bit-identical to the NumPy backend (the hypothesis suites in
``tests/kernels/`` enforce this on every run).

The MNA entry points are bound as bare ctypes functions;
:mod:`fecam.spice.analysis` owns the stamp table and its pointers.
:attr:`CompiledKernel.mna_newton` is the SPICE tier's Newton iteration:
it takes one :class:`MnaNewton` working set (the stamp table, the
iterate, the dense system and the tolerances, all fixed per analysis)
so that one call — two arguments, nothing re-validated — applies the
solved update, runs the convergence test and assembles J, -F and
max|F| for the next solve.  The linear solve itself stays NumPy's
LAPACK ``dgesv`` between calls, which keeps the iterates bit-identical
to the Python loop.  :attr:`CompiledKernel.mna_assemble` (J and F at
one iterate) and :attr:`CompiledKernel.mna_commit` (once per accepted
timestep) complete the set.
"""

from __future__ import annotations

import ctypes
from typing import Optional, Tuple

import numpy as np

from ..analysis.markers import hot_path
from ..errors import TernaryValueError
from .build import load_library

__all__ = ["CompiledKernel", "MnaNewton"]

_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64
_F64 = ctypes.c_double

_EXEMPT = ("ctypes shim: every per-row loop runs in compiled code, "
           "Python-level hygiene heuristics do not apply")

#: Attribute the pointer caches live under on DerivedPlanes/Step1Index.
_PTR_CACHE = "_compiled_kernel_ptrs"


class MnaNewton(ctypes.Structure):
    """``mna_newton_t`` of ``_kernel.c``, field for field: the working set
    one :attr:`CompiledKernel.mna_newton` call reads and updates."""

    _fields_ = [("rows", _PTR), ("n_rows", _I64), ("par", _PTR),
                ("state", _PTR), ("x", _PTR), ("dx", _PTR), ("J", _PTR),
                ("neg_f", _PTR), ("n", _I64), ("n_nodes", _I64),
                ("tran", _I64), ("h", _F64), ("gmin", _F64),
                ("v_limit", _F64), ("abstol_v", _F64), ("abstol_i", _F64),
                ("reltol", _F64), ("residual_tol", _F64),
                ("residual", _F64)]


def _require(arr: np.ndarray, dtype: type, what: str) -> np.ndarray:
    """One-time layout validation for arrays whose pointers get cached."""
    if arr.dtype != np.dtype(dtype) or not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr, dtype=dtype)
    if not arr.flags.c_contiguous:  # pragma: no cover - defensive
        raise TernaryValueError(f"{what} plane is not contiguous")
    return arr


class CompiledKernel:
    """Callable facade over the compiled kernel library."""

    name = "compiled"

    def __init__(self) -> None:
        lib = load_library()
        compress = lib.fecam_compress_queries
        compress.restype = None
        compress.argtypes = [_PTR, _I64, _PTR, _PTR]
        count = lib.fecam_count_matches
        count.restype = None
        count.argtypes = [_PTR] * 7 + [_I64] * 3 + [_PTR] * 4
        count_sp = lib.fecam_count_matches_sparse
        count_sp.restype = None
        count_sp.argtypes = [_PTR] * 12 + [_I64] * 3 + [_PTR] * 4
        fill = lib.fecam_fill_matches
        fill.restype = None
        fill.argtypes = [_PTR] * 7 + [_I64] * 3 + [_PTR] * 3
        fill_sp = lib.fecam_fill_matches_sparse
        fill_sp.restype = None
        fill_sp.argtypes = [_PTR] * 11 + [_I64] * 2 + [_PTR] * 3
        # (rows, n_rows, par, state, x, n, n_nodes, tran, h, gmin, J, F)
        assemble = lib.fecam_mna_assemble
        assemble.restype = None
        assemble.argtypes = ([_PTR, _I64] + [_PTR] * 3 + [_I64] * 3
                             + [_F64] * 2 + [_PTR] * 2)
        # (rows, n_rows, par, state, x, h)
        commit = lib.fecam_mna_commit
        commit.restype = None
        commit.argtypes = [_PTR, _I64] + [_PTR] * 3 + [_F64]
        # (working set, update) -> -1 non-finite dx, 1 converged, 0 not
        newton = lib.fecam_mna_newton
        newton.restype = _I64
        newton.argtypes = [_PTR, _I64]
        omp = lib.fecam_kernel_openmp
        omp.restype = _I64
        omp.argtypes = []
        self._lib = lib  # keeps the dlopen handle alive
        self._compress = compress
        self._count = count
        self._count_sparse = count_sp
        self._fill = fill
        self._fill_sparse = fill_sp
        #: MNA assembly, Newton iteration and state commit over a spice
        #: stamp table.
        self.mna_assemble = assemble
        self.mna_newton = newton
        self.mna_commit = commit
        #: Whether the library was built with OpenMP (informational).
        self.openmp = bool(omp())

    # -- pointer caches ----------------------------------------------------

    def _derived_ptrs(self, derived) -> tuple:
        """(ce, ve, co, vo, valid_rows) pointers for one derived
        generation, validated once and cached on the object (whose
        lifetime owns the arrays the pointers reference)."""
        cached = derived.__dict__.get(_PTR_CACHE)
        if cached is None:
            ce = _require(derived.ce32, np.uint32, "ce32")
            ve = _require(derived.ve32, np.uint32, "ve32")
            co = _require(derived.co32, np.uint32, "co32")
            vo = _require(derived.vo32, np.uint32, "vo32")
            valid = _require(derived.valid_rows, np.int64, "valid_rows")
            cached = ((ce, ve, co, vo, valid),
                      ce.ctypes.data, ve.ctypes.data, co.ctypes.data,
                      vo.ctypes.data, valid.ctypes.data)
            derived.__dict__[_PTR_CACHE] = cached
        return cached

    def _index_ptrs(self, index) -> tuple:
        """(indptr, indices, ce0_at, ve0_at) pointers for one step-1
        index, cached the same way."""
        cached = index.__dict__.get(_PTR_CACHE)
        if cached is None:
            indptr = _require(index.indptr, np.int64, "indptr")
            indices = _require(index.indices, np.int64, "indices")
            ce0 = _require(index.ce0_at, np.uint32, "ce0_at")
            ve0 = _require(index.ve0_at, np.uint32, "ve0_at")
            cached = ((indptr, indices, ce0, ve0),
                      indptr.ctypes.data, indices.ctypes.data,
                      ce0.ctypes.data, ve0.ctypes.data)
            index.__dict__[_PTR_CACHE] = cached
        return cached

    # -- kernel entry points -----------------------------------------------

    @hot_path(exempt=_EXEMPT)
    def compress_queries(self, q_values: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Compress packed uint64 queries into (Q, C) uint32 even/odd
        halves — the C twin of :func:`fecam.planes.compress_even`."""
        q = np.ascontiguousarray(q_values, dtype=np.uint64)
        qe = np.empty(q.shape, dtype=np.uint32)
        qo = np.empty(q.shape, dtype=np.uint32)
        self._compress(q.ctypes.data, q.size,
                       qe.ctypes.data, qo.ctypes.data)
        return qe, qo

    @hot_path(exempt=_EXEMPT)
    def fused(self, derived, index, bank_of: Optional[np.ndarray],
              seg_counts: np.ndarray, qe: np.ndarray, qo: np.ndarray,
              step1: np.ndarray, step2: np.ndarray, full: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Count + collect in one call; returns the int64 (match_q,
        match_rows) pair arrays.

        Fills the (B, Q) count matrices in place and emits the matching
        (query, arena row) pairs in the NumPy kernel's order.  Uses the
        sparse candidate-index variant when ``index`` is given, the
        dense branchless scan otherwise.
        """
        _keep, ce_p, ve_p, co_p, vo_p, valid_p = self._derived_ptrs(derived)
        n_banks, n_q = step1.shape
        n_chunks = derived.ce32.shape[1]
        n_rows = derived.rows_searched
        qe_p, qo_p = qe.ctypes.data, qo.ctypes.data
        # offsets[1:] doubles as the per-query totals buffer; one
        # in-place cumsum turns it into the exclusive prefix the fill
        # pass wants.
        offsets = np.zeros(n_q + 1, dtype=np.int64)
        per_query_p = offsets.ctypes.data + 8
        if index is not None:
            _ikeep, indptr_p, indices_p, ce0_p, ve0_p = \
                self._index_ptrs(index)
            bank_p = (bank_of.ctypes.data if n_banks > 1
                      else offsets.ctypes.data)  # dummy; never read
            seg64 = np.ascontiguousarray(seg_counts, dtype=np.int64)
            self._count_sparse(ce_p, ve_p, co_p, vo_p, qe_p, qo_p,
                               indptr_p, indices_p, ce0_p, ve0_p,
                               bank_p, seg64.ctypes.data,
                               n_banks, n_q, n_chunks,
                               step1.ctypes.data, step2.ctypes.data,
                               full.ctypes.data, per_query_p)
        else:
            seg_starts = np.zeros(n_banks + 1, dtype=np.int64)
            np.cumsum(seg_counts, out=seg_starts[1:])
            self._count(ce_p, ve_p, co_p, vo_p, qe_p, qo_p,
                        seg_starts.ctypes.data, n_banks, n_q, n_chunks,
                        step1.ctypes.data, step2.ctypes.data,
                        full.ctypes.data, per_query_p)
        np.cumsum(offsets[1:], out=offsets[1:])
        total = int(offsets[n_q])
        if total == 0:
            return (np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int64))
        match_q = np.empty(total, dtype=np.int64)
        match_rows = np.empty(total, dtype=np.int64)
        if index is not None:
            self._fill_sparse(ce_p, ve_p, co_p, vo_p, qe_p, qo_p,
                              indptr_p, indices_p, ce0_p, ve0_p,
                              valid_p, n_q, n_chunks,
                              offsets.ctypes.data, match_q.ctypes.data,
                              match_rows.ctypes.data)
        else:
            self._fill(ce_p, ve_p, co_p, vo_p, qe_p, qo_p, valid_p,
                       n_rows, n_q, n_chunks,
                       offsets.ctypes.data, match_q.ctypes.data,
                       match_rows.ctypes.data)
        return match_q, match_rows
