"""The compiled kernel's dense LU (``fecam_lu_solve`` in ``_kernel.c``)
restated in Python, statement for statement.

Python floats are IEEE doubles and every operation rounds once, as the
C does under ``-ffp-contract=off``, so running the same operations in
the same order gives the same bits: partial pivoting on the first
strictly largest ``|a|`` (a NaN never wins against a number), rows with
an exactly zero multiplier and columns where the pivot row is exactly
zero skipped, the forward substitution applied to ``b`` during
elimination, and a column-oriented back substitution.  (Scalar Python
is ~4x faster here than the same algorithm vectorised per column in
NumPy, whose per-call overhead dominates at a few dozen unknowns.)

:func:`solve` has ``np.linalg.solve``'s calling convention for one
right-hand side, and raises ``np.linalg.LinAlgError("Singular matrix")``
where the C returns 0, so the Python Newton loop runs through it
unchanged (patch ``np.linalg.solve``) and must then equal the compiled
path bit for bit.
"""

import numpy as np


def solve(a, b):
    a = np.array(a, dtype=np.float64).tolist()
    y = np.array(b, dtype=np.float64).tolist()
    n = len(y)
    for k in range(n):
        rk = a[k]
        p, best = k, abs(rk[k])
        for i in range(k + 1, n):
            v = abs(a[i][k])
            if v > best:
                p, best = i, v
        if best == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        if p != k:
            rp = a[p]
            rk[k:], rp[k:] = rp[k:], rk[k:]
            y[k], y[p] = y[p], y[k]
        cols = [j for j in range(k + 1, n) if rk[j] != 0.0]
        pivot, yk = rk[k], y[k]
        for i in range(k + 1, n):
            ri = a[i]
            l = ri[k] / pivot
            if l == 0.0:
                continue
            for j in cols:
                ri[j] = ri[j] - l * rk[j]
            y[i] = y[i] - l * yk
    for j in range(n - 1, -1, -1):
        yj = y[j] = y[j] / a[j][j]
        for i in range(j):
            y[i] = y[i] - a[i][j] * yj
    return np.array(y)
