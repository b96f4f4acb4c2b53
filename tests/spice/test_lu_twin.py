"""The compiled dense LU (``fecam_lu_solve``) against its Python twin.

``lu_twin.solve`` is the reference the compiled Newton solve is pinned
to, so the two must agree bit for bit (``tobytes``) on every system:
Jacobians captured from every word circuit, random well- and
ill-conditioned matrices, pivot ties and non-finite entries; and both
must call the same matrices singular.
"""

import itertools
from unittest import mock

import numpy as np
import pytest

import lu_twin
from fecam import kernels
from fecam.cam.word import (SCENARIOS_SINGLE_STEP, SCENARIOS_TWO_STEP,
                            simulate_word_search)
from fecam.designs import DesignKind
from fecam.spice.analysis import _System

pytestmark = pytest.mark.skipif(
    not kernels.compiled_available(),
    reason="compiled kernel unavailable (no C toolchain)")


@pytest.fixture(scope="module")
def kernel():
    from fecam.kernels.compiled import CompiledKernel
    return CompiledKernel()


def c_solve(kernel, a, b):
    """``fecam_lu_solve`` on copies of ``a``/``b``; None if singular."""
    a = np.array(a, dtype=np.float64)
    y = np.array(b, dtype=np.float64)
    cols = np.zeros(y.size, dtype=np.int64)
    ok = kernel.lu_solve(a.ctypes.data, y.ctypes.data, y.size,
                         cols.ctypes.data)
    return y if ok else None


def twin_solve(a, b):
    try:
        return lu_twin.solve(a, b)
    except np.linalg.LinAlgError as exc:
        assert str(exc) == "Singular matrix"
        return None


def assert_same(kernel, a, b):
    """C and twin agree bit for bit (NaNs by position); returns the
    solution, None if both found the matrix singular."""
    c, twin = c_solve(kernel, a, b), twin_solve(a, b)
    assert (c is None) == (twin is None)
    if c is None:
        return None
    nan = np.isnan(twin)
    assert np.array_equal(np.isnan(c), nan)
    assert c[~nan].tobytes() == twin[~nan].tobytes()
    return c


def word_systems(design, n_bits, scenario, every=5):
    """(J, -F) at the start of every ``every``-th Newton solve of one
    compiled word search, assembled by the compiled kernel."""
    systems = []
    real = _System.solve_newton
    count = itertools.count()

    def capture(self, x0, *, mode, t, h, gmin, source_scale=1.0):
        if next(count) % every == 0:
            n = self.n_unknowns
            j, f = np.zeros((n, n)), np.zeros(n)
            self.table.set_levels(t, source_scale)
            self.table.assemble(x0, self.n_nodes, mode == "tran", h, gmin,
                                j, f)
            systems.append((j, -f))
        return real(self, x0, mode=mode, t=t, h=h, gmin=gmin,
                    source_scale=source_scale)

    kernels.set_backend("compiled")
    try:
        with mock.patch.object(_System, "solve_newton", capture):
            simulate_word_search(design, n_bits, scenario)
    finally:
        kernels.reset_backend()
    return systems


@pytest.mark.parametrize("n_bits", [16, 64])
@pytest.mark.parametrize("design", list(DesignKind), ids=lambda d: d.name)
def test_word_circuit_jacobians(kernel, design, n_bits):
    scenarios = (SCENARIOS_TWO_STEP if design.uses_two_step_search
                 else SCENARIOS_SINGLE_STEP)
    for scenario in scenarios:
        systems = word_systems(design, n_bits, scenario)
        assert len(systems) > 10
        for j, neg_f in systems:
            solution = assert_same(kernel, j, neg_f)
            assert solution is not None
            # Sanity against LAPACK: the same solution to rounding.
            reference = np.linalg.solve(j, neg_f)
            assert np.allclose(solution, reference, rtol=1e-9,
                               atol=1e-12 * np.abs(reference).max())


@pytest.mark.parametrize("n", [1, 2, 3, 8, 23, 44, 97])
def test_random_well_conditioned(kernel, n):
    rng = np.random.default_rng(n)
    for density in (1.0, 0.3, 0.05):
        for _ in range(5):
            a = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
            a += np.diag(rng.choice([-1.0, 1.0], n) * (1.0 + rng.random(n)))
            b = rng.standard_normal(n)
            solution = assert_same(kernel, a, b)
            assert np.allclose(a @ solution, b, atol=1e-8)


@pytest.mark.parametrize("n", [6, 12, 30])
def test_ill_conditioned(kernel, n):
    rng = np.random.default_rng(100 + n)
    hilbert = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spread = q1 @ np.diag(np.logspace(0, -15, n)) @ q2
    # MNA-like scaling: conductances from 1e-12 to 1e3 on the diagonal.
    scaled = (np.diag(np.logspace(-12, 3, n))
              + 1e-13 * rng.standard_normal((n, n)))
    for a in (hilbert, spread, scaled):
        assert np.linalg.cond(a) > 1e6
        for _ in range(3):
            assert assert_same(kernel, a, rng.standard_normal(n)) is not None


@pytest.mark.parametrize("a", [
    [[1.0, 2.0], [-1.0, 3.0]],
    [[0.0, 1.0, 0.0], [2.0, 0.0, 1.0], [-2.0, 1.0, 1.0]],
    [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [1.0, 3.0, 6.0]],
    [[0.5, -3.0, 3.0], [3.0, 1.0, -1.0], [-3.0, 3.0, 2.0]],
], ids=["sign-tie", "below-diagonal-tie", "ones-column", "mixed-ties"])
def test_pivot_ties(kernel, a):
    a = np.array(a)
    n = len(a)
    for b in (np.ones(n), np.arange(1.0, n + 1.0), np.linspace(-1, 1, n)):
        assert assert_same(kernel, a, b) is not None


def test_tie_rule_decides_the_bits(kernel):
    """Rows 1 and 2 tie on |a[:, 0]|.  Swapping them changes which
    content pivots, and the last bits of the solution with it; the C LU
    follows the twin (first row wins) in both orders."""
    a = np.array([[2.7, 8.1, -6.4], [8.1, -3.4, -1.4], [-8.1, -1.6, 0.9]])
    b = np.array([-8.5, 4.6, 0.7])
    swap = [0, 2, 1]
    first = assert_same(kernel, a, b)
    swapped = assert_same(kernel, a[swap], b[swap])
    assert first.tobytes() != swapped.tobytes()
    assert np.allclose(first, swapped, rtol=1e-14)


@pytest.mark.parametrize("a", [
    [[np.nan, 1.0], [1.0, 2.0]],
    [[1.0, 1.0], [np.nan, 2.0]],
    [[0.0, 1.0], [np.nan, 2.0]],
    [[np.inf, 1.0], [1.0, 2.0]],
    [[1.0, np.inf], [np.inf, 2.0]],
], ids=["nan-diagonal", "nan-below", "zero-then-nan", "inf-pivot",
        "inf-both"])
def test_non_finite_entries(kernel, a):
    assert_same(kernel, np.array(a), np.array([1.0, -1.0]))


@pytest.mark.parametrize("a,b", [
    ([[1.0, np.inf], [0.0, 1.0]], [1.0, 1.0]),
    ([[-1.0, 1.0, -0.0], [-1.0, 0.0, -0.0], [0.0, 0.0, 1.0]],
     [0.0, -0.0, -1.0]),
], ids=["zero-multiplier-row", "zero-pivot-row-column"])
def test_exact_zeros_are_skipped(kernel, a, b):
    """Skipping is visible: without the row skip 0 * inf turns a[1][1]
    into NaN; without the column skip a signed zero of the solution
    flips.  C and twin skip the same entries."""
    assert assert_same(kernel, np.array(a), np.array(b)) is not None


@pytest.mark.parametrize("a", [
    [[0.0]],
    [[0.0, 0.0], [0.0, 0.0]],
    [[1.0, 2.0], [2.0, 4.0]],
    [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
    [[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
], ids=["zero-1x1", "zero-2x2", "dependent-rows", "equal-rows",
        "opposite-rows"])
def test_singular(kernel, a):
    a = np.array(a)
    assert assert_same(kernel, a, np.ones(len(a))) is None
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        np.linalg.solve(a, np.ones(len(a)))
