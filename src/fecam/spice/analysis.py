"""MNA assembly, Newton-Raphson solver, DC and transient analyses.

The solver follows textbook SPICE practice:

* Unknown vector ``x = [node voltages | branch currents]``.
* Residual ``F(x)``: KCL per node plus one branch equation per voltage
  source; Newton iterates ``J dx = -F`` with per-step voltage limiting.
* DC operating point uses gmin stepping, then source stepping as fallback.
* Transient integrates with backward Euler; every element with state
  exposes a companion model through its ``stamp``/``commit`` methods and the
  step is retried with a halved timestep on non-convergence.

Newton has two paths.  When the compiled kernel is active
(:func:`fecam.kernels.active_kernel`) and every element provides a
:meth:`~fecam.spice.netlist.Element.record`, the circuit is flattened
into a :class:`_StampTable` and a whole Newton solve is one C call:
assembly, a dense partial-pivot LU, the update with its limiting and
the convergence tests, iteration after iteration; one more C call per
accepted step commits the state.  Otherwise each element's ``stamp``
runs in Python, ``np.linalg.solve`` (LAPACK ``dgesv``) solves and NumPy
does the update — the reference path, the path without a compiler, and
the one for elements without a record (``CurrentSource``, ``Switch``,
``Diode``).  The two paths assemble bit-identical systems and exit
through the same tests with the same messages; they differ only in how
the LU rounds.  The Python loop solving through the C LU's Python twin
(``tests/spice/lu_twin.py``) reproduces the compiled path bit for bit,
and against ``dgesv`` the compiled results stay within the tolerance
``tests/spice/test_compiled_stamps.py`` states.

Matrices are dense: TCAM word-level circuits have a few dozen unknowns.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import kernels
from ..errors import ConvergenceError, NetlistError, SimulationError
from .elements import VoltageSource
from .netlist import REC_VSRC, Circuit, Element, TerminalVoltages
from .results import OperatingPoint, SweepResult, TransientResult


@dataclass
class NewtonOptions:
    """Tolerances and iteration limits for the Newton solver."""

    abstol_v: float = 1e-6  # volts
    abstol_i: float = 1e-12  # amperes (branch unknowns)
    reltol: float = 1e-4
    residual_tol: float = 1e-9  # amperes, max KCL violation
    max_iterations: int = 100
    v_limit: float = 0.6  # max node-voltage change per iteration
    gmin: float = 1e-12  # siemens, every node to ground


class StampContext:
    """Mutable assembly target handed to each element's ``stamp``.

    ``add_j``/``add_f`` silently drop contributions to ground (index -1),
    which keeps element code free of special cases.
    """

    __slots__ = ("mode", "t", "h", "source_scale", "gmin", "_j", "_f", "_n")

    def __init__(self, n_unknowns: int):
        self.mode = "dc"
        self.t = 0.0
        self.h = 1.0
        self.source_scale = 1.0
        self.gmin = 1e-12
        self._n = n_unknowns
        self._j = np.zeros((n_unknowns, n_unknowns))
        self._f = np.zeros(n_unknowns)

    def reset(self) -> None:
        self._j[:, :] = 0.0
        self._f[:] = 0.0

    def add_j(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self._j[row, col] += value

    def add_f(self, row: int, value: float) -> None:
        if row >= 0:
            self._f[row] += value


class _StampTable:
    """A bound circuit as one flat table for the compiled MNA kernel.

    ``rows`` is (n_rows, 7) int64 ``(kind, n0, n1, n2, n3, par offset,
    state offset)``; ``par`` and ``state`` are the float64 vectors the
    offsets index.  ``state`` is the working copy of every committed
    capacitor charge and FeFET domain fraction: :meth:`commit` evolves it
    and :meth:`write_back` hands it to the elements.  ``par`` holds every
    voltage source's level at the last :meth:`set_levels` (``sources`` /
    ``level_offsets``, circuit order).  ``newton`` is the compiled Newton
    solve's working set over the ``x``/``dx``/``j``/``cols`` buffers,
    with the ``options`` tolerances.
    """

    def __init__(self, kernel, elements: Sequence[Element],
                 records: Sequence[tuple], n_unknowns: int, n_nodes: int,
                 options: NewtonOptions):
        from ..kernels.compiled import MnaNewton

        rows: List[List[int]] = []
        par: List[float] = []
        state: List[float] = []
        self._owners = []   # (element, state offset, state length)
        self.sources: List[VoltageSource] = []
        level_offsets: List[int] = []
        for element, (element_rows, element_state) in zip(elements, records):
            base = len(state)
            for kind, nodes, params, slot in element_rows:
                if kind == REC_VSRC and isinstance(element, VoltageSource):
                    self.sources.append(element)
                    level_offsets.append(len(par))
                nodes = list(nodes) + [-1] * (4 - len(nodes))
                rows.append([kind] + nodes
                            + [len(par), base + slot if slot >= 0 else 0])
                par.extend(params)
            state.extend(element_state)
            if element_state:
                self._owners.append((element, base, len(element_state)))
        self.rows = np.array(rows, dtype=np.int64).reshape(-1, 7)
        self.par = np.array(par + [0.0], dtype=np.float64)
        self.state = np.array(state + [0.0], dtype=np.float64)
        self._kernel = kernel
        self._ptrs = (self.rows.ctypes.data, len(rows), self.par.ctypes.data,
                      self.state.ctypes.data)
        self.level_offsets = np.array(level_offsets, dtype=np.intp)
        n = n_unknowns
        self.x = np.zeros(n)
        self.dx = np.zeros(n)
        self.j = np.zeros((n, n))
        self.cols = np.zeros(n, dtype=np.int64)
        self.newton = MnaNewton(
            *self._ptrs, self.x.ctypes.data, self.dx.ctypes.data,
            self.j.ctypes.data, self.cols.ctypes.data, n, n_nodes,
            v_limit=options.v_limit, abstol_v=options.abstol_v,
            abstol_i=options.abstol_i, reltol=options.reltol,
            residual_tol=options.residual_tol,
            max_iterations=options.max_iterations)
        self._newton_p = ctypes.addressof(self.newton)

    def set_levels(self, t: float, source_scale: float) -> None:
        self.par[self.level_offsets] = [source.level(t, source_scale)
                                        for source in self.sources]

    def assemble(self, x: np.ndarray, n_nodes: int, tran: bool, h: float,
                 gmin: float, j: np.ndarray, f: np.ndarray) -> None:
        self._kernel.mna_assemble(*self._ptrs, x.ctypes.data, x.size,
                                  n_nodes, tran, h, gmin, j.ctypes.data,
                                  f.ctypes.data)

    def solve(self) -> int:
        """Run Newton from ``x`` in place; returns the kernel's status
        (``newton.CONVERGED`` ...) and leaves ``newton.iterations`` and
        ``newton.residual`` set."""
        return self._kernel.mna_solve(self._newton_p)

    def commit(self, x: np.ndarray, h: float) -> None:
        self._kernel.mna_commit(*self._ptrs, x.ctypes.data, h)

    def write_back(self) -> None:
        for element, offset, length in self._owners:
            element.load_state(self.state[offset:offset + length].tolist())


class _System:
    """Bound circuit: index assignment plus assembly/solve helpers."""

    def __init__(self, circuit: Circuit, options: NewtonOptions):
        self.circuit = circuit
        self.options = options
        self.n_nodes = circuit.num_nodes
        n_branches = 0
        self._views: List[TerminalVoltages] = []
        for element in circuit.elements:
            node_index = [circuit.node_index(t) for t in element.terminals]
            branch_index = [self.n_nodes + n_branches + k
                            for k in range(element.num_branches)]
            n_branches += element.num_branches
            element.bind(node_index, branch_index)
        self.n_unknowns = self.n_nodes + n_branches
        if self.n_unknowns == 0:
            raise NetlistError("circuit has no unknowns (empty netlist?)")
        self.ctx = StampContext(self.n_unknowns)
        self.ctx.gmin = options.gmin
        self.table: Optional[_StampTable] = None

    def compile(self) -> None:
        """Switch assembly to the compiled kernel when it can take over.

        Snapshots element state into the table, so call it once the
        elements hold the state the analysis starts from.  Leaves
        :attr:`table` None (the Python stamp path) when the kernel is not
        active or some element has no record.
        """
        kernel = kernels.active_kernel()
        if kernel is None:
            return
        records = [element.record() for element in self.circuit.elements]
        if any(record is None for record in records):
            return
        self.table = _StampTable(kernel, self.circuit.elements, records,
                                 self.n_unknowns, self.n_nodes, self.options)

    def views_for(self, x: np.ndarray) -> List[TerminalVoltages]:
        return [TerminalVoltages(x, e._node_index, e._branch_index)
                for e in self.circuit.elements]

    def assemble(self, x: np.ndarray, views: Sequence[TerminalVoltages],
                 gmin: float) -> None:
        ctx = self.ctx
        ctx.reset()
        for element, view in zip(self.circuit.elements, views):
            element.stamp(ctx, view)
        # gmin from every node to ground keeps otherwise-floating nodes
        # (capacitor-only or switched-off subnets) solvable.
        for k in range(self.n_nodes):
            ctx._j[k, k] += gmin
            ctx._f[k] += gmin * x[k]

    def solve_newton(self, x0: np.ndarray, *, mode: str, t: float, h: float,
                     gmin: float, source_scale: float = 1.0) -> np.ndarray:
        """Run Newton iterations from ``x0``; returns the solution.

        Raises :class:`ConvergenceError` if tolerances are not met within
        the iteration limit.
        """
        table = self.table
        if table is not None:
            return self._solve_compiled(table, x0, tran=mode == "tran", t=t,
                                        h=h, gmin=gmin,
                                        source_scale=source_scale)
        opts = self.options
        ctx = self.ctx
        ctx.mode = mode
        ctx.t = t
        ctx.h = h
        ctx.source_scale = source_scale
        x = x0.copy()
        views = self.views_for(x)
        last_residual = math.inf
        for iteration in range(opts.max_iterations):
            self.assemble(x, views, gmin)
            f = ctx._f
            last_residual = float(np.max(np.abs(f))) if f.size else 0.0
            try:
                dx = np.linalg.solve(ctx._j, -f)
            except np.linalg.LinAlgError as exc:
                raise _singular(t, iteration, last_residual, exc) from exc
            if not np.all(np.isfinite(dx)):
                raise _non_finite(t, iteration, last_residual)
            # Voltage limiting on node entries only.
            dv = dx[:self.n_nodes]
            np.clip(dv, -opts.v_limit, opts.v_limit, out=dv)
            x[:self.n_nodes] += dv
            x[self.n_nodes:] += dx[self.n_nodes:]
            tol = (opts.abstol_v + opts.reltol * np.abs(x[:self.n_nodes]))
            dv_ok = bool(np.all(np.abs(dv) <= tol))
            if self.n_unknowns > self.n_nodes:
                dbr = dx[self.n_nodes:]
                tol_i = opts.abstol_i + opts.reltol * np.abs(x[self.n_nodes:])
                di_ok = bool(np.all(np.abs(dbr) <= tol_i))
            else:
                di_ok = True
            if dv_ok and di_ok and last_residual <= opts.residual_tol:
                return x
        raise _not_converged(t, opts.max_iterations, last_residual)

    def _solve_compiled(self, table: _StampTable, x0: np.ndarray, *,
                        tran: bool, t: float, h: float, gmin: float,
                        source_scale: float) -> np.ndarray:
        """:meth:`solve_newton` on the stamp table: one C call, with the
        Python loop's exits, messages, iteration counts and residuals."""
        table.set_levels(t, source_scale)
        work = table.newton
        work.tran = tran
        work.h = h
        work.gmin = gmin
        table.x[:] = x0
        status = table.solve()
        if status == work.CONVERGED:
            return table.x.copy()
        iteration, residual = work.iterations, work.residual
        if status == work.SINGULAR:
            raise _singular(t, iteration, residual, "Singular matrix")
        if status == work.NON_FINITE:
            raise _non_finite(t, iteration, residual)
        raise _not_converged(t, iteration, residual)


def _singular(t: float, iteration: int, residual: float,
              reason: object) -> ConvergenceError:
    return ConvergenceError(
        f"singular MNA matrix at t={t:.3e}s (iteration {iteration}): {reason}",
        iterations=iteration, residual=residual)


def _non_finite(t: float, iteration: int,
                residual: float) -> ConvergenceError:
    return ConvergenceError(f"non-finite Newton update at t={t:.3e}s",
                            iterations=iteration, residual=residual)


def _not_converged(t: float, iterations: int,
                   residual: float) -> ConvergenceError:
    return ConvergenceError(
        f"Newton failed to converge after {iterations} iterations "
        f"(t={t:.3e}s, residual={residual:.3e}A)",
        iterations=iterations, residual=residual)


def operating_point(circuit: Circuit, *, t: float = 0.0,
                    options: Optional[NewtonOptions] = None,
                    initial_guess: Optional[Dict[str, float]] = None) -> OperatingPoint:
    """Solve the DC operating point at time ``t`` (sources evaluated there).

    Strategy: plain Newton from the initial guess; on failure, gmin stepping
    (solve with a large gmin, then relax it geometrically); on failure again,
    source stepping (ramp all source levels from 10 % to 100 %).
    """
    options = options or NewtonOptions()
    system = _System(circuit, options)
    system.compile()
    x = np.zeros(system.n_unknowns)
    if initial_guess:
        for node, value in initial_guess.items():
            idx = circuit.node_index(node)
            if idx >= 0:
                x[idx] = value

    def finish(x_sol: np.ndarray) -> OperatingPoint:
        return OperatingPoint.from_solution(circuit, x_sol, system.n_nodes)

    try:
        return finish(system.solve_newton(x, mode="dc", t=t, h=1.0,
                                          gmin=options.gmin))
    except ConvergenceError:
        pass
    # gmin stepping
    x_work = x.copy()
    try:
        for gmin in (1e-3, 1e-5, 1e-7, 1e-9, options.gmin):
            x_work = system.solve_newton(x_work, mode="dc", t=t, h=1.0, gmin=gmin)
        return finish(x_work)
    except ConvergenceError:
        pass
    # source stepping
    x_work = np.zeros(system.n_unknowns)
    try:
        for scale in (0.1, 0.3, 0.5, 0.7, 0.85, 1.0):
            x_work = system.solve_newton(x_work, mode="dc", t=t, h=1.0,
                                         gmin=options.gmin, source_scale=scale)
        return finish(x_work)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"operating point failed for circuit {circuit.title!r} "
            f"after gmin and source stepping: {exc}",
            iterations=exc.iterations, residual=exc.residual) from exc


def dc_sweep(circuit: Circuit, source_name: str, values: Sequence[float], *,
             options: Optional[NewtonOptions] = None) -> SweepResult:
    """Sweep a voltage source's DC level, warm-starting each point.

    The swept source's waveform is replaced by each DC level in turn and
    restored afterwards.
    """
    from .waveforms import DC as DCWave

    source = circuit.element(source_name)
    if not isinstance(source, VoltageSource):
        raise NetlistError(f"{source_name} is not a VoltageSource")
    options = options or NewtonOptions()
    saved = source.waveform
    points: List[OperatingPoint] = []
    guess: Optional[Dict[str, float]] = None
    try:
        for value in values:
            source.waveform = DCWave(float(value))
            op = operating_point(circuit, options=options, initial_guess=guess)
            points.append(op)
            guess = dict(op.voltages)
    finally:
        source.waveform = saved
    return SweepResult(np.asarray(values, dtype=float), points)


@dataclass
class TransientOptions:
    """Transient analysis controls."""

    dt: float = 1e-12  # base timestep, seconds
    dt_min_factor: float = 1.0 / 64.0  # retry floor relative to dt
    newton: NewtonOptions = field(default_factory=NewtonOptions)
    use_initial_conditions: bool = False  # skip DC OP, start from ICs/zero


def transient(circuit: Circuit, t_stop: float, *,
              options: Optional[TransientOptions] = None,
              record_nodes: Optional[Sequence[str]] = None) -> TransientResult:
    """Backward-Euler transient from a DC operating point to ``t_stop``.

    Records every node voltage (or the subset in ``record_nodes``) and every
    voltage-source branch current and instantaneous delivered power at each
    accepted time point.  Non-convergent steps retry with halved timesteps
    down to ``dt * dt_min_factor``.
    """
    options = options or TransientOptions()
    if t_stop <= 0:
        raise SimulationError(f"t_stop must be positive, got {t_stop}")
    system = _System(circuit, options.newton)

    # Initial solution.
    if options.use_initial_conditions:
        x = np.zeros(system.n_unknowns)
    else:
        op = operating_point(circuit, t=0.0, options=options.newton)
        x = op.solution.copy()

    views = system.views_for(x)
    for element, view in zip(circuit.elements, views):
        element.init_state(view)
    system.compile()
    table = system.table
    try:
        return _integrate(system, x, t_stop, options, record_nodes)
    finally:
        if table is not None:
            table.write_back()


def _integrate(system: _System, x: np.ndarray, t_stop: float,
               options: TransientOptions,
               record_nodes: Optional[Sequence[str]]) -> TransientResult:
    """The backward-Euler time loop of :func:`transient`.

    Each accepted step keeps its solution vector and its source levels;
    traces, branch currents and powers are sliced out of them after the
    loop.  On the compiled path the levels are the ones ``set_levels``
    wrote into the stamp table for the accepted ``t`` (at source scale 1,
    so equal to ``level(t)``); the Python path calls ``level(t)``.
    """
    circuit = system.circuit
    table = system.table

    node_list = list(record_nodes) if record_nodes else list(circuit.node_names)
    node_idx = {name: circuit.node_index(name) for name in node_list}
    sources = ([e for e in circuit.elements if isinstance(e, VoltageSource)]
               if table is None else table.sources)

    times: List[float] = [0.0]
    solutions: List[np.ndarray] = [x]
    levels: list = [[src.level(0.0) for src in sources]]

    t = 0.0
    dt_min = options.dt * options.dt_min_factor
    while t < t_stop - 1e-6 * options.dt:
        # Stretch the final step up to 1.5*dt rather than leaving a sliver
        # step whose huge C/h companion conductance amplifies roundoff.
        remaining = t_stop - t
        h = remaining if remaining <= 1.5 * options.dt else options.dt
        while True:
            try:
                x_new = system.solve_newton(x, mode="tran", t=t + h, h=h,
                                            gmin=options.newton.gmin)
                break
            except ConvergenceError:
                h *= 0.5
                if h < dt_min:
                    raise
        x = x_new
        t += h
        if table is None:
            new_views = system.views_for(x)
            for element, view in zip(circuit.elements, new_views):
                element.commit(view)
            levels.append([src.level(t) for src in sources])
        else:
            table.commit(x, h)
            levels.append(table.par[table.level_offsets])
        times.append(t)
        solutions.append(x)

    n_points = len(times)
    xs = np.array(solutions)
    source_levels = np.array(levels, dtype=np.float64).reshape(
        n_points, len(sources))
    voltages = {name: np.zeros(n_points) if idx < 0 else xs[:, idx].copy()
                for name, idx in node_idx.items()}
    currents: Dict[str, np.ndarray] = {}
    powers: Dict[str, np.ndarray] = {}
    for k, src in enumerate(sources):
        i_br = xs[:, src._branch_index[0]].copy()
        currents[src.name] = i_br
        # Branch current flows pos->neg inside the source; delivered power
        # is -v*i under that convention, negated so "delivered" is positive.
        powers[src.name] = -(source_levels[:, k] * i_br)
    return TransientResult(t=np.asarray(times), voltages=voltages,
                           branch_currents=currents, source_power=powers)
