"""MNA assembly, Newton-Raphson solver, DC and transient analyses.

The solver follows textbook SPICE practice:

* Unknown vector ``x = [node voltages | branch currents]``.
* Residual ``F(x)``: KCL per node plus one branch equation per voltage
  source; Newton iterates ``J dx = -F`` with per-step voltage limiting.
* DC operating point uses gmin stepping, then source stepping as fallback.
* Transient integrates with backward Euler; every element with state
  exposes a companion model through its ``stamp``/``commit`` methods and the
  step is retried with a halved timestep on non-convergence.

Assembly has two paths with bit-identical results.  When the compiled
kernel is active (:func:`fecam.kernels.active_kernel`) and every element
provides a :meth:`~fecam.spice.netlist.Element.record`, the circuit is
flattened into a :class:`_StampTable` and one C call per Newton iteration
assembles J and F (and one per accepted step commits the state).
Otherwise each element's ``stamp`` runs in Python — the reference path,
the path without a compiler, and the one for elements without a record
(``CurrentSource``, ``Switch``, ``Diode``).

Matrices are dense numpy for small systems and switch to scipy sparse
factorization above a size threshold; TCAM word-level circuits stay well
under a thousand unknowns either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import kernels
from ..errors import ConvergenceError, NetlistError, SimulationError
from .elements import VoltageSource
from .netlist import REC_VSRC, Circuit, Element, TerminalVoltages
from .results import OperatingPoint, SweepResult, TransientResult

_SPARSE_THRESHOLD = 400


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
    and :meth:`write_back` hands it to the elements.
    """

    def __init__(self, kernel, elements: Sequence[Element],
                 records: Sequence[tuple]):
        rows: List[List[int]] = []
        par: List[float] = []
        state: List[float] = []
        self._owners = []   # (element, state offset, state length)
        self._sources = []  # (level offset in par, VoltageSource)
        for element, (element_rows, element_state) in zip(elements, records):
            base = len(state)
            for kind, nodes, params, slot in element_rows:
                if kind == REC_VSRC:
                    self._sources.append((len(par), element))
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

    def set_levels(self, t: float, source_scale: float) -> None:
        for offset, source in self._sources:
            self.par[offset] = source.level(t, source_scale)

    def assemble(self, x: np.ndarray, n_nodes: int, tran: bool, h: float,
                 gmin: float, j: np.ndarray, f: np.ndarray) -> None:
        self._kernel.mna_assemble(*self._ptrs, x.ctypes.data, x.size,
                                  n_nodes, tran, h, gmin, j.ctypes.data,
                                  f.ctypes.data)

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
        self.table = _StampTable(kernel, self.circuit.elements, records)

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
        opts = self.options
        ctx = self.ctx
        ctx.mode = mode
        ctx.t = t
        ctx.h = h
        ctx.source_scale = source_scale
        x = x0.copy()
        table = self.table
        if table is None:
            views = self.views_for(x)
        else:
            table.set_levels(t, source_scale)
        last_residual = math.inf
        for iteration in range(opts.max_iterations):
            if table is None:
                self.assemble(x, views, gmin)
            else:
                table.assemble(x, self.n_nodes, mode == "tran", h, gmin,
                               ctx._j, ctx._f)
            f = ctx._f
            last_residual = float(np.max(np.abs(f))) if f.size else 0.0
            try:
                if self.n_unknowns >= _SPARSE_THRESHOLD:
                    from scipy.sparse import csc_matrix
                    from scipy.sparse.linalg import spsolve
                    dx = spsolve(csc_matrix(ctx._j), -f)
                else:
                    dx = np.linalg.solve(ctx._j, -f)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    f"singular MNA matrix at t={t:.3e}s (iteration {iteration}): {exc}",
                    iterations=iteration, residual=last_residual) from exc
            if not np.all(np.isfinite(dx)):
                raise ConvergenceError(
                    f"non-finite Newton update at t={t:.3e}s",
                    iterations=iteration, residual=last_residual)
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
        raise ConvergenceError(
            f"Newton failed to converge after {opts.max_iterations} iterations "
            f"(t={t:.3e}s, residual={last_residual:.3e}A)",
            iterations=opts.max_iterations, residual=last_residual)


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
    """The backward-Euler time loop of :func:`transient`."""
    circuit = system.circuit
    table = system.table

    node_list = list(record_nodes) if record_nodes else list(circuit.node_names)
    node_idx = {name: circuit.node_index(name) for name in node_list}
    sources = [e for e in circuit.elements if isinstance(e, VoltageSource)]

    times: List[float] = [0.0]
    traces: Dict[str, List[float]] = {name: [0.0 if idx < 0 else float(x[idx])]
                                      for name, idx in node_idx.items()}
    currents: Dict[str, List[float]] = {}
    powers: Dict[str, List[float]] = {}
    for src in sources:
        i0 = float(x[src._branch_index[0]])
        v0 = src.level(0.0)
        currents[src.name] = [i0]
        # Branch current flows pos->neg inside the source; delivered power
        # is -v*i under that convention, negated so "delivered" is positive.
        powers[src.name] = [-(v0 * i0)]

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
        else:
            table.commit(x, h)
        times.append(t)
        for name, idx in node_idx.items():
            traces[name].append(0.0 if idx < 0 else float(x[idx]))
        for src in sources:
            i_br = float(x[src._branch_index[0]])
            v_src = src.level(t)
            currents[src.name].append(i_br)
            powers[src.name].append(-(v_src * i_br))

    return TransientResult(
        t=np.asarray(times),
        voltages={k: np.asarray(v) for k, v in traces.items()},
        branch_currents={k: np.asarray(v) for k, v in currents.items()},
        source_power={k: np.asarray(v) for k, v in powers.items()},
    )
