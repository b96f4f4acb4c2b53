"""Compiled MNA stamping and Newton solve against the Python stamp path.

The contract: whenever the compiled kernel assembles a circuit, the
Jacobian and the residual are bit-identical (``==``, not approx) to what
the elements' ``stamp`` methods produce.  The compiled Newton solve
factors with its own C LU, so its waveforms, committed element states
and ``ConvergenceError`` exits are bit-identical to the Python loop
solving through that LU's Python twin (``lu_twin.solve``, backend
``"twin"`` below), and the C LU equals the twin on every system tried.
Against the shipped Python loop, which solves with LAPACK ``dgesv``, the
compiled results stay within :data:`DGESV_BOUNDS`.  Circuits with an
element that has no record stay on the Python path, and
``FECAM_KERNEL=numpy`` never touches the compiler.
"""

import dataclasses
import math
import os
from unittest import mock

import numpy as np
import pytest

import lu_twin

from fecam import kernels
from fecam.cam.ops import WriteController
from fecam.cam.word import (SCENARIOS_SINGLE_STEP, SCENARIOS_TWO_STEP,
                            WordTimings, _WordBuilder, scenario_content,
                            simulate_word_search)
from fecam.designs import DesignKind
from fecam.devices import make_fefet
from fecam.errors import ConvergenceError
from fecam.devices.calibration import nmos, pmos
from fecam.spice import (Capacitor, Circuit, Diode, NewtonOptions, Pulse,
                         Resistor, Switch, TransientOptions, VoltageSource,
                         operating_point, transient)
from fecam.spice.analysis import _System

needs_compiled = pytest.mark.skipif(
    not kernels.compiled_available(),
    reason="compiled kernel unavailable (no C toolchain)")

#: The seven word circuits: one per single-step design, both step counts
#: of each two-step design.
WORD_CIRCUITS = [(DesignKind.CMOS_16T, "miss"),
                 (DesignKind.SG_2FEFET, "miss"),
                 (DesignKind.DG_2FEFET, "miss"),
                 (DesignKind.SG_1T5, "step1_miss"),
                 (DesignKind.SG_1T5, "step2_miss"),
                 (DesignKind.DG_1T5, "step1_miss"),
                 (DesignKind.DG_1T5, "step2_miss")]


@pytest.fixture(autouse=True)
def clean_registry():
    kernels.reset_backend()
    yield
    kernels.reset_backend()


def run_on(backend, fn):
    """``fn()`` on ``"compiled"``, ``"numpy"`` (the shipped Python loop,
    ``dgesv``) or ``"twin"`` (the Python loop solving through
    ``lu_twin.solve``)."""
    kernels.set_backend("numpy" if backend == "twin" else backend)
    if backend != "twin":
        return fn()
    with mock.patch.object(np.linalg, "solve", lu_twin.solve):
        return fn()


def word_circuit(design, scenario, n_bits=16):
    stored, query = scenario_content(design, n_bits, scenario)
    timings = WordTimings().for_design(design, n_bits)
    return _WordBuilder(design, stored, query, scenario, timings).build()


def write_circuit(v_write=None, initial_s=0.0):
    """The electrical form of WriteController's +Vw program pulse, plus a
    MOSFET and a plain capacitor so every stateful element is present."""
    design = DesignKind.DG_1T5
    wc = WriteController(design)
    v_write = wc.volts.vw if v_write is None else v_write
    ckt = Circuit("write")
    ckt.add(VoltageSource("VBL", "fg", "0",
                          Pulse(0.0, v_write, delay=0.5e-9, rise=0.5e-9,
                                fall=0.5e-9, width=wc.volts.t_write)))
    ckt.add(Resistor("RD", "d", "0", 100.0))
    ckt.add(Resistor("RS", "s", "0", 100.0))
    ckt.add(VoltageSource("VBG", "bg", "0", 0.0))
    ckt.add(make_fefet(design, "FE", "fg", "d", "s", "bg",
                       initial_s=initial_s, multiplier=3.0))
    ckt.add(nmos("MN", "out", "fg", "0"))
    ckt.add(pmos("MP", "out", "fg", "vdd", "vdd"))
    ckt.add(VoltageSource("VDD", "vdd", "0", 0.8))
    ckt.add(Capacitor("CL", "out", "0", 1e-15))
    return ckt, wc.volts.t_write + 2.5e-9


def both_paths(x, system, *, mode, t, h, gmin, source_scale=1.0):
    """(J, F) from the Python stamps, then from the compiled table."""
    ctx = system.ctx
    ctx.mode, ctx.t, ctx.h, ctx.source_scale = mode, t, h, source_scale
    system.assemble(x, system.views_for(x), gmin)
    j_py, f_py = ctx._j.copy(), ctx._f.copy()
    system.table.set_levels(t, source_scale)
    system.table.assemble(x, system.n_nodes, mode == "tran", h, gmin,
                          ctx._j, ctx._f)
    return (j_py, f_py), (ctx._j.copy(), ctx._f.copy())


def element_states(circuit):
    """Every committed charge and domain fraction, by element name."""
    states = {}
    for element in circuit.elements:
        if isinstance(element, Capacitor):
            states[element.name] = element._q_committed
        elif hasattr(element, "_q_committed"):
            states[element.name] = dict(element._q_committed)
        if hasattr(element, "layer"):
            states[element.name + ".s"] = element.layer.s
    return states


@needs_compiled
@pytest.mark.parametrize("build", [
    *[pytest.param(lambda d=d, s=s: word_circuit(d, s), id=f"{d.name}-{s}")
      for d, s in WORD_CIRCUITS],
    pytest.param(lambda: write_circuit()[0], id="write")])
def test_jacobian_and_residual_are_bit_identical(build):
    kernels.set_backend("compiled")
    circuit = build()
    system = _System(circuit, NewtonOptions())
    rng = np.random.default_rng(7)
    # Non-trivial committed state: charges from one random iterate.
    x_state = rng.uniform(-1.0, 2.5, system.n_unknowns)
    for element, view in zip(circuit.elements, system.views_for(x_state)):
        element.init_state(view)
    system.compile()
    assert system.table is not None
    for _ in range(3):
        x = rng.uniform(-1.0, 2.5, system.n_unknowns)
        x[system.n_nodes:] *= 1e-4  # branch currents
        for mode, h in (("dc", 1.0), ("tran", 25e-12), ("tran", 1e-9)):
            for t in (0.0, 0.13e-9, 1.7e-9):
                (j_py, f_py), (j_c, f_c) = both_paths(
                    x, system, mode=mode, t=t, h=h, gmin=1e-12)
                assert np.array_equal(j_py, j_c), (mode, h, t)
                assert np.array_equal(f_py, f_c), (mode, h, t)
    (j_py, f_py), (j_c, f_c) = both_paths(x, system, mode="dc", t=0.0, h=1.0,
                                          gmin=1e-5, source_scale=0.3)
    assert np.array_equal(j_py, j_c) and np.array_equal(f_py, f_c)


def word_result_fields(result):
    fields = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if f.name == "result":
            fields["t"] = value.t
            for group in ("voltages", "branch_currents", "source_power"):
                for key, arr in getattr(value, group).items():
                    fields[f"{group}.{key}"] = arr
        else:
            fields[f.name] = value
    return fields


def assert_fields_identical(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert a[key].tobytes() == b[key].tobytes(), key
        else:
            assert a[key] == b[key], key


@needs_compiled
@pytest.mark.parametrize("n_bits", [16, 64])
@pytest.mark.parametrize("design", list(DesignKind), ids=lambda d: d.name)
def test_word_search_is_bit_identical(design, n_bits):
    scenarios = (SCENARIOS_TWO_STEP if design.uses_two_step_search
                 else SCENARIOS_SINGLE_STEP)
    for scenario in scenarios:
        def search():
            return simulate_word_search(design, n_bits, scenario)

        reference = run_on("twin", search)
        compiled = run_on("compiled", search)
        assert_fields_identical(word_result_fields(reference),
                                word_result_fields(compiled))


@needs_compiled
@pytest.mark.parametrize("v_write,initial_s", [(2.0, 0.0), (-2.0, 1.0),
                                                (1.6, 0.0)])
def test_write_transient_end_state_is_bit_identical(v_write, initial_s):
    states, results = [], []
    for backend in ("twin", "compiled"):
        circuit, t_stop = write_circuit(v_write, initial_s)
        results.append(run_on(backend, lambda: transient(
            circuit, t_stop, options=TransientOptions(dt=0.1e-9))))
        states.append(element_states(circuit))
    assert states[0] == states[1]
    fe_s = states[1]["FE.s"]
    assert fe_s != initial_s  # the pulse really moved the polarization
    assert results[0].t.tobytes() == results[1].t.tobytes()
    for name in results[0].voltages:
        assert (results[0].voltage(name).tobytes()
                == results[1].voltage(name).tobytes())


@pytest.mark.parametrize("element", ["diode", "switch"])
def test_unrecorded_elements_take_the_python_path(element):
    ckt = Circuit("mixed")
    ckt.add(VoltageSource("VIN", "in", "0",
                          Pulse(0.0, 1.0, delay=0.1e-9, rise=10e-12,
                                width=1.0)))
    ckt.add(Resistor("R1", "in", "mid", 1e3))
    ckt.add(Capacitor("C1", "out", "0", 1e-12))
    if element == "diode":
        ckt.add(Diode("D1", "mid", "out"))
    else:
        ckt.add(VoltageSource("VC", "ctl", "0", 1.0))
        ckt.add(Switch("S1", "mid", "out", "ctl"))
    system = _System(ckt, NewtonOptions())
    system.compile()
    assert system.table is None
    result = transient(ckt, 10e-9, options=TransientOptions(dt=10e-12))
    # Charged through 1 kOhm into 1 pF: well past five time constants,
    # less a diode drop when the diode is in the path.
    final = result.final("out")
    if element == "diode":
        assert 0.2 < final < 0.8
    else:
        assert final == pytest.approx(1.0, abs=0.02)
    assert ckt.element("C1").voltage_state == pytest.approx(final)


def test_numpy_policy_never_builds(monkeypatch):
    def must_not_build():
        raise AssertionError("FECAM_KERNEL=numpy attempted a build")

    from fecam.kernels import compiled as compiled_mod
    monkeypatch.setattr(compiled_mod, "load_library", must_not_build)
    kernels.set_backend("numpy")
    circuit = word_circuit(DesignKind.DG_1T5, "step2_miss")
    system = _System(circuit, NewtonOptions())
    system.compile()
    assert system.table is None
    result = simulate_word_search(DesignKind.DG_1T5, 16, "step2_miss")
    assert not result.matched
    assert kernels._attempted is False


@needs_compiled
def test_compiled_policy_uses_the_table(monkeypatch):
    """No silent fallback: with the compiled kernel selected, a word
    transient never calls the Python assembler."""
    kernels.set_backend("compiled")

    def python_assembly(*args, **kwargs):
        raise AssertionError("compiled policy fell back to stamp()")

    monkeypatch.setattr(_System, "assemble", python_assembly)
    result = simulate_word_search(DesignKind.DG_1T5, 16, "step2_miss")
    assert not result.matched
    op = operating_point(write_circuit()[0])
    assert op.voltages


@pytest.mark.skipif(os.environ.get("FECAM_KERNEL") != "compiled",
                    reason="only the FECAM_KERNEL=compiled job pins this")
def test_compiled_job_really_has_the_kernel():
    assert kernels.compiled_available()
    system = _System(word_circuit(DesignKind.DG_1T5, "step2_miss"),
                     NewtonOptions())
    system.compile()
    assert system.table is not None



def transient_fields(result):
    """Every array of a TransientResult, by name."""
    fields = {"t": result.t}
    for group in ("voltages", "branch_currents", "source_power"):
        for key, arr in getattr(result, group).items():
            fields[f"{group}.{key}"] = arr
    return fields


def convergence_failure(backend, run):
    """(message, iterations, residual) of the ConvergenceError ``run()``
    raises on ``backend``."""
    with pytest.raises(ConvergenceError) as info:
        run_on(backend, run)
    exc = info.value
    return str(exc), exc.iterations, exc.residual


def parallel_sources():
    """Two ideal sources at different levels across one node: the two
    branch rows of J are equal, so every Newton solve is singular."""
    ckt = Circuit("clash")
    ckt.add(VoltageSource("VA", "a", "0", 1.0))
    ckt.add(VoltageSource("VB", "a", "0", 2.0))
    ckt.add(Resistor("R1", "a", "0", 1e3))
    return ckt


def steep_inverter(v_step=8.0):
    """An inverter behind an RC low-pass, driven by a ramp steep enough
    that one base timestep moves the input several v_limit clamps."""
    ckt = Circuit("steep")
    ckt.add(VoltageSource("VIN", "in", "0",
                          Pulse(0.0, v_step, delay=0.1e-9, rise=0.1e-9,
                                width=1.0)))
    ckt.add(Resistor("R1", "in", "g", 1e3))
    ckt.add(Capacitor("CG", "g", "0", 1e-13))
    ckt.add(VoltageSource("VDD", "vdd", "0", 0.8))
    ckt.add(nmos("MN", "out", "g", "0"))
    ckt.add(pmos("MP", "out", "g", "vdd", "vdd"))
    ckt.add(Capacitor("CL", "out", "0", 1e-15))
    return ckt


@needs_compiled
@pytest.mark.parametrize("case", ["singular-solve", "singular-op",
                                  "max-iterations-op",
                                  "max-iterations-tran"])
def test_newton_failures_are_identical(case):
    """Both Newton loops leave through the same exit with the same
    message, iteration count and residual."""
    def run():
        if case == "singular-solve":
            system = _System(parallel_sources(), NewtonOptions())
            system.compile()
            system.solve_newton(np.zeros(system.n_unknowns), mode="dc",
                                t=0.0, h=1.0, gmin=1e-12)
        elif case == "singular-op":
            operating_point(parallel_sources())
        elif case == "max-iterations-op":
            operating_point(word_circuit(DesignKind.DG_1T5, "step2_miss"),
                            options=NewtonOptions(max_iterations=2))
        else:
            circuit, t_stop = write_circuit()
            newton = NewtonOptions(max_iterations=2)
            transient(circuit, t_stop,
                      options=TransientOptions(dt=0.1e-9, newton=newton,
                                               use_initial_conditions=True))

    reference = convergence_failure("twin", run)
    compiled = convergence_failure("compiled", run)
    assert compiled == reference
    message, iterations, residual = reference
    if case.startswith("singular"):
        assert message.endswith("(iteration 0): Singular matrix")
        assert "singular MNA matrix" in message and iterations == 0
        # dgesv finds the same zero pivot: the shipped loop agrees too.
        assert convergence_failure("numpy", run) == reference
    else:
        assert "after 2 iterations" in message
        assert math.isfinite(residual) and residual > 0.0


@needs_compiled
def test_halved_timestep_retry_is_identical():
    """A ramp too steep for the base step at this iteration limit: both
    loops reject the same steps and land on the same time grid.  The
    tight residual_tol makes the residual test, not only the update
    size, decide when a solve stops."""
    dt = 0.05e-9
    newton = NewtonOptions(max_iterations=6, residual_tol=1e-10)
    options = TransientOptions(dt=dt, newton=newton)
    results = [run_on(backend, lambda: transient(steep_inverter(), 0.5e-9,
                                                 options=options))
               for backend in ("twin", "compiled")]
    reference, compiled = results
    steps = np.diff(reference.t)
    assert steps.min() < 0.75 * dt  # some step really was halved
    assert reference.t.tobytes() == compiled.t.tobytes()
    assert_fields_identical(transient_fields(reference),
                            transient_fields(compiled))


@needs_compiled
def test_recorded_subset_and_source_power():
    """``record_nodes`` narrows the traces (ground reads zero) and every
    source's power is -(level(t) * i) sample by sample on both paths."""
    circuit = word_circuit(DesignKind.DG_1T5, "step2_miss")
    node = circuit.node_names[0]
    sources = [e for e in circuit.elements if isinstance(e, VoltageSource)]
    results = [run_on(backend, lambda: transient(
        word_circuit(DesignKind.DG_1T5, "step2_miss"), 0.5e-9,
        record_nodes=[node, "0"], options=TransientOptions(dt=25e-12)))
        for backend in ("twin", "compiled")]
    reference, compiled = results
    assert_fields_identical(transient_fields(reference),
                            transient_fields(compiled))
    assert list(reference.voltages) == [node, "0"]
    assert not np.any(reference.voltages["0"])
    assert reference.voltages["0"].shape == reference.t.shape
    assert set(reference.source_power) == {src.name for src in sources}
    for src in sources:
        currents = reference.branch_currents[src.name]
        expected = [-(src.level(float(t)) * float(i))
                    for t, i in zip(reference.t, currents)]
        assert reference.source_power[src.name].tolist() == expected


#: How far the compiled solve may sit from the shipped Python loop, whose
#: LU is LAPACK's ``dgesv``, over every word scenario at 16 and 64 bits:
#: relative deviation by field kind (a waveform's relative to its own
#: peak).  Measured maxima on an x86-64 host (NumPy 2.4, OpenBLAS):
#: latency and energy totals 3.2e-15, ML/SA levels and energy groups
#: 4.6e-10 (``sa_final`` residuals and the ~1e-21 J ``storage`` group,
#: both near zero), waveforms 2.1e-8 (a near-zero branch current).  The
#: schedule (``t_search_start``, ``t_end``, the time grid), step counts
#: and match outcomes are equal.  The bounds leave ~30x of margin.
DGESV_BOUNDS = {"total": 1e-13, "level": 1e-8, "waveform": 1e-6}
TOTAL_FIELDS = ("latency", "energy_total", "energy_per_bit")
LEVEL_FIELDS = ("ml_final", "sa_final", "ml_min")


def relative(a, b):
    return abs(a - b) / abs(a) if a else abs(b)


@needs_compiled
@pytest.mark.parametrize("n_bits", [16, 64])
@pytest.mark.parametrize("design", list(DesignKind), ids=lambda d: d.name)
def test_compiled_solve_stays_within_the_dgesv_bound(design, n_bits):
    scenarios = (SCENARIOS_TWO_STEP if design.uses_two_step_search
                 else SCENARIOS_SINGLE_STEP)
    for scenario in scenarios:
        def search():
            return simulate_word_search(design, n_bits, scenario)

        shipped = word_result_fields(run_on("numpy", search))
        compiled = word_result_fields(run_on("compiled", search))
        assert shipped.keys() == compiled.keys()
        for key, value in shipped.items():
            other = compiled[key]
            if key == "t":
                assert value.tobytes() == other.tobytes()
            elif isinstance(value, np.ndarray):
                peak = np.abs(value).max()
                assert (np.abs(value - other).max()
                        <= DGESV_BOUNDS["waveform"] * peak), key
            elif key == "energy_by_group":
                assert value.keys() == other.keys()
                for group in value:
                    assert (relative(value[group], other[group])
                            <= DGESV_BOUNDS["level"]), (key, group)
            elif key in TOTAL_FIELDS and value is not None:
                assert relative(value, other) <= DGESV_BOUNDS["total"], key
            elif key in LEVEL_FIELDS:
                assert relative(value, other) <= DGESV_BOUNDS["level"], key
            else:
                assert value == other, key


@needs_compiled
def test_compiled_solve_never_calls_numpy_solve(monkeypatch):
    """Under the compiled backend every Newton solve is the C LU: no
    word search, write transient or operating point reaches
    ``np.linalg.solve``."""
    kernels.set_backend("compiled")

    def numpy_solve(*args, **kwargs):
        raise AssertionError("compiled policy called np.linalg.solve")

    monkeypatch.setattr(np.linalg, "solve", numpy_solve)
    for design, scenario in WORD_CIRCUITS:
        result = simulate_word_search(design, 16, scenario)
        assert result.functionally_correct
    circuit, t_stop = write_circuit()
    assert transient(circuit, t_stop, options=TransientOptions(dt=0.1e-9))
    assert operating_point(write_circuit()[0]).voltages
