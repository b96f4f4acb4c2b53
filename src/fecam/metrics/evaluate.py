"""`evaluate` — one entry point over the paper / analytical / SPICE tiers.

The paper's headline results are figure-of-merit comparisons; this
module is the single front door that produces them at selectable model
fidelity (the Eva-CAM framing the paper builds on):

* ``fidelity="paper"`` — the published Table IV reference values
  (instant; the tier tests and reports compare against);
* ``fidelity="analytical"`` — closed-form RC/current expressions from
  :mod:`fecam.arch.analytical` (microseconds; architecture sweeps);
* ``fidelity="spice"`` — the word-level MNA transient tier
  (:func:`fecam.cam.word.simulate_word_search`; ground truth, ~1 s per
  cold design point).

Area, drivers, and encoder costs never need transient simulation, so
all three tiers share one macro-geometry helper; search latency/energy
and the write tier differ per fidelity.  Results are memoized in the
shared :mod:`~fecam.metrics.registry`.

>>> from fecam.designs import DesignKind
>>> from fecam.metrics import DesignPoint, evaluate
>>> fast = evaluate(DesignPoint(DesignKind.DG_1T5), fidelity="analytical")
>>> truth = evaluate(DesignPoint(DesignKind.DG_1T5), fidelity="spice")
>>> 0.25 < fast.latency_total / truth.latency_total < 4.0
True
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..designs import DesignKind
from ..errors import OperationError
from .fom import Fom
from .point import DesignPoint, FIDELITIES
from .registry import cached_evaluate

__all__ = ["evaluate"]

# The arch/cam tiers are imported lazily inside the evaluators:
# fecam.arch.evacam imports this package at module load (for the shared
# Fom/registry), so importing arch back at module level would cycle.


def evaluate(point: DesignPoint, fidelity: str = "spice") -> Fom:
    """Evaluate one design point at the requested model fidelity.

    Returns the canonical :class:`Fom`; repeated calls with an equal
    point and fidelity return the identical cached object.

    >>> from fecam.designs import DesignKind
    >>> from fecam.metrics import DesignPoint, evaluate
    >>> fom = evaluate(DesignPoint(DesignKind.SG_1T5), fidelity="paper")
    >>> fom.as_row()["energy_avg_fj"]
    0.12
    >>> evaluate(DesignPoint(DesignKind.SG_1T5), "paper") is fom
    True
    """
    if not isinstance(point, DesignPoint):
        raise OperationError(
            f"evaluate() needs a DesignPoint, got {point!r}")
    if fidelity not in FIDELITIES:
        raise OperationError(
            f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")
    if fidelity == "paper":
        compute = lambda: _evaluate_paper(point)  # noqa: E731
    elif fidelity == "analytical":
        compute = lambda: _evaluate_analytical(point)  # noqa: E731
    else:
        compute = lambda: _evaluate_spice(point)  # noqa: E731
    return cached_evaluate(point, fidelity, compute)


# ---------------------------------------------------------------------------
# shared pieces (no transient simulation)
# ---------------------------------------------------------------------------

def _macro_costs(point: DesignPoint,
                 cell_area: float) -> Tuple[float, int, float]:
    """(macro_area, driver_count, encoder_delay) for the whole point.

    At ``banks=1`` this is one subarray's drivers and priority encoder;
    extra banks replicate the per-bank macro and add one global priority
    encoder over the bank outputs.
    """
    from ..arch.drivers import SharedDriverMat
    from ..arch.encoder import PriorityEncoder

    design = point.design
    mat = (SharedDriverMat(design, rows=point.rows, cols=point.word_length)
           if design.is_fefet else None)
    encoder_cost = PriorityEncoder(point.rows).cost()
    cells_area = cell_area * point.rows * point.word_length
    driver_area = mat.driver_area(shared=True) / 4.0 if mat else 0.0
    macro_area = point.banks * (cells_area + driver_area + encoder_cost.area)
    encoder_delay = encoder_cost.delay
    if point.banks > 1:
        global_cost = PriorityEncoder(point.banks).cost()
        macro_area += global_cost.area
        encoder_delay += global_cost.delay
    driver_count = (mat.driver_count(True) * point.banks) if mat else 0
    return macro_area, driver_count, encoder_delay


def _write_info(design: DesignKind) -> Tuple[str, Optional[float],
                                             Optional[float]]:
    """(write_voltage label, write energy per cell, t_fe) — closed form."""
    from ..cam.ops import WriteController
    from ..devices import operating_voltages

    if not design.is_fefet:
        return "0.9V", None, None
    volts = operating_voltages(design)
    wc = WriteController(design)
    if design.is_one_fefet:
        write_v = f"+/-{volts.vw:g}V, {volts.vm:g}V"
    else:
        write_v = f"+/-{volts.vw:g}V"
    return write_v, wc.write_energy_per_cell(), wc.params.ferro.t_fe


def _build(point: DesignPoint, fidelity: str, *, write_voltage: str,
           fe_thickness: Optional[float], cell_area: float,
           write_energy: Optional[float], latency_1step: float,
           latency_total: float, e1: float, e2: float,
           e_avg: float) -> Fom:
    macro_area, driver_count, encoder_delay = _macro_costs(point, cell_area)
    return Fom(
        design=point.design, fidelity=fidelity, rows=point.rows,
        word_length=point.word_length, banks=point.banks,
        step1_miss_rate=point.step1_miss_rate,
        write_voltage=write_voltage, fe_thickness=fe_thickness,
        cell_area=cell_area, write_energy_per_cell=write_energy,
        latency_1step=latency_1step, latency_total=latency_total,
        search_energy_1step=e1, search_energy_total=e2,
        search_energy_avg=e_avg, macro_area=macro_area,
        driver_count=driver_count, encoder_delay=encoder_delay)


# ---------------------------------------------------------------------------
# fidelity tiers
# ---------------------------------------------------------------------------

def _evaluate_paper(point: DesignPoint) -> Fom:
    """The published Table IV row, verbatim.

    At the paper's default 90 % step-1 miss rate the published average
    energy is reported exactly as printed; any other miss rate recomputes
    the early-termination weighting from the published step energies.
    """
    from ..arch.evacam import PAPER_TABLE4
    from ..units import FJ, PS, UM
    from .point import STEP1_MISS_RATE_DEFAULT

    design = point.design
    entry = PAPER_TABLE4[design]
    cell_area = entry["cell_area_um2"] * UM ** 2
    e2 = entry["energy_total_fj"] * FJ
    e1 = (entry["energy_1step_fj"] * FJ
          if entry["energy_1step_fj"] is not None else e2)
    latency_total = entry["latency_total_ps"] * PS
    latency_1step = (entry["latency_1step_ps"] * PS
                     if entry["latency_1step_ps"] is not None
                     else latency_total)
    p = point.step1_miss_rate
    if (design.uses_two_step_search
            and round(p, 4) != round(STEP1_MISS_RATE_DEFAULT, 4)):
        e_avg = p * e1 + (1.0 - p) * e2
    else:
        e_avg = entry["energy_avg_fj"] * FJ
    return _build(
        point, "paper", write_voltage=entry["write_voltage"],
        fe_thickness=(None if entry["t_fe_nm"] is None
                      else entry["t_fe_nm"] * 1e-9),
        cell_area=cell_area,
        write_energy=(None if entry["write_energy_fj"] is None
                      else entry["write_energy_fj"] * FJ),
        latency_1step=latency_1step, latency_total=latency_total,
        e1=e1, e2=e2, e_avg=e_avg)


def _evaluate_analytical(point: DesignPoint) -> Fom:
    """Closed-form tier: no transient simulation anywhere."""
    from ..arch.analytical import estimate_search
    from ..arch.geometry import cell_geometry

    design = point.design
    est = estimate_search(design, point.word_length,
                          step1_miss_rate=point.step1_miss_rate)
    e1 = est.energy_per_bit_1step
    e2 = est.energy_per_bit
    if design.uses_two_step_search:
        p = point.step1_miss_rate
        e_avg = p * e1 + (1.0 - p) * e2
    else:
        e_avg = e2
    write_v, write_energy, t_fe = _write_info(design)
    return _build(
        point, "analytical", write_voltage=write_v, fe_thickness=t_fe,
        cell_area=cell_geometry(design).area, write_energy=write_energy,
        latency_1step=est.latency_1step, latency_total=est.latency_total,
        e1=e1, e2=e2, e_avg=e_avg)


def _evaluate_spice(point: DesignPoint) -> Fom:
    """Ground-truth tier: word-level MNA transient simulation.

    The paper's Tab. IV / Fig. 7 producer: search latency and energy
    from :func:`fecam.cam.word.simulate_word_search`, area, drivers and
    encoder from the analytical tier.
    """
    from ..arch.geometry import cell_geometry
    from ..cam.word import simulate_word_search

    design = point.design
    word_length = point.word_length
    timings = point.timings
    if design.uses_two_step_search:
        miss1 = simulate_word_search(design, word_length, "step1_miss",
                                     timings=timings)
        miss2 = simulate_word_search(design, word_length, "step2_miss",
                                     timings=timings)
        latency_1 = miss1.latency
        latency_2 = miss2.latency
        e1 = miss1.energy_per_bit
        e2 = miss2.energy_per_bit
        p = point.step1_miss_rate
        e_avg = p * e1 + (1.0 - p) * e2
    else:
        miss = simulate_word_search(design, word_length, "miss",
                                    timings=timings)
        latency_1 = latency_2 = miss.latency
        e1 = e2 = e_avg = miss.energy_per_bit
    if latency_1 is None or latency_2 is None:
        raise OperationError(
            f"{design}: mismatch did not resolve within the eval window")
    write_v, write_energy, t_fe = _write_info(design)
    return _build(
        point, "spice", write_voltage=write_v, fe_thickness=t_fe,
        cell_area=cell_geometry(design).area, write_energy=write_energy,
        latency_1step=latency_1, latency_total=latency_2,
        e1=e1, e2=e2, e_avg=e_avg)
