"""`Fom` — the one canonical figure-of-merit record.

Every fidelity tier answers the same questions the paper's Table IV
asks — cell/macro area, write energy, 1-step and total search latency,
1-step/2-step/average search energy — so every tier returns the same
frozen dataclass, and :func:`fecam.metrics.evaluate` is the one way to
get one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..designs import DesignKind
from ..units import FJ, PS, UM

__all__ = ["Fom"]


@dataclass(frozen=True)
class Fom:
    """Figures of merit for one design point at one fidelity.

    Energies are joules *per bit* (the paper's fJ/bit convention),
    latencies seconds, areas m².  ``search_energy_avg`` is the paper's
    early-termination average ``p·E₁ + (1−p)·E₂`` at the point's step-1
    miss rate.

    >>> from fecam.designs import DesignKind
    >>> from fecam.metrics import DesignPoint, evaluate
    >>> fom = evaluate(DesignPoint(DesignKind.DG_1T5), fidelity="paper")
    >>> fom.as_row()["cell_area_um2"]
    0.156
    """

    design: DesignKind
    fidelity: str
    rows: int
    word_length: int
    banks: int
    step1_miss_rate: float
    write_voltage: str
    fe_thickness: Optional[float]  # m
    cell_area: float  # m^2
    write_energy_per_cell: Optional[float]  # J
    latency_1step: float  # s (single search step / single evaluation)
    latency_total: float  # s (both steps for 1.5T1Fe designs)
    search_energy_1step: float  # J per cell
    search_energy_total: float  # J per cell (2 steps)
    search_energy_avg: float  # J per cell at the assumed step-1 miss rate
    macro_area: float  # m^2 incl. drivers + encoders, all banks
    driver_count: int
    encoder_delay: float

    @property
    def cell_area_um2(self) -> float:
        return self.cell_area / UM ** 2

    @property
    def search_energy_per_word(self) -> float:
        """Average energy of one whole-word search (J)."""
        return self.search_energy_avg * self.word_length

    @property
    def edp(self) -> float:
        """Energy-delay product of one average word search (J·s)."""
        return self.search_energy_per_word * self.latency_total

    def as_row(self) -> Dict[str, float]:
        """Flat dict in the paper's units (um^2 / fJ / ps).

        Key set and rounding match the published Table IV columns, plus
        the tier tag and the energy-delay product.
        """
        return {
            "design": str(self.design),
            "fidelity": self.fidelity,
            "write_voltage": self.write_voltage,
            "t_fe_nm": (None if self.fe_thickness is None
                        else round(self.fe_thickness * 1e9, 3)),
            "cell_area_um2": round(self.cell_area_um2, 4),
            "write_energy_fj": (None if self.write_energy_per_cell is None
                                else round(self.write_energy_per_cell / FJ, 3)),
            "latency_1step_ps": round(self.latency_1step / PS, 1),
            "latency_total_ps": round(self.latency_total / PS, 1),
            "energy_1step_fj": round(self.search_energy_1step / FJ, 4),
            "energy_total_fj": round(self.search_energy_total / FJ, 4),
            "energy_avg_fj": round(self.search_energy_avg / FJ, 4),
            "edp_fj_ns": round(self.edp / (FJ * 1e-9), 4),
        }
