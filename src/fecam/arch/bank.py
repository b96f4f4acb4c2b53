"""Multi-bank TCAM macro organization (paper Fig. 2 scaled out).

A practical TCAM macro tiles many M x N subarrays into banks: capacity
grows with banks, all banks search in parallel (per-bank priority
encoders feed a global one), and writes go to one bank at a time.  This
module sizes such a macro for a given capacity/word-length target and
aggregates area, per-search energy and latency, including the shared-
driver mats of Fig. 6 for the DG designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import Dict, Optional

from ..designs import DesignKind
from ..errors import OperationError
from ..metrics.fom import Fom
from ..units import UM
from .drivers import SharedDriverMat
from .encoder import PriorityEncoder
from .geometry import cell_geometry

__all__ = ["TcamMacro"]


@dataclass(frozen=True)
class TcamMacro:
    """A banked TCAM macro: ``banks`` subarrays of ``rows`` x ``word``."""

    design: DesignKind
    rows: int = 64
    word: int = 64
    banks: int = 4

    def __post_init__(self):
        if self.rows < 1 or self.word < 2 or self.banks < 1:
            raise OperationError("invalid macro shape")

    @classmethod
    def for_capacity(cls, design: DesignKind, entries: int, word: int,
                     rows_per_bank: int = 64) -> "TcamMacro":
        """Smallest macro holding ``entries`` words."""
        if entries < 1:
            raise OperationError("need at least one entry")
        banks = ceil(entries / rows_per_bank)
        return cls(design=design, rows=rows_per_bank, word=word, banks=banks)

    # -- capacity ---------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.rows * self.banks

    @property
    def bits(self) -> int:
        return self.capacity * self.word

    # -- aggregated figures of merit ----------------------------------------------

    def _fom(self) -> Fom:
        from ..metrics import DesignPoint, evaluate

        return evaluate(DesignPoint(self.design, word_length=self.word,
                                    rows=self.rows), "spice")

    def area(self) -> float:
        """Total macro area (m^2): cells + drivers + encoders."""
        geo = cell_geometry(self.design)
        cells = geo.area * self.rows * self.word * self.banks
        if self.design.is_fefet:
            mats = max(1, ceil(self.banks / 4))
            mat = SharedDriverMat(self.design, rows=self.rows, cols=self.word)
            drivers = mats * mat.driver_area(shared=True)
        else:
            drivers = 0.0
        per_bank_enc = PriorityEncoder(self.rows).cost().area * self.banks
        global_enc = PriorityEncoder(self.banks).cost().area
        return cells + drivers + per_bank_enc + global_enc

    def area_mm2(self) -> float:
        return self.area() / 1e-6

    def search_energy(self) -> float:
        """Energy of one macro search (all banks in parallel), joules."""
        fom = self._fom()
        per_bank = fom.search_energy_avg * self.word * self.rows
        encoders = (PriorityEncoder(self.rows).cost().energy_per_op
                    * self.banks
                    + PriorityEncoder(self.banks).cost().energy_per_op)
        return per_bank * self.banks + encoders

    def search_latency(self) -> float:
        """Latency of one macro search: array + two encoder stages."""
        fom = self._fom()
        return (fom.latency_total
                + PriorityEncoder(self.rows).cost().delay
                + PriorityEncoder(self.banks).cost().delay)

    def write_energy(self) -> float:
        """Energy to write one word (one bank active)."""
        fom = self._fom()
        if fom.write_energy_per_cell is None:
            return 0.0
        return fom.write_energy_per_cell * self.word

    def throughput(self) -> float:
        """Searches per second (fully pipelined by bank-parallel search)."""
        return 1.0 / self.search_latency()

    def summary(self) -> Dict[str, float]:
        return {
            "design": str(self.design),
            "capacity_entries": self.capacity,
            "word_bits": self.word,
            "banks": self.banks,
            "area_mm2": self.area_mm2(),
            "search_energy_pj": self.search_energy() * 1e12,
            "search_latency_ns": self.search_latency() * 1e9,
            "write_energy_fj": self.write_energy() * 1e15,
            "throughput_msps": self.throughput() / 1e6,
        }
