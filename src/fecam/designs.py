"""The five TCAM designs evaluated in the paper, as a shared enum.

Every layer of the library (device calibration, cell netlists, area model,
behavioral engine, metrics) keys off :class:`DesignKind`, so the
mapping from a paper column to code is one symbol.
"""

from __future__ import annotations

from enum import Enum


class DesignKind(Enum):
    """TCAM design identifiers, matching the columns of paper Table IV."""

    CMOS_16T = "16T-CMOS"
    SG_2FEFET = "2SG-FeFET"
    DG_2FEFET = "2DG-FeFET"
    SG_1T5 = "1.5T1SG-Fe"
    DG_1T5 = "1.5T1DG-Fe"

    @property
    def is_fefet(self) -> bool:
        return self is not DesignKind.CMOS_16T

    @property
    def is_double_gate(self) -> bool:
        return self in (DesignKind.DG_2FEFET, DesignKind.DG_1T5)

    @property
    def is_one_fefet(self) -> bool:
        """True for the paper's proposed single-FeFET (1.5T1Fe) cells."""
        return self in (DesignKind.SG_1T5, DesignKind.DG_1T5)

    @property
    def fefets_per_cell(self) -> int:
        if self is DesignKind.CMOS_16T:
            return 0
        return 1 if self.is_one_fefet else 2

    @property
    def uses_two_step_search(self) -> bool:
        """The 1.5T1Fe designs search each 2-cell pair in two steps."""
        return self.is_one_fefet

    def __str__(self) -> str:
        return self.value

    @classmethod
    def fefet_designs(cls) -> tuple:
        """The four FeFET-based designs (Fig. 7 sweep set)."""
        return (cls.SG_2FEFET, cls.DG_2FEFET, cls.SG_1T5, cls.DG_1T5)
