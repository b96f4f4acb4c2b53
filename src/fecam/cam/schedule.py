"""The search schedule: one owner for every phase time and line waveform.

A search applies the query while the ML precharges, releases the
precharge (search start) and evaluates step 1.  The 1.5T1Fe designs then
deselect cell1, wait ``t_gap`` (break-before-make), flip the query lines
and evaluate step 2 — unless every searched row already missed in step 1
(early termination; a word is the one-row case).

The word model (:mod:`fecam.cam.word`) and the unreduced array
(:mod:`fecam.cam.array`) both drive their lines from
:class:`SearchSchedule` and differ only in how cells share a column: the
word merges equivalent cells into one with a device ``multiplier``, the
array attaches one cell per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Iterable, List, Sequence, Tuple

from ..designs import DesignKind
from ..devices import VDD, operating_voltages
from ..errors import OperationError
from ..spice import Capacitor, Circuit, DC, VoltageSource, step_sequence
from .cells import OneFeFetPairCell, TwoFeFetCell
from .states import first_mismatch_step

if TYPE_CHECKING:  # word.py imports this module
    from .word import WordTimings

__all__ = ["SearchSchedule"]

#: One cell on a column: (element prefix, ML node, stored symbols — two
#: for a 1.5T pair — and device multiplier).
ColumnCell = Tuple[str, str, str, float]


def _drive(ckt: Circuit, source: str, node: str,
           levels: List[Tuple[float, float]], t_trans: float) -> None:
    """Add ``source`` stepping ``node`` through ``(time, level)`` pairs."""
    if all(v == levels[0][1] for _, v in levels):
        wave = DC(levels[0][1])
    else:
        wave = step_sequence(levels, transition=t_trans)
    ckt.add(VoltageSource(source, node, "0", wave))


@dataclass(frozen=True)
class SearchSchedule:
    """Phase times and line waveforms of one search.

    ``timings`` is a complete :class:`~fecam.cam.word.WordTimings` plan
    (``for_design`` applied); build one with :meth:`for_search`.
    """

    design: DesignKind
    timings: WordTimings
    steps: int
    t_query: ClassVar[float] = 0.1e-9  # query lines and selects switch on

    def __post_init__(self) -> None:
        two_step = self.design.uses_two_step_search
        if self.steps not in ((1, 2) if two_step else (1,)):
            raise OperationError(
                f"{self.design}: a search cannot run {self.steps} steps")
        if two_step and self.timings.t_gap <= self.timings.t_trans_lines:
            # Step 2's query edge starts t_gap after step 1's ends; a gap
            # no longer than the line edge would overlap the two.
            raise OperationError(
                f"{self.design}: t_gap ({self.timings.t_gap:g} s) must "
                f"exceed t_trans_lines ({self.timings.t_trans_lines:g} s)")

    @classmethod
    def for_search(cls, design: DesignKind, timings: WordTimings,
                   stored_rows: Iterable[str], query: str) -> "SearchSchedule":
        """Two steps for a two-step design unless every row of
        ``stored_rows`` misses ``query`` in step 1; one otherwise."""
        two = design.uses_two_step_search and not all(
            first_mismatch_step(w, query) == 1 for w in stored_rows)
        return cls(design, timings, 2 if two else 1)

    @property
    def t_release(self) -> float:
        """ML precharge release: the search starts."""
        return self.timings.t_settle

    @property
    def t_step1_end(self) -> float:
        return self.t_release + self.timings.t_step

    @property
    def t_reconfig(self) -> float:
        """Step 2's selects and query levels switch on, after the gap."""
        return self.t_step1_end + self.timings.t_gap

    @property
    def t_end(self) -> float:
        if self.steps == 2:
            return self.t_reconfig + self.timings.t_step
        return self.t_step1_end

    def drive_query(self, ckt: Circuit, source: str, node: str,
                    level: float) -> None:
        """A single-step search line: ground, then ``level`` at t_query."""
        _drive(ckt, source, node, [(0.0, 0.0), (self.t_query, level)],
               self.timings.t_trans)

    def add_select_lines(self, ckt: Circuit, c_row: float) -> None:
        """The 1.5T cell rail ``vddc``, and for DG the row selects, each
        loaded by ``c_row``: SeLa picks cell1 for step 1, SeLb cell2 for
        step 2.  SG cells select through their merged BL/SeL column."""
        ckt.add(VoltageSource("VDDC", "vddc", "0", VDD))
        if not self.design.is_double_gate:
            return
        vsel = operating_voltages(self.design).vsel
        sela = [(0.0, 0.0), (self.t_query, vsel)]
        selb = [(0.0, 0.0)]
        if self.steps == 2:
            sela.append((self.t_step1_end, 0.0))
            selb.append((self.t_reconfig, vsel))
        _drive(ckt, "VSELA", "sela", sela, self.timings.t_trans)
        _drive(ckt, "VSELB", "selb", selb, self.timings.t_trans)
        ckt.add(Capacitor("CSELA", "sela", "0", c_row))
        ckt.add(Capacitor("CSELB", "selb", "0", c_row))

    def add_pair_column(self, ckt: Circuit, tag: str, query: str,
                        c_col: float, cells: Sequence[ColumnCell]) -> None:
        """One 1.5T1Fe pair column searching ``query`` (two bits) and its
        ``cells``.  ``c_col`` is one line's column wire; the SL node also
        carries the Wr/SL wire."""
        volts = operating_voltages(self.design)
        dg = self.design.is_double_gate
        # Per step: SL = Wr/SL = VDD to search '0', ground to search '1'
        # (Tab. II).  The selected cell's BL carries Vb while searching '0'
        # (DG, Tab. II) or the merged BL/SeL's VSeL (SG, Tab. III).
        l1, l2 = (volts.vdd if q == "0" else 0.0 for q in query)
        b1, b2 = ((volts.vb if q == "0" else 0.0) if dg else volts.vsel
                  for q in query)
        # Idle is the write-idle configuration: SL=0, Wr/SL=VDD.
        sl_levels = [(0.0, 0.0), (self.t_query, l1)]
        wr_levels = [(0.0, volts.vdd), (self.t_query, l1)]
        bl1_levels = [(0.0, 0.0), (self.t_query, b1)]
        bl2_levels = [(0.0, 0.0)]
        if self.steps == 2:
            # The gap returns to idle: TN actively holds SL_bar at ground
            # while the selects swap, so no data pattern can glitch the
            # precharged-once match line.
            sl_levels += [(self.t_step1_end, 0.0), (self.t_reconfig, l2)]
            wr_levels += [(self.t_step1_end, volts.vdd), (self.t_reconfig, l2)]
            bl1_levels.append((self.t_step1_end, 0.0))
            bl2_levels.append((self.t_reconfig, b2))
        t_lines = self.timings.t_trans_lines
        sl, wrsl, bl1, bl2 = (f"{line}.{tag}"
                              for line in ("sl", "wrsl", "bl1", "bl2"))
        _drive(ckt, f"VSL.{tag}", sl, sl_levels, t_lines)
        _drive(ckt, f"VWRSL.{tag}", wrsl, wr_levels, t_lines)
        ckt.add(Capacitor(f"CSL.{tag}", sl, "0", 2 * c_col))
        _drive(ckt, f"VBL1.{tag}", bl1, bl1_levels, t_lines)
        _drive(ckt, f"VBL2.{tag}", bl2, bl2_levels, t_lines)
        ckt.add(Capacitor(f"CBL.{tag}", bl1, "0", c_col))
        ckt.add(Capacitor(f"CBL2.{tag}", bl2, "0", c_col))
        sela, selb = ("sela", "selb") if dg else ("0", "0")
        for name, ml, stored, multiplier in cells:
            OneFeFetPairCell.build(
                ckt, self.design, name, ml=ml, sl=sl, wrsl=wrsl, bl1=bl1,
                bl2=bl2, sela=sela, selb=selb, vdd="vddc",
                multiplier=multiplier).program(stored)

    def add_2fefet_column(self, ckt: Circuit, tag: str, query: str,
                          c_col: float, cells: Sequence[ColumnCell]) -> None:
        """One 2FeFET column searching ``query`` (one bit), its two search
        lines each loaded by ``c_col``, and its ``cells``."""
        vsel = operating_voltages(self.design).vsel
        la, lb = f"la.{tag}", f"lb.{tag}"
        # Tab. I: search '0' raises the A-side line, '1' the B-side.
        self.drive_query(ckt, f"VSLA.{tag}", la, vsel if query == "0" else 0.0)
        self.drive_query(ckt, f"VSLB.{tag}", lb, vsel if query == "1" else 0.0)
        ckt.add(Capacitor(f"CLA.{tag}", la, "0", c_col))
        ckt.add(Capacitor(f"CLB.{tag}", lb, "0", c_col))
        for name, ml, stored, multiplier in cells:
            TwoFeFetCell.build(ckt, self.design, name, ml=ml, line_a=la,
                               line_b=lb, multiplier=multiplier).program(stored)
