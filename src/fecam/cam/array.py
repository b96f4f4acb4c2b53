"""Full small-array netlists (paper Fig. 5c/d) and an array test harness.

The word model in :mod:`fecam.cam.word` merges equivalent cells for speed;
this module builds the *unreduced* M x N array — every cell, every shared
line — and runs whole-array searches, returning one match result per row.
It exists to validate the reduced model (tests compare both) and to run
the exact 2 x 4 arrays drawn in the paper's Fig. 5(c)/(d).

Only the FeFET designs are supported at array level (the CMOS baseline
enters the evaluation through published numbers plus the word model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..arch.geometry import cell_geometry
from ..arch.wire import WIRE_14NM
from ..designs import DesignKind
from ..errors import OperationError
from ..spice import Capacitor, Circuit, TransientOptions, transient
from .schedule import SearchSchedule
from .senseamp import add_ml_periphery, read_sense
from .states import normalize_query, normalize_word, ternary_match
from .word import WordTimings

__all__ = ["ArraySearchResult", "TcamArrayCircuit"]


@dataclass
class ArraySearchResult:
    """Whole-array search outcome."""

    design: DesignKind
    query: str
    matches: List[bool]  # per row
    latencies: List[Optional[float]]  # per row: search start -> SA fall
    expected: List[bool]
    energy_total: float
    t_end: float

    @property
    def match_address(self) -> Optional[int]:
        """Lowest matching row (priority-encoder semantics), or None."""
        for i, m in enumerate(self.matches):
            if m:
                return i
        return None

    @property
    def functionally_correct(self) -> bool:
        return self.matches == self.expected


class TcamArrayCircuit:
    """An M x N TCAM array built cell-by-cell.

    Usage::

        arr = TcamArrayCircuit(DesignKind.DG_1T5, rows=2, cols=4)
        arr.program(0, "10X1")
        arr.program(1, "0110")
        result = arr.search("1011")
        assert result.matches == [True, False]

    Every search builds fresh source waveforms and runs one transient over
    the full array on the shared :class:`~fecam.cam.schedule.SearchSchedule`
    (step 2 is skipped only if *all* rows miss in step 1, since the array
    shares the SeL/query sequencing).  A row's latency is read exactly as
    :func:`~fecam.cam.word.simulate_word_search` reads a word's.
    """

    def __init__(self, design: DesignKind, rows: int, cols: int, *,
                 timings: Optional[WordTimings] = None):
        if not design.is_fefet:
            raise OperationError("array netlists support FeFET designs only")
        if rows < 1 or cols < 2 or cols % 2:
            raise OperationError("need rows >= 1 and an even cols >= 2")
        self.design = design
        self.rows = rows
        self.cols = cols
        self.timings = (timings or WordTimings()).for_design(design, cols)
        self._stored: List[Optional[str]] = [None] * rows

    # -- content -----------------------------------------------------------------

    def program(self, row: int, word: str) -> None:
        word = normalize_word(word)
        if len(word) != self.cols:
            raise OperationError(f"word must have {self.cols} symbols")
        self._stored[row] = word

    def stored(self, row: int) -> Optional[str]:
        return self._stored[row]

    # -- search ------------------------------------------------------------------

    def search(self, query: str) -> ArraySearchResult:
        query = normalize_query(query)
        if len(query) != self.cols:
            raise OperationError(f"query must have {self.cols} bits")
        if any(w is None for w in self._stored):
            raise OperationError("all rows must be programmed before search")
        expected = [ternary_match(w, query) for w in self._stored]
        schedule = SearchSchedule.for_search(self.design, self.timings,
                                             self._stored, query)
        ckt, peripheries = self._build(schedule, query)
        result = transient(ckt, schedule.t_end,
                           options=TransientOptions(dt=self.timings.dt))
        readouts = [read_sense(result, p.sa_out, t_start=schedule.t_release)
                    for p in peripheries]
        return ArraySearchResult(
            design=self.design, query=query,
            matches=[matched for matched, _, _ in readouts],
            latencies=[latency for _, latency, _ in readouts],
            expected=expected, energy_total=result.total_energy(),
            t_end=schedule.t_end)

    # -- construction ------------------------------------------------------------

    def _build(self, schedule: SearchSchedule, query: str):
        ckt = Circuit(f"array-{self.design.value}-{self.rows}x{self.cols}")
        geo = cell_geometry(self.design)
        c_col = WIRE_14NM.capacitance(geo.height * self.rows)
        c_row = WIRE_14NM.capacitance(geo.width * self.cols)
        rows = range(self.rows)
        if self.design.is_one_fefet:
            schedule.add_select_lines(ckt, c_row * self.rows)
            for p in range(self.cols // 2):
                bits = slice(2 * p, 2 * p + 2)
                schedule.add_pair_column(
                    ckt, f"p{p}", query[bits], c_col,
                    [(f"cell.r{r}p{p}", f"ml{r}", self._stored[r][bits], 1.0)
                     for r in rows])
        else:
            for c in range(self.cols):
                schedule.add_2fefet_column(
                    ckt, f"c{c}", query[c], c_col,
                    [(f"cell.r{r}c{c}", f"ml{r}", self._stored[r][c], 1.0)
                     for r in rows])

        peripheries = []
        for r in rows:
            ckt.add(Capacitor(f"CML{r}", f"ml{r}", "0", c_row))
            peripheries.append(add_ml_periphery(
                ckt, f"ml{r}", precharge_until=schedule.t_release,
                prefix=f"mlp{r}"))
        return ckt, peripheries
