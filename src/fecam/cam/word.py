"""Reduced word-level search simulation for all five TCAM designs.

This module answers the paper's evaluation questions (Tab. IV latency and
energy, Fig. 4 waveforms, Fig. 7 word-length sweeps) by simulating one
TCAM word (row) end to end: query application, ML precharge, one- or
two-step evaluation with early termination, and SA sensing.

**Multiplier reduction.**  Cells whose terminals see identical waveforms
and whose stored states are identical behave identically, so they are
merged into one representative cell with a device ``multiplier`` equal to
the group count.  A 128-bit word reduces to a handful of equivalence
classes, keeping the MNA system size constant in word length while wire
and junction capacitances still scale exactly — the same trick SPICE
users apply by hand with the ``M=`` device parameter.

**Search-line energy attribution.**  In an M x N array every search
toggles each column line once for all M rows; a single word's fair share
is 1/M of each column line.  The word model therefore loads each class's
column sources with one cell's worth of column wire per member cell,
while row-wise lines (SeLa/SeLb, ML) carry their full wire load.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..arch.geometry import cell_geometry
from ..arch.wire import WIRE_14NM
from ..designs import DesignKind
from ..devices import VDD
from ..errors import OperationError
from ..spice import (Capacitor, Circuit, TransientOptions, TransientResult,
                     VoltageSource, transient)
from .cells import Cmos16TCompareCell
from .schedule import SearchSchedule
from .senseamp import add_ml_periphery, read_sense
from .states import normalize_query, normalize_word, ternary_match

__all__ = ["WordTimings", "WordSearchResult", "simulate_word_search",
           "scenario_content", "SCENARIOS_TWO_STEP", "SCENARIOS_SINGLE_STEP"]

SCENARIOS_TWO_STEP = ("match", "step1_miss", "step2_miss")
SCENARIOS_SINGLE_STEP = ("match", "miss")

#: 16T CMOS baseline supply ([25] runs its TCAM at 0.9 V).
VDD_CMOS = 0.9


@dataclass(frozen=True)
class WordTimings:
    """Search phase timing plan.

    Every field defaults to ``None``, meaning "this design's schedule":
    :meth:`for_design` fills exactly the ``None`` fields, so a value given
    explicitly wins in every design family.

    ``t_gap`` is the break-before-make slack between the two search steps
    (paper Sec. V-B: "some time slack for the search signal switching
    between the two steps"): cell1 is deselected first, then — after the
    gap — the query lines flip and cell2 is selected.  Without the gap the
    still-selected FeFET couples the swinging SL into SL_bar and glitches
    the (precharged-once) match line.
    """

    t_settle: Optional[float] = None  # query application + ML precharge
    t_step: Optional[float] = None  # evaluation window per search step
    t_gap: Optional[float] = None  # deselect -> reconfigure slack
    t_trans: Optional[float] = None  # select-line transition time
    t_trans_lines: Optional[float] = None  # query/data-line edge
    dt: Optional[float] = None  # transient step

    def for_design(self, design: DesignKind,
                   n_bits: int = 64) -> "WordTimings":
        """The complete plan: explicit fields kept, ``None`` fields set to
        the design family's schedule at this word length.

        ``t_step`` is a fixed window per search step, scaled with word
        length; the sense decision does not close it early (the search
        is not self-timed).  The window is sized for the slowest
        mismatch to develop: a word-length-independent SL_bar settling
        term plus an ML discharge term that grows with the ML load —
        which is why the paper's Fig. 7 latency grows with word length
        and why the 1.5T1Fe divider energy per bit grows with it too
        (Sec. V-C).
        """
        scale = n_bits / 64.0
        if design is DesignKind.CMOS_16T:
            plan = dict(t_settle=0.5e-9, t_step=0.4e-9 + 0.7e-9 * scale,
                        t_trans_lines=50e-12, dt=10e-12)
        elif design is DesignKind.SG_2FEFET:
            plan = dict(t_settle=0.8e-9, t_step=0.5e-9 + 2.5e-9 * scale,
                        t_trans_lines=50e-12, dt=25e-12)
        elif design is DesignKind.DG_2FEFET:
            plan = dict(t_settle=0.8e-9, t_step=1.2e-9 + 6.8e-9 * scale,
                        t_trans_lines=50e-12, dt=50e-12)
        else:
            # 1.5T1Fe designs: the SL_bar settle term (TP-rise limited) is
            # word-length independent; the TML/ML discharge term scales.
            # Their query/data lines (SL, Wr/SL, BL) switch with a
            # deliberately slow edge: the long-channel TN/TP gates couple
            # strongly into SL_bar, and a slow edge lets TN sink the
            # coupled charge as it arrives instead of letting the bump
            # open TML on the precharged-once match line.
            plan = dict(t_settle=0.7e-9, t_step=0.9e-9 + 0.9e-9 * scale,
                        t_trans_lines=0.25e-9, dt=25e-12)
        plan.update(t_gap=0.5e-9, t_trans=50e-12)
        plan.update({name: value for name, value in vars(self).items()
                     if value is not None})
        return WordTimings(**plan)


@dataclass
class WordSearchResult:
    """Outcome of one word-level search simulation."""

    design: DesignKind
    n_bits: int
    scenario: str
    stored: str
    query: str
    expected_match: bool
    matched: bool
    latency: Optional[float]  # search start -> SA output fall (miss cases)
    t_search_start: float
    t_end: float
    steps_run: int
    energy_total: float
    energy_per_bit: float
    energy_by_group: Dict[str, float]
    ml_final: float
    sa_final: float
    ml_min: float
    result: TransientResult

    @property
    def functionally_correct(self) -> bool:
        return self.matched == self.expected_match


def scenario_content(design: DesignKind, n_bits: int,
                     scenario: str) -> Tuple[str, str]:
    """Canonical stored word / query for a named scenario.

    The stored word alternates '1'/'0' (the paper's half-and-half average
    case); miss scenarios flip one query bit — at an even position for a
    step-1 miss, odd for a step-2 miss (cell1/cell2 of the 2-cell pairs).
    """
    if n_bits < 2 or n_bits % 2:
        raise OperationError("word length must be an even number >= 2")
    # '1001' tiling: half the cells store '1' (the paper's average case),
    # balanced so that *each* search step also sees half '1's.
    stored = ("1001" * n_bits)[:n_bits]
    query = list(stored)
    if scenario == "match":
        pass
    elif scenario in ("miss", "step1_miss"):
        query[0] = "0" if query[0] == "1" else "1"
    elif scenario == "step2_miss":
        query[1] = "0" if query[1] == "1" else "1"
    else:
        raise OperationError(f"unknown scenario {scenario!r}")
    return stored, "".join(query)


class _WordBuilder:
    """Builds the reduced word circuit for one (design, content, scenario).

    Equivalent cells merge into one class per column with a multiplier;
    :class:`~fecam.cam.schedule.SearchSchedule` drives every line.
    """

    def __init__(self, design: DesignKind, stored: str, query: str,
                 scenario: str, timings: WordTimings):
        self.design = design
        self.stored = stored
        self.query = query
        self.n_bits = len(stored)
        self.vdd = VDD_CMOS if design is DesignKind.CMOS_16T else VDD
        self.ckt = Circuit(f"word-{design.value}-{scenario}")
        self.geo = cell_geometry(design)
        self.c_col_per_cell = WIRE_14NM.capacitance(self.geo.height)
        self.schedule = SearchSchedule.for_search(design, timings, [stored],
                                                  query)

    def build(self):
        schedule, ckt = self.schedule, self.ckt
        if self.design is DesignKind.CMOS_16T:
            self._build_cmos()
        elif self.design.is_one_fefet:
            schedule.add_select_lines(
                ckt, WIRE_14NM.capacitance(self.geo.width) * self.n_bits)
            pairs = Counter((self.stored[i], self.query[i],
                             self.stored[i + 1], self.query[i + 1])
                            for i in range(0, self.n_bits, 2))
            for k, ((s1, q1, s2, q2), count) in enumerate(sorted(pairs.items())):
                schedule.add_pair_column(
                    ckt, f"c{k}", q1 + q2, self.c_col_per_cell * count,
                    [(f"pair.c{k}", "ml", s1 + s2, count)])
        else:
            cells = Counter(zip(self.stored, self.query))
            for k, ((s, q), count) in enumerate(sorted(cells.items())):
                schedule.add_2fefet_column(
                    ckt, f"c{k}", q, self.c_col_per_cell * count,
                    [(f"cell.c{k}", "ml", s, count)])
        self.periph = add_ml_periphery(ckt, "ml",
                                       precharge_until=schedule.t_release,
                                       vdd=self.vdd)
        # ML wire capacitance (row-wise, full length).
        ckt.add(Capacitor("CMLWIRE", "ml", "0", WIRE_14NM.capacitance(
            self.geo.width * self.n_bits)))
        return ckt

    def _build_cmos(self):
        classes = Counter(zip(self.stored, self.query))
        for k, ((s, q), count) in enumerate(sorted(classes.items())):
            sl_level = VDD_CMOS if q == "1" else 0.0
            slb_level = VDD_CMOS if q == "0" else 0.0
            sl, slb = f"sl.c{k}", f"slb.c{k}"
            self.schedule.drive_query(self.ckt, f"VSL.c{k}", sl, sl_level)
            self.schedule.drive_query(self.ckt, f"VSLB.c{k}", slb, slb_level)
            self.ckt.add(Capacitor(f"CSL.c{k}", sl, "0",
                                   self.c_col_per_cell * count))
            self.ckt.add(Capacitor(f"CSLB.c{k}", slb, "0",
                                   self.c_col_per_cell * count))
            # Stored bit as ideal SRAM node voltages ('X' stores 0/0).
            vd = VDD_CMOS if s == "1" else 0.0
            vdb = VDD_CMOS if s == "0" else 0.0
            d, db = f"d.c{k}", f"db.c{k}"
            self.ckt.add(VoltageSource(f"VD.c{k}", d, "0", vd))
            self.ckt.add(VoltageSource(f"VDB.c{k}", db, "0", vdb))
            Cmos16TCompareCell.build(self.ckt, f"cell.c{k}", ml="ml", sl=sl,
                                     slbar=slb, stored_d=d, stored_dbar=db,
                                     multiplier=count)


_ENERGY_GROUPS = (
    ("VPC", "ml_precharge"),
    ("VKEEP", "ml_keeper"),
    ("VSA", "sense_amp"),
    ("VSEL", "select_lines"),
    ("VSL", "search_lines"),
    ("VWRSL", "search_lines"),
    ("VBL", "search_lines"),
    ("VDDC", "cell_rail"),
    ("VD.", "storage"),
    ("VDB.", "storage"),
)


def _group_of(source_name: str) -> str:
    for prefix, group in _ENERGY_GROUPS:
        if source_name.startswith(prefix):
            return group
    return "other"


def simulate_word_search(design: DesignKind, n_bits: int = 64,
                         scenario: str = "step1_miss", *,
                         stored: Optional[str] = None,
                         query: Optional[str] = None,
                         timings: Optional[WordTimings] = None) -> WordSearchResult:
    """Simulate one search on one TCAM word; see module docstring.

    Either pass a named ``scenario`` (content synthesized per the paper's
    average-case convention) or explicit ``stored``/``query`` words (the
    scenario label is then informational).  Early termination is applied
    automatically for the two-step designs.  ``timings`` accepts a
    :class:`WordTimings` or a mapping of its field overrides.
    """
    valid = (SCENARIOS_TWO_STEP if design.uses_two_step_search
             else SCENARIOS_SINGLE_STEP)
    if stored is None or query is None:
        if scenario not in valid:
            raise OperationError(
                f"scenario {scenario!r} invalid for {design}; use one of {valid}")
        stored, query = scenario_content(design, n_bits, scenario)
    else:
        stored = normalize_word(stored)
        query = normalize_query(query)
        n_bits = len(stored)
        if len(query) != n_bits:
            raise OperationError("stored and query lengths differ")
        if n_bits % 2 and design.uses_two_step_search:
            raise OperationError("two-step designs need even word lengths")

    if isinstance(timings, Mapping):
        # Field-override mappings (what DesignPoint also normalizes) are
        # as good as a full WordTimings plan.
        timings = WordTimings(**dict(timings))
    timings = (timings or WordTimings()).for_design(design, n_bits)
    builder = _WordBuilder(design, stored, query, scenario, timings)
    schedule = builder.schedule
    result = transient(builder.build(), schedule.t_end,
                       options=TransientOptions(dt=timings.dt))
    matched, latency, sa_final = read_sense(
        result, builder.periph.sa_out, t_start=schedule.t_release,
        vdd=builder.vdd)
    expected = ternary_match(stored, query)

    ml_trace = result.voltage("ml")
    energy_by_group: Dict[str, float] = {}
    for name in result.source_power:
        energy_by_group.setdefault(_group_of(name), 0.0)
        energy_by_group[_group_of(name)] += result.energy(name)
    energy_total = sum(energy_by_group.values())

    return WordSearchResult(
        design=design, n_bits=n_bits, scenario=scenario, stored=stored,
        query=query, expected_match=expected, matched=matched,
        latency=latency, t_search_start=schedule.t_release,
        t_end=schedule.t_end, steps_run=schedule.steps,
        energy_total=energy_total,
        energy_per_bit=energy_total / n_bits,
        energy_by_group=energy_by_group, ml_final=float(ml_trace[-1]),
        sa_final=sa_final, ml_min=float(ml_trace.min()), result=result)
