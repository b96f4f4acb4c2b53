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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..arch.geometry import cell_geometry
from ..arch.wire import WIRE_14NM
from ..designs import DesignKind
from ..devices import VDD, operating_voltages
from ..errors import OperationError, SimulationError
from ..spice import (Capacitor, Circuit, DC, PWL, TransientOptions,
                     TransientResult, VoltageSource, step_sequence, transient)
from .cells import Cmos16TCompareCell, OneFeFetPairCell, TwoFeFetCell
from .senseamp import SA_THRESHOLD_FRACTION, add_ml_periphery
from .states import (first_mismatch_step, mismatch_positions, normalize_query,
                     normalize_word, ternary_match)

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


def _line_level_for_query(q: str, vdd: float) -> float:
    """SL / Wr-SL level during a search step (Tab. II: VDD to search '0',
    ground to search '1')."""
    return vdd if q == "0" else 0.0


def _schedule(levels: List[Tuple[float, float]], t_trans: float):
    if len(levels) == 1 or all(v == levels[0][1] for _, v in levels):
        return DC(levels[0][1])
    return step_sequence(levels, transition=t_trans)


class _WordBuilder:
    """Builds the reduced word circuit for one (design, content, scenario)."""

    def __init__(self, design: DesignKind, stored: str, query: str,
                 scenario: str, timings: WordTimings):
        self.design = design
        self.stored = stored
        self.query = query
        self.scenario = scenario
        self.t = timings
        self.n_bits = len(stored)
        self.ckt = Circuit(f"word-{design.value}-{scenario}")
        geo = cell_geometry(design)
        self.c_col_per_cell = WIRE_14NM.capacitance(geo.height)
        self.c_row_per_cell = WIRE_14NM.capacitance(geo.width)
        self.two_step = design.uses_two_step_search
        # Early termination: a step-1 miss ends the operation after step 1.
        if self.two_step:
            self.steps = 1 if first_mismatch_step(stored, query) == 1 else 2
        else:
            self.steps = 1
        self.t_query = 0.1e-9
        self.t_release = self.t.t_settle
        self.t_step1_end = self.t_release + self.t.t_step
        # Break-before-make: deselect cell1 at step-1 end, flip the query
        # lines and select cell2 only after the slack gap.
        self.t_reconfig = self.t_step1_end + self.t.t_gap
        self.t_end = (self.t_reconfig + self.t.t_step
                      if self.two_step and self.steps == 2 else self.t_step1_end)

    # -- per-design builders ---------------------------------------------------

    def build(self):
        if self.design is DesignKind.CMOS_16T:
            self._build_cmos()
        elif self.design.is_one_fefet:
            self._build_1t5()
        else:
            self._build_2fefet()
        vdd = VDD_CMOS if self.design is DesignKind.CMOS_16T else VDD
        self.periph = add_ml_periphery(self.ckt, "ml",
                                       precharge_until=self.t_release,
                                       vdd=vdd)
        # ML wire capacitance (row-wise, full length).
        c_ml_wire = WIRE_14NM.capacitance(
            cell_geometry(self.design).width * self.n_bits)
        self.ckt.add(Capacitor("CMLWIRE", "ml", "0", c_ml_wire))
        return self.ckt

    def _build_1t5(self):
        volts = operating_voltages(self.design)
        pairs = [(self.stored[i], self.query[i],
                  self.stored[i + 1], self.query[i + 1])
                 for i in range(0, self.n_bits, 2)]
        classes = Counter(pairs)
        self.ckt.add(VoltageSource("VDDC", "vddc", "0", VDD))

        # Row select lines (DG only): all rows toggle together during a
        # search, so one SeLa/SeLb source pair with full row wire load.
        if self.design.is_double_gate:
            sela_levels = [(0.0, 0.0), (self.t_query, volts.vsel)]
            if self.steps == 2:
                sela_levels.append((self.t_step1_end, 0.0))
            selb_levels = [(0.0, 0.0)]
            if self.steps == 2:
                selb_levels.append((self.t_reconfig, volts.vsel))
            self.ckt.add(VoltageSource(
                "VSELA", "sela", "0", _schedule(sela_levels, self.t.t_trans)))
            self.ckt.add(VoltageSource(
                "VSELB", "selb", "0", _schedule(selb_levels, self.t.t_trans)))
            c_row = self.c_row_per_cell * self.n_bits
            self.ckt.add(Capacitor("CSELA", "sela", "0", c_row))
            self.ckt.add(Capacitor("CSELB", "selb", "0", c_row))

        for k, ((s1, q1, s2, q2), count) in enumerate(sorted(classes.items())):
            self._add_pair_class(k, s1, q1, s2, q2, count, volts)

    def _add_pair_class(self, k, s1, q1, s2, q2, count, volts):
        t = self.t
        # SL / Wr-SL: idle (write-idle: SL=0, WrSL=VDD), then the step-1
        # query level on both, then the step-2 level.
        l1 = _line_level_for_query(q1, volts.vdd)
        l2 = _line_level_for_query(q2, volts.vdd)
        sl_levels = [(0.0, 0.0), (self.t_query, l1)]
        wr_levels = [(0.0, volts.vdd), (self.t_query, l1)]
        if self.steps == 2:
            # Gap state = the idle/write configuration (SL=0, Wr/SL=VDD):
            # TN actively holds SL_bar at ground while the selects swap, so
            # no data pattern can glitch the precharged-once match line.
            sl_levels.append((self.t_step1_end, 0.0))
            wr_levels.append((self.t_step1_end, volts.vdd))
            sl_levels.append((self.t_reconfig, l2))
            wr_levels.append((self.t_reconfig, l2))
        sl = f"sl.c{k}"
        wrsl = f"wrsl.c{k}"
        self.ckt.add(VoltageSource(f"VSL.c{k}", sl, "0",
                                   _schedule(sl_levels, t.t_trans_lines)))
        self.ckt.add(VoltageSource(f"VWRSL.c{k}", wrsl, "0",
                                   _schedule(wr_levels, t.t_trans_lines)))
        # Column wire shares: SL + WrSL + both BLs span the array column;
        # one row's share is one cell-height of wire each.
        self.ckt.add(Capacitor(f"CSL.c{k}", sl, "0",
                               2 * self.c_col_per_cell * count))

        if self.design.is_double_gate:
            # Tab. II: BL carries Vb while searching '0', 0 otherwise;
            # only the selected cell's BL is biased.
            bl1_levels = [(0.0, 0.0),
                          (self.t_query, volts.vb if q1 == "0" else 0.0)]
            bl2_levels = [(0.0, 0.0)]
            if self.steps == 2:
                bl1_levels.append((self.t_step1_end, 0.0))
                bl2_levels.append((self.t_reconfig,
                                   volts.vb if q2 == "0" else 0.0))
            sela, selb = "sela", "selb"
        else:
            # SG (Tab. III): merged BL/SeL column carries VSeL for the
            # selected cell in its step, 0 otherwise.
            bl1_levels = [(0.0, 0.0), (self.t_query, volts.vsel)]
            bl2_levels = [(0.0, 0.0)]
            if self.steps == 2:
                bl1_levels.append((self.t_step1_end, 0.0))
                bl2_levels.append((self.t_reconfig, volts.vsel))
            sela, selb = "0", "0"
        bl1 = f"bl1.c{k}"
        bl2 = f"bl2.c{k}"
        self.ckt.add(VoltageSource(f"VBL1.c{k}", bl1, "0",
                                   _schedule(bl1_levels, self.t.t_trans_lines)))
        self.ckt.add(VoltageSource(f"VBL2.c{k}", bl2, "0",
                                   _schedule(bl2_levels, self.t.t_trans_lines)))
        self.ckt.add(Capacitor(f"CBL.c{k}", bl1, "0",
                               self.c_col_per_cell * count))
        self.ckt.add(Capacitor(f"CBL2.c{k}", bl2, "0",
                               self.c_col_per_cell * count))
        pair = OneFeFetPairCell.build(
            self.ckt, self.design, f"pair.c{k}", ml="ml", sl=sl, wrsl=wrsl,
            bl1=bl1, bl2=bl2, sela=sela, selb=selb, vdd="vddc",
            multiplier=count)
        pair.program(s1 + s2)

    def _build_2fefet(self):
        volts = operating_voltages(self.design)
        cells = list(zip(self.stored, self.query))
        classes = Counter(cells)
        for k, ((s, q), count) in enumerate(sorted(classes.items())):
            # Tab. I: search '0' raises the A-side line, '1' the B-side.
            va = volts.vsel if q == "0" else 0.0
            vb_level = volts.vsel if q == "1" else 0.0
            la, lb = f"la.c{k}", f"lb.c{k}"
            self.ckt.add(VoltageSource(
                f"VSLA.c{k}", la, "0",
                _schedule([(0.0, 0.0), (self.t_query, va)], self.t.t_trans)))
            self.ckt.add(VoltageSource(
                f"VSLB.c{k}", lb, "0",
                _schedule([(0.0, 0.0), (self.t_query, vb_level)], self.t.t_trans)))
            self.ckt.add(Capacitor(f"CLA.c{k}", la, "0",
                                   self.c_col_per_cell * count))
            self.ckt.add(Capacitor(f"CLB.c{k}", lb, "0",
                                   self.c_col_per_cell * count))
            cell = TwoFeFetCell.build(self.ckt, self.design, f"cell.c{k}",
                                      ml="ml", line_a=la, line_b=lb,
                                      multiplier=count)
            cell.program(s)

    def _build_cmos(self):
        cells = list(zip(self.stored, self.query))
        classes = Counter(cells)
        for k, ((s, q), count) in enumerate(sorted(classes.items())):
            sl_level = VDD_CMOS if q == "1" else 0.0
            slb_level = VDD_CMOS if q == "0" else 0.0
            sl, slb = f"sl.c{k}", f"slb.c{k}"
            self.ckt.add(VoltageSource(
                f"VSL.c{k}", sl, "0",
                _schedule([(0.0, 0.0), (self.t_query, sl_level)], self.t.t_trans)))
            self.ckt.add(VoltageSource(
                f"VSLB.c{k}", slb, "0",
                _schedule([(0.0, 0.0), (self.t_query, slb_level)], self.t.t_trans)))
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
    ("VSELA", "select_lines"),
    ("VSELB", "select_lines"),
    ("VSL", "search_lines"),
    ("VWRSL", "search_lines"),
    ("VBL", "search_lines"),
    ("VSLA", "search_lines"),
    ("VSLB", "search_lines"),
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
    if design.uses_two_step_search and timings.t_gap <= timings.t_trans_lines:
        # Step 2's query edge starts t_gap after step 1's ends; a gap no
        # longer than the line edge would overlap the two.
        raise OperationError(
            f"{design}: t_gap ({timings.t_gap:g} s) must exceed "
            f"t_trans_lines ({timings.t_trans_lines:g} s)")
    builder = _WordBuilder(design, stored, query, scenario, timings)
    ckt = builder.build()
    result = transient(ckt, builder.t_end,
                       options=TransientOptions(dt=timings.dt))

    vdd = VDD_CMOS if design is DesignKind.CMOS_16T else VDD
    threshold = SA_THRESHOLD_FRACTION * vdd
    sa_out = builder.periph.sa_out
    t_start = builder.t_release
    t_fall = result.crossing_time(sa_out, threshold, rising=False,
                                  after=t_start)
    sa_final = result.final(sa_out)
    matched = sa_final > threshold
    expected = ternary_match(stored, query)
    latency = None if t_fall is None else t_fall - t_start

    ml_trace = result.voltage("ml")
    energy_by_group: Dict[str, float] = {}
    for name in result.source_power:
        energy_by_group.setdefault(_group_of(name), 0.0)
        energy_by_group[_group_of(name)] += result.energy(name)
    energy_total = sum(energy_by_group.values())

    return WordSearchResult(
        design=design, n_bits=n_bits, scenario=scenario, stored=stored,
        query=query, expected_match=expected, matched=matched,
        latency=latency, t_search_start=t_start, t_end=builder.t_end,
        steps_run=builder.steps, energy_total=energy_total,
        energy_per_bit=energy_total / n_bits,
        energy_by_group=energy_by_group, ml_final=float(ml_trace[-1]),
        sa_final=sa_final, ml_min=float(ml_trace.min()), result=result)
