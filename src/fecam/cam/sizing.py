"""Divider design-space exploration for the 1.5T1Fe cell (paper Eq. 1-3).

The paper stresses that "the resistance values of TN, TP, and DG-FeFET
must be carefully selected".  This module makes that selection a library
operation: it solves the SL_bar DC equilibria for all six store x search
cases, reports the margins against the TML threshold, and can sweep
TN/TP/TML/s_x candidates — the co-optimization that produced the frozen
defaults in :func:`fecam.devices.calibration.cell_sizing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, List, Optional, Sequence

from ..designs import DesignKind
from ..devices import (VDD, CellSizing, cell_sizing, make_fefet, nmos,
                       operating_voltages, pmos)
from ..errors import OperationError

__all__ = ["DividerLevels", "DividerMargins", "slbar_level",
           "divider_margins", "explore_sizing"]


def _search_bias(design: DesignKind, search_bit: str):
    """(v_fg, v_bg) seen by the *selected* FeFET for a query bit."""
    volts = operating_voltages(design)
    if design.is_double_gate:
        v_fg = volts.vb if search_bit == "0" else 0.0
        v_bg = volts.vsel
    else:
        v_fg = volts.vsel
        v_bg = 0.0
    return v_fg, v_bg


def _unselected_leak(design: DesignKind, drain_level: float) -> float:
    """Worst-case pair-mate leak current: an unselected LVT device."""
    volts = operating_voltages(design)
    v_fg = volts.vb if design.is_double_gate else 0.0
    fef = make_fefet(design, "LK", "f", "d", "s", "b", initial_s=1.0)
    return fef.channel_current(v_fg, drain_level, 0.0, 0.0)


def slbar_level(design: DesignKind, stored_s: float, search_bit: str, *,
                sizing: Optional[CellSizing] = None,
                include_pair_leak: bool = True) -> float:
    """DC equilibrium of SL_bar for one store/search combination.

    Solves the current balance of the Eq. 2 divider (search '0':
    FeFET from SL=VDD into SL_bar, TN to ground) or the Eq. 3 divider
    (search '1': TP from VDD, FeFET to SL=0) by bisection.
    """
    if search_bit not in ("0", "1"):
        raise OperationError("search bit must be '0' or '1'")
    sz = sizing or cell_sizing(design)
    v_fg, v_bg = _search_bias(design, search_bit)
    fef = make_fefet(design, "F", "f", "d", "s", "b", initial_s=stored_s)
    lo, hi = 0.0, VDD
    if search_bit == "0":
        tn = nmos("TN", "a", "g", "b", w=sz.tn_w, l=sz.tn_l, vth=sz.tn_vth)
        leak = (_unselected_leak(design, VDD) if include_pair_leak else 0.0)
        for _ in range(60):
            v = 0.5 * (lo + hi)
            i_in = fef.channel_current(v_fg, VDD, v, v_bg) + leak
            i_out = tn.channel_current(v, VDD, 0.0, 0.0)
            if i_in > i_out:
                lo = v
            else:
                hi = v
    else:
        tp = pmos("TP", "a", "g", "b", w=sz.tp_w, l=sz.tp_l, vth=sz.tp_vth)
        leak = (_unselected_leak(design, 0.4) if include_pair_leak else 0.0)
        for _ in range(60):
            v = 0.5 * (lo + hi)
            i_in = -tp.channel_current(v, 0.0, VDD, VDD)
            i_out = fef.channel_current(v_fg, v, 0.0, v_bg) + leak
            if i_in > i_out:
                lo = v
            else:
                hi = v
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DividerLevels:
    """SL_bar equilibria for the six store x search cases."""

    v_store1_search0: float  # mismatch — must exceed the TML threshold
    v_store0_search1: float  # mismatch
    v_store0_search0: float  # match — must stay below
    v_store1_search1: float  # match
    v_storeX_search0: float  # don't-care — must stay below
    v_storeX_search1: float  # don't-care


@dataclass(frozen=True)
class DividerMargins:
    """Margins of the levels against the TML threshold (volts)."""

    design: DesignKind
    levels: DividerLevels
    tml_vth: float
    mismatch_margin: float  # min mismatch level - threshold
    match_margin: float  # threshold - max match/don't-care level

    @property
    def functional(self) -> bool:
        return self.mismatch_margin > 0 and self.match_margin > 0


def divider_margins(design: DesignKind, *,
                    sizing: Optional[CellSizing] = None) -> DividerMargins:
    """Compute all six SL_bar levels and the resulting margins."""
    if not design.is_one_fefet:
        raise OperationError(f"{design} has no 1.5T1Fe divider")
    sz = sizing or cell_sizing(design)
    lv = DividerLevels(
        v_store1_search0=slbar_level(design, 1.0, "0", sizing=sz),
        v_store0_search1=slbar_level(design, 0.0, "1", sizing=sz),
        v_store0_search0=slbar_level(design, 0.0, "0", sizing=sz),
        v_store1_search1=slbar_level(design, 1.0, "1", sizing=sz),
        v_storeX_search0=slbar_level(design, sz.s_x, "0", sizing=sz),
        v_storeX_search1=slbar_level(design, sz.s_x, "1", sizing=sz),
    )
    mismatch = min(lv.v_store1_search0, lv.v_store0_search1) - sz.tml_vth
    match = sz.tml_vth - max(lv.v_store0_search0, lv.v_store1_search1,
                             lv.v_storeX_search0, lv.v_storeX_search1)
    return DividerMargins(design=design, levels=lv, tml_vth=sz.tml_vth,
                          mismatch_margin=mismatch, match_margin=match)


def explore_sizing(design: DesignKind, *,
                   tn_lengths: Sequence[float] = (240e-9, 480e-9, 720e-9),
                   tp_lengths: Sequence[float] = (240e-9, 480e-9),
                   tml_vths: Sequence[float] = (0.30, 0.35, 0.40),
                   s_x_values: Sequence[float] = (0.66, 0.70, 0.74, 0.78),
                   ) -> List[DividerMargins]:
    """Sweep candidate sizings; returns margins sorted best-first.

    This is the Sec. V-C style design-space exploration that selected the
    frozen defaults.
    """
    base = cell_sizing(design)
    results: List[DividerMargins] = []
    for tn_l, tp_l, tml_vth, s_x in product(tn_lengths, tp_lengths,
                                            tml_vths, s_x_values):
        candidate = CellSizing(
            tn_w=base.tn_w, tn_l=tn_l, tn_vth=base.tn_vth,
            tn_split_sw_l=base.tn_split_sw_l,
            tp_w=base.tp_w, tp_l=tp_l, tp_vth=base.tp_vth,
            tml_w=base.tml_w, tml_l=base.tml_l, tml_vth=tml_vth, s_x=s_x)
        results.append(divider_margins(design, sizing=candidate))
    results.sort(key=lambda m: min(m.mismatch_margin, m.match_margin),
                 reverse=True)
    return results
