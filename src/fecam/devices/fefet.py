"""SG- and DG-FeFET compact-model circuit elements.

One element class covers both device flavours of the paper (Fig. 1):

* **SG-FeFET** — 10 nm FE layer in the front-gate stack; write *and* read
  through the FG at ±4 V / 0.8 V; ``k_bg = 0`` (the back side is just the
  body).  Accumulates read disturb because read pulses stress the FE layer.
* **DG-FeFET** — 5 nm FE layer written through the FG at ±2 V, read through
  the dedicated back gate.  The BG couples to the channel with ratio
  ``k_bg < 1``, which (a) *amplifies* the memory window seen from the BG,
  ``MW_bg = MW_fg / k_bg`` (paper: 0.9 V -> 2.7 V), and (b) *degrades* the
  subthreshold slope seen from the BG by the same factor — exactly the
  device trade-off Sec. II-A describes.

Channel model: EKV (see :mod:`fecam.devices.mosfet`) with an effective
pinch-off voltage driven by both gates::

    vth_eff(s) = vth_mid - (s - 0.5) * mw_fg        # polarization shifts VT
    vp         = (v_fg + k_bg * v_bg - vth_eff) / n
    i_ds       = i_spec * [F((vp-vs)/Vt) - F((vp-vd)/Vt)] * clm

Polarization state ``s`` lives in a :class:`FerroelectricLayer`; the write
field is the FG-to-channel voltage scaled by the stack divider ``kappa_fe``.
The polarization displacement current is stamped into the FG so write
energy is observable at the driving source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Tuple

from ..errors import CalibrationError
from ..spice.netlist import (REC_CAP, REC_FET, REC_POL, Element,
                             TerminalVoltages)
from ..units import thermal_voltage
from .ferroelectric import _MAX_EXPONENT, FerroParams, FerroelectricLayer
from .mosfet import ekv_f, ekv_f_prime

__all__ = ["FeFetParams", "FeFet", "VT_STATES", "state_to_s", "s_to_state"]

#: Canonical threshold states and their ideal domain fractions.  The 'X'
#: (MVT) fraction is design-specific and set by the write controller; 0.5
#: is only the symmetric default.
VT_STATES = ("HVT", "MVT", "LVT")


def state_to_s(state: str, s_mvt: float = 0.5) -> float:
    """Map a named threshold state to a domain fraction."""
    table = {"HVT": 0.0, "MVT": s_mvt, "LVT": 1.0}
    try:
        return table[state]
    except KeyError:
        raise CalibrationError(
            f"unknown FeFET state {state!r}; expected one of {VT_STATES}") from None


def s_to_state(s: float, s_mvt: float = 0.5) -> str:
    """Classify a domain fraction into the nearest named state."""
    candidates = {"HVT": 0.0, "MVT": s_mvt, "LVT": 1.0}
    return min(candidates, key=lambda k: abs(candidates[k] - s))


@dataclass(frozen=True)
class FeFetParams:
    """Complete FeFET parameter set (channel + FE layer + parasitics)."""

    vth_mid: float  # V, FG-referenced threshold at s = 0.5
    mw_fg: float  # V, memory window seen from the FG
    k_bg: float  # back-gate coupling ratio (0 disables the BG)
    n: float = 1.3  # subthreshold slope factor (FG)
    i_spec_sq: float = 3.5e-8  # A at W/L = 1
    w: float = 50e-9
    l: float = 20e-9
    lambda_clm: float = 0.05
    ferro: FerroParams = FerroParams()
    kappa_fe: float = 0.85  # fraction of FG-channel voltage across the FE
    c_fg: float = 35e-18  # F, static FG-to-channel capacitance
    c_bg: float = 15e-18  # F, BG-to-channel capacitance
    c_bg_well: float = 0.0  # F, isolated P-well junction cap on the BG (DG)
    c_jd: float = 40e-18  # F, drain junction
    c_js: float = 40e-18  # F, source junction
    i_leak: float = 1e-10  # A, drain leakage floor (GIDL/junction)
    read_disturb_delta: float = 0.0  # per-read fractional drift (SG only)
    temperature: float = 300.0

    def __post_init__(self):
        if self.mw_fg <= 0:
            raise CalibrationError("memory window must be positive")
        if not 0.0 <= self.k_bg < 1.0:
            raise CalibrationError("k_bg must be in [0, 1)")
        if not 0.0 < self.kappa_fe <= 1.0:
            raise CalibrationError("kappa_fe must be in (0, 1]")
        if self.n < 1.0 or self.i_spec_sq <= 0:
            raise CalibrationError("invalid channel parameters")

    @property
    def is_double_gate(self) -> bool:
        return self.k_bg > 0.0

    @property
    def i_spec(self) -> float:
        return self.i_spec_sq * self.w / self.l

    @property
    def mw_bg(self) -> float:
        """Memory window seen from the back gate (amplified by 1/k_bg)."""
        if self.k_bg == 0.0:
            return float("nan")
        return self.mw_fg / self.k_bg

    @property
    def subthreshold_swing_fg(self) -> float:
        """SS from the front gate, V/decade."""
        return self.n * thermal_voltage(self.temperature) * math.log(10.0)

    @property
    def subthreshold_swing_bg(self) -> float:
        """SS from the back gate — degraded by the coupling ratio."""
        if self.k_bg == 0.0:
            return float("nan")
        return self.subthreshold_swing_fg / self.k_bg

    def vth_eff(self, s: float) -> float:
        """FG-referenced threshold for domain fraction ``s``."""
        return self.vth_mid - (s - 0.5) * self.mw_fg

    def vth_bg(self, s: float, v_fg_bias: float = 0.0) -> float:
        """BG-referenced threshold with the FG held at ``v_fg_bias``."""
        if self.k_bg == 0.0:
            return float("nan")
        return (self.vth_eff(s) - v_fg_bias) / self.k_bg

    def scaled(self, **overrides) -> "FeFetParams":
        return replace(self, **overrides)


class FeFet(Element):
    """Four-terminal FeFET element: (fg, d, s, bg).

    The polarization state is exposed via :attr:`layer`; program it directly
    with :meth:`set_fraction` / :meth:`set_state` (instant, for test setup)
    or electrically through write transients (the paper's write scheme,
    driven by :mod:`fecam.cam.ops`).
    """

    _FD_STEP = 1e-3  # volts, finite-difference step for polarization Jacobian

    def __init__(self, name: str, fg: str, d: str, s: str, bg: str = "0", *,
                 params: FeFetParams, initial_s: float = 0.0,
                 multiplier: float = 1.0):
        super().__init__(name, (fg, d, s, bg))
        if multiplier <= 0:
            raise CalibrationError(f"{name}: multiplier must be positive")
        self.params = params
        self.multiplier = float(multiplier)
        self.layer = FerroelectricLayer(params.ferro, s=initial_s)
        self._vt = thermal_voltage(params.temperature)
        self._cap_pairs: Tuple[Tuple[int, int, float], ...] = (
            (0, 2, params.c_fg / 2.0),  # fg-source (static stack cap, split)
            (0, 1, params.c_fg / 2.0),  # fg-drain
            (3, 2, params.c_bg / 2.0),  # bg-source
            (3, 1, params.c_bg / 2.0),  # bg-drain
            (3, -1, params.c_bg_well),  # isolated P-well junction (DG only)
            (1, -1, params.c_jd),  # drain junction to substrate
            (2, -1, params.c_js),  # source junction to substrate
        )
        self._q_committed: Dict[Tuple[int, int], float] = {
            (a, b): 0.0 for a, b, _ in self._cap_pairs}

    # -- state management --------------------------------------------------------

    @property
    def s(self) -> float:
        return self.layer.s

    def set_fraction(self, s: float) -> None:
        """Directly set the domain fraction (instant programming)."""
        if not 0.0 <= s <= 1.0:
            raise CalibrationError(f"domain fraction must be in [0,1], got {s}")
        self.layer.s = float(s)

    def set_state(self, state: str, s_mvt: float = 0.5) -> None:
        self.set_fraction(state_to_s(state, s_mvt))

    def state(self, s_mvt: float = 0.5) -> str:
        return s_to_state(self.layer.s, s_mvt)

    @property
    def vth(self) -> float:
        """Current FG-referenced threshold voltage."""
        return self.params.vth_eff(self.layer.s)

    # -- electrical model ----------------------------------------------------------

    def fe_field(self, v_fg: float, v_d: float, v_s: float) -> float:
        """Field across the FE layer (V/m); channel potential approximated
        as the source/drain average (exact when both are grounded, as in
        the write configuration of Tab. II)."""
        v_chan = 0.5 * (v_d + v_s)
        return self.params.kappa_fe * (v_fg - v_chan) / self.params.ferro.t_fe

    def channel_current(self, v_fg: float, v_d: float, v_s: float,
                        v_bg: float = 0.0, s: float = None) -> float:
        i, _, _, _, _ = self._ids_and_derivs(v_fg, v_d, v_s, v_bg, s=s)
        return i

    def _ids_and_derivs(self, v_fg, v_d, v_s, v_bg, s=None):
        """Return (ids, d/dvfg, d/dvd, d/dvs, d/dvbg)."""
        p = self.params
        s_val = self.layer.s if s is None else s
        vt = self._vt
        vp = (v_fg + p.k_bg * v_bg - p.vth_eff(s_val)) / p.n
        uf = (vp - v_s) / vt
        ur = (vp - v_d) / vt
        f_f, f_r = ekv_f(uf), ekv_f(ur)
        fp_f, fp_r = ekv_f_prime(uf), ekv_f_prime(ur)
        i_s = p.i_spec * self.multiplier
        vds = v_d - v_s
        vds_smooth = math.sqrt(vds * vds + 1e-6)
        clm = 1.0 + p.lambda_clm * vds_smooth
        dclm = p.lambda_clm * vds / vds_smooth
        core = f_f - f_r
        ids = i_s * core * clm
        dvp = (fp_f - fp_r) / (p.n * vt)  # common factor for gate-side derivs
        d_dvfg = i_s * clm * dvp
        d_dvbg = i_s * clm * dvp * p.k_bg
        d_dvs = i_s * (-clm * fp_f / vt - core * dclm)
        d_dvd = i_s * (clm * fp_r / vt + core * dclm)
        # Drain-leakage floor (GIDL/junction): sets the measurable ON/OFF
        # ratio to ~1e4 as in Fig. 1d instead of the model's ideal cutoff.
        i_leak = p.i_leak * self.multiplier
        if i_leak > 0.0:
            x = vds / (2.0 * vt)
            t = math.tanh(max(-60.0, min(60.0, x)))
            ids += i_leak * t
            g_leak = i_leak * (1.0 - t * t) / (2.0 * vt)
            d_dvd += g_leak
            d_dvs -= g_leak
        return ids, d_dvfg, d_dvd, d_dvs, d_dvbg

    def read_resistance(self, v_fg: float, v_bg: float, v_ds: float = 0.1,
                        s: float = None) -> float:
        """Large-signal drain-source resistance at a read bias (ohms)."""
        i = self.channel_current(v_fg, v_ds, 0.0, v_bg, s=s)
        if i <= 0:
            return float("inf")
        return v_ds / i

    # -- element interface -----------------------------------------------------------

    def init_state(self, v: TerminalVoltages) -> None:
        for (a, b, c) in self._cap_pairs:
            vb = 0.0 if b < 0 else v[b]
            self._q_committed[(a, b)] = c * self.multiplier * (v[a] - vb)

    def _pol_current(self, v_fg: float, v_d: float, v_s: float, h: float) -> float:
        """Polarization displacement current out of the FG for this step."""
        e = self.fe_field(v_fg, v_d, v_s)
        s_new = self.layer.preview(e, h)
        dq = self.layer.params.area * self.layer.params.ps * 2.0 * (s_new - self.layer.s)
        return self.multiplier * dq / h

    def stamp(self, ctx, v: TerminalVoltages) -> None:
        idx = self._node_index
        v_fg, v_d, v_s, v_bg = v[0], v[1], v[2], v[3]
        ids, g_fg, g_d, g_s, g_bg = self._ids_and_derivs(v_fg, v_d, v_s, v_bg)
        i_fg_n, i_d_n, i_s_n, i_bg_n = idx[0], idx[1], idx[2], idx[3]
        ctx.add_f(i_d_n, ids)
        ctx.add_f(i_s_n, -ids)
        for col, g in ((i_fg_n, g_fg), (i_d_n, g_d), (i_s_n, g_s), (i_bg_n, g_bg)):
            ctx.add_j(i_d_n, col, g)
            ctx.add_j(i_s_n, col, -g)

        if ctx.mode != "tran":
            return
        h = ctx.h
        self._commit_dt = h  # commit() integrates polarization over this step
        # Static capacitances (FG/BG stacks, junctions).
        for (a, b, c) in self._cap_pairs:
            c_eff = c * self.multiplier
            if c_eff <= 0:
                continue
            vb = 0.0 if b < 0 else v[b]
            q = c_eff * (v[a] - vb)
            i_cap = (q - self._q_committed[(a, b)]) / h
            geq = c_eff / h
            ia = idx[a]
            ib = -1 if b < 0 else idx[b]
            ctx.add_f(ia, i_cap)
            ctx.add_f(ib, -i_cap)
            ctx.add_j(ia, ia, geq)
            ctx.add_j(ia, ib, -geq)
            ctx.add_j(ib, ia, -geq)
            ctx.add_j(ib, ib, geq)
        # Polarization switching current: leaves the FG node, returns through
        # the channel (split between source and drain).  The Jacobian is a
        # finite difference — tau(E) is doubly exponential in the terminal
        # voltages and an analytic derivative buys nothing here.
        i_pol = self._pol_current(v_fg, v_d, v_s, h)
        if i_pol != 0.0 or self.layer.tau(self.fe_field(v_fg, v_d, v_s)) < 1.0:
            d = self._FD_STEP
            di_dvfg = (self._pol_current(v_fg + d, v_d, v_s, h) - i_pol) / d
            di_dvd = (self._pol_current(v_fg, v_d + d, v_s, h) - i_pol) / d
            di_dvs = (self._pol_current(v_fg, v_d, v_s + d, h) - i_pol) / d
            ctx.add_f(i_fg_n, i_pol)
            ctx.add_f(i_d_n, -0.5 * i_pol)
            ctx.add_f(i_s_n, -0.5 * i_pol)
            for col, di in ((i_fg_n, di_dvfg), (i_d_n, di_dvd), (i_s_n, di_dvs)):
                ctx.add_j(i_fg_n, col, di)
                ctx.add_j(i_d_n, col, -0.5 * di)
                ctx.add_j(i_s_n, col, -0.5 * di)

    # stamp() records the timestep here so commit() (which has no ctx)
    # can integrate the polarization over the accepted step.
    _commit_dt = 0.0

    def commit(self, v: TerminalVoltages) -> None:
        for (a, b, c) in self._cap_pairs:
            vb = 0.0 if b < 0 else v[b]
            self._q_committed[(a, b)] = c * self.multiplier * (v[a] - vb)
        if self._commit_dt > 0.0:
            e = self.fe_field(v[0], v[1], v[2])
            self.layer.advance(e, self._commit_dt)
            self._commit_dt = 0.0

    def record(self):
        p = self.params
        ferro = self.layer.params
        idx = self._node_index
        s_slot = len(self._cap_pairs)
        rows = [(REC_FET, idx, (p.k_bg, p.vth_mid, p.mw_fg, p.n,
                                p.i_spec * self.multiplier, p.lambda_clm,
                                self._vt, p.i_leak * self.multiplier), s_slot)]
        rows += [(REC_CAP, (idx[a], -1 if b < 0 else idx[b]),
                  (c * self.multiplier,), k)
                 for k, (a, b, c) in enumerate(self._cap_pairs)]
        rows.append((REC_POL, idx[:3], (
            p.kappa_fe, p.ferro.t_fe, ferro.e_activation, ferro.alpha,
            ferro.tau0, ferro.e_smooth, ferro.area * ferro.ps * 2.0,
            self.multiplier, self._FD_STEP, _MAX_EXPONENT,
            math.log10(_MAX_EXPONENT)), s_slot))
        state = [self._q_committed[(a, b)] for a, b, _ in self._cap_pairs]
        return rows, state + [self.layer.s]

    def load_state(self, state) -> None:
        *charges, self.layer.s = state
        for (a, b, _), q in zip(self._cap_pairs, charges):
            self._q_committed[(a, b)] = q

    # -- read disturb (SG-FeFET) --------------------------------------------------------

    def apply_read_disturb(self, n_reads: int = 1, direction: float = +1.0) -> float:
        """Accumulate read-disturb drift from ``n_reads`` FG read pulses.

        SG-FeFETs read through the FG, so every read pulse weakly pushes the
        polarization toward the read-field direction (charge-trapping
        assisted drift, Sec. I/II of the paper).  DG-FeFETs read through the
        BG and have ``read_disturb_delta == 0`` — calling this is a no-op.
        Returns the resulting domain fraction.
        """
        delta = self.params.read_disturb_delta
        if delta <= 0.0 or n_reads <= 0:
            return self.layer.s
        target = 1.0 if direction > 0 else 0.0
        # Each read moves s a fixed small fraction toward the target.
        self.layer.s = target + (self.layer.s - target) * (1.0 - delta) ** n_reads
        self.layer.disturb_events += n_reads
        return self.layer.s

    def __repr__(self) -> str:  # pragma: no cover
        kind = "DG" if self.params.is_double_gate else "SG"
        return (f"<FeFet {self.name} ({kind}, s={self.layer.s:.2f}, "
                f"vth={self.vth:.2f} V)>")
