"""Linear and weakly nonlinear circuit elements.

Device compact models (MOSFET, FeFET) live in :mod:`fecam.devices`; this
module provides the structural elements every netlist needs: resistors,
capacitors, independent sources, a voltage-controlled switch, and a junction
diode (used by engine self-tests to exercise Newton convergence).
"""

from __future__ import annotations

import math

from ..errors import NetlistError
from ..units import thermal_voltage
from .netlist import REC_CAP, REC_RES, REC_VSRC, Element, TerminalVoltages
from .waveforms import DC, Waveform


class Resistor(Element):
    """Two-terminal linear resistor."""

    def __init__(self, name: str, a: str, b: str, resistance: float):
        super().__init__(name, (a, b))
        if resistance <= 0:
            raise NetlistError(f"{name}: resistance must be positive, got {resistance}")
        self.resistance = float(resistance)

    def stamp(self, ctx, v: TerminalVoltages) -> None:
        g = 1.0 / self.resistance
        ia, ib = self._node_index
        current = g * (v[0] - v[1])
        ctx.add_f(ia, current)
        ctx.add_f(ib, -current)
        ctx.add_j(ia, ia, g)
        ctx.add_j(ia, ib, -g)
        ctx.add_j(ib, ia, -g)
        ctx.add_j(ib, ib, g)

    def record(self):
        return [(REC_RES, self._node_index, (1.0 / self.resistance,), -1)], ()


class Capacitor(Element):
    """Two-terminal linear capacitor with backward-Euler companion model.

    Open in DC analysis.  The committed charge is the integration state;
    ``ic`` optionally forces the initial voltage regardless of the DC
    operating point (SPICE ``IC=`` semantics with UIC).
    """

    def __init__(self, name: str, a: str, b: str, capacitance: float, ic: float = None):
        super().__init__(name, (a, b))
        if capacitance <= 0:
            raise NetlistError(f"{name}: capacitance must be positive, got {capacitance}")
        self.capacitance = float(capacitance)
        self.ic = ic
        self._q_committed = 0.0

    def init_state(self, v: TerminalVoltages) -> None:
        v_cap = self.ic if self.ic is not None else (v[0] - v[1])
        self._q_committed = self.capacitance * v_cap

    def stamp(self, ctx, v: TerminalVoltages) -> None:
        if ctx.mode != "tran":
            return
        ia, ib = self._node_index
        geq = self.capacitance / ctx.h
        current = (self.capacitance * (v[0] - v[1]) - self._q_committed) / ctx.h
        ctx.add_f(ia, current)
        ctx.add_f(ib, -current)
        ctx.add_j(ia, ia, geq)
        ctx.add_j(ia, ib, -geq)
        ctx.add_j(ib, ia, -geq)
        ctx.add_j(ib, ib, geq)

    def commit(self, v: TerminalVoltages) -> None:
        self._q_committed = self.capacitance * (v[0] - v[1])

    def record(self):
        return ([(REC_CAP, self._node_index, (self.capacitance,), 0)],
                (self._q_committed,))

    def load_state(self, state) -> None:
        (self._q_committed,) = state

    @property
    def voltage_state(self) -> float:
        """Committed capacitor voltage (charge / C)."""
        return self._q_committed / self.capacitance


class VoltageSource(Element):
    """Independent voltage source with an arbitrary waveform.

    Adds one branch-current unknown.  Positive branch current flows from
    ``pos`` through the source to ``neg`` — i.e. the source *delivers* energy
    when ``v * i_branch`` is negative under this convention, so the recorded
    power is negated by the analysis to report delivered energy as positive.
    """

    num_branches = 1

    def __init__(self, name: str, pos: str, neg: str, waveform) -> None:
        super().__init__(name, (pos, neg))
        if isinstance(waveform, (int, float)):
            waveform = DC(waveform)
        if not isinstance(waveform, Waveform):
            raise NetlistError(f"{name}: waveform must be a Waveform or number")
        self.waveform = waveform

    def level(self, t: float, scale: float = 1.0) -> float:
        return scale * self.waveform.value(t)

    def stamp(self, ctx, v: TerminalVoltages) -> None:
        ip, ineg = self._node_index
        ibr = self._branch_index[0]
        i_branch = v.branch(0)
        # KCL rows: branch current leaves pos, enters neg.
        ctx.add_f(ip, i_branch)
        ctx.add_f(ineg, -i_branch)
        ctx.add_j(ip, ibr, 1.0)
        ctx.add_j(ineg, ibr, -1.0)
        # Branch row: v(pos) - v(neg) = level(t).
        ctx.add_f(ibr, (v[0] - v[1]) - self.level(ctx.t, ctx.source_scale))
        ctx.add_j(ibr, ip, 1.0)
        ctx.add_j(ibr, ineg, -1.0)

    def record(self):
        # The level parameter is rewritten by the analysis for every
        # (t, source_scale) it solves at.
        return [(REC_VSRC, self._node_index + self._branch_index, (0.0,),
                 -1)], ()


class CurrentSource(Element):
    """Independent current source; current flows pos -> through source -> neg."""

    def __init__(self, name: str, pos: str, neg: str, waveform) -> None:
        super().__init__(name, (pos, neg))
        if isinstance(waveform, (int, float)):
            waveform = DC(waveform)
        if not isinstance(waveform, Waveform):
            raise NetlistError(f"{name}: waveform must be a Waveform or number")
        self.waveform = waveform

    def stamp(self, ctx, v: TerminalVoltages) -> None:
        ip, ineg = self._node_index
        level = ctx.source_scale * self.waveform.value(ctx.t)
        ctx.add_f(ip, level)
        ctx.add_f(ineg, -level)


class Switch(Element):
    """Voltage-controlled switch with a smooth logistic transition.

    Conductance interpolates between ``1/r_off`` and ``1/r_on`` as the
    control voltage ``v(cp) - v(cn)`` crosses ``v_threshold`` over a
    ``v_transition`` wide window.  The smooth transition keeps the Jacobian
    continuous, which Newton needs; a hard switch is a classic source of
    non-convergence.
    """

    def __init__(self, name: str, a: str, b: str, cp: str, cn: str = "0", *,
                 r_on: float = 10.0, r_off: float = 1e9,
                 v_threshold: float = 0.4, v_transition: float = 0.05):
        super().__init__(name, (a, b, cp, cn))
        if r_on <= 0 or r_off <= r_on:
            raise NetlistError(f"{name}: need 0 < r_on < r_off")
        self.g_on = 1.0 / r_on
        self.g_off = 1.0 / r_off
        self.v_threshold = float(v_threshold)
        self.v_transition = float(v_transition)

    def _conductance(self, vc: float):
        """Return (g, dg/dvc).

        Interpolates in log-conductance space so the OFF tail really is
        ``g_off`` (a linear blend would leak ``g_on * sigma`` even for tiny
        sigma, since g_on is many decades above g_off).
        """
        x = (vc - self.v_threshold) / self.v_transition
        # Clamp to avoid overflow; the tails are flat anyway.
        x = max(-60.0, min(60.0, x))
        sig = 1.0 / (1.0 + math.exp(-x))
        ln_ratio = math.log(self.g_on / self.g_off)
        g = self.g_off * math.exp(sig * ln_ratio)
        dsig = sig * (1.0 - sig) / self.v_transition
        dg = g * ln_ratio * dsig
        return g, dg

    def stamp(self, ctx, v: TerminalVoltages) -> None:
        ia, ib, icp, icn = self._node_index
        vab = v[0] - v[1]
        vc = v[2] - v[3]
        g, dg = self._conductance(vc)
        current = g * vab
        ctx.add_f(ia, current)
        ctx.add_f(ib, -current)
        # d(current)/d(va, vb)
        ctx.add_j(ia, ia, g)
        ctx.add_j(ia, ib, -g)
        ctx.add_j(ib, ia, -g)
        ctx.add_j(ib, ib, g)
        # d(current)/d(vcp, vcn)
        dj = dg * vab
        ctx.add_j(ia, icp, dj)
        ctx.add_j(ia, icn, -dj)
        ctx.add_j(ib, icp, -dj)
        ctx.add_j(ib, icn, dj)


class Diode(Element):
    """Junction diode, ``i = Is * (exp(v/(n*Vt)) - 1)``, with exp limiting.

    Primarily used by the engine's own test-suite to exercise the Newton
    solver on a stiff exponential nonlinearity.
    """

    def __init__(self, name: str, anode: str, cathode: str, *,
                 i_sat: float = 1e-14, ideality: float = 1.0):
        super().__init__(name, (anode, cathode))
        if i_sat <= 0:
            raise NetlistError(f"{name}: saturation current must be positive")
        self.i_sat = float(i_sat)
        self.n_vt = float(ideality) * thermal_voltage()

    def stamp(self, ctx, v: TerminalVoltages) -> None:
        ia, ic = self._node_index
        vd = v[0] - v[1]
        # Linearize the exponential above v_crit to avoid overflow while
        # keeping current and conductance continuous.
        v_crit = 40.0 * self.n_vt
        if vd <= v_crit:
            e = math.exp(vd / self.n_vt)
            current = self.i_sat * (e - 1.0)
            g = self.i_sat * e / self.n_vt
        else:
            e_crit = math.exp(v_crit / self.n_vt)
            g = self.i_sat * e_crit / self.n_vt
            current = self.i_sat * (e_crit - 1.0) + g * (vd - v_crit)
        g = max(g, 1e-15)
        ctx.add_f(ia, current)
        ctx.add_f(ic, -current)
        ctx.add_j(ia, ia, g)
        ctx.add_j(ia, ic, -g)
        ctx.add_j(ic, ia, -g)
        ctx.add_j(ic, ic, g)
