"""EKV-style MOSFET compact model.

The paper's evaluation uses a 14 nm BSIM-IMG model calibrated to FDSOI
silicon [26].  BSIM-IMG is not reproducible here, so we use the EKV charge
interpolation model, which shares the properties the TCAM analysis depends
on:

* a single expression covering weak, moderate, and strong inversion with
  continuous derivatives (Newton-friendly);
* exponential subthreshold behaviour with slope factor ``n``
  (SS = n * Vt * ln 10 per decade);
* drain-source symmetric conduction (the 1.5T1Fe voltage divider pushes
  current both ways through TN/TP);
* square-law-ish saturation with channel-length modulation.

Drain current (bulk-referenced EKV)::

    i_ds = i_s * [F((vp - vs)/Vt) - F((vp - vd)/Vt)] * clm(vds)
    vp   = (v_gb - vth) / n
    F(u) = ln^2(1 + exp(u / 2))
    i_s  = 2 * n * mu_cox_wl * Vt^2        (specific current)

PMOS devices evaluate the same equations with all terminal voltages and the
current negated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from ..errors import CalibrationError
from ..spice.netlist import REC_CAP, REC_MOS, Element, TerminalVoltages
from ..units import thermal_voltage

__all__ = ["MosfetParams", "Mosfet", "softplus", "ekv_f", "ekv_f_prime"]


def softplus(x: float) -> float:
    """Numerically safe ``ln(1 + exp(x))``."""
    if x > 40.0:
        return x
    if x < -40.0:
        return math.exp(x)
    return math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    if x > 40.0:
        return 1.0
    if x < -40.0:
        return math.exp(x)
    return 1.0 / (1.0 + math.exp(-x))


def ekv_f(u: float) -> float:
    """EKV interpolation function ``F(u) = ln^2(1 + exp(u/2))``."""
    s = softplus(u / 2.0)
    return s * s


def ekv_f_prime(u: float) -> float:
    """dF/du = softplus(u/2) * sigmoid(u/2)."""
    return softplus(u / 2.0) * _sigmoid(u / 2.0)


@dataclass(frozen=True)
class MosfetParams:
    """Parameter set for :class:`Mosfet`.

    ``i_spec_sq`` is the specific current of a *square* device (W == L);
    the element scales it by W/L.  Capacitances are totals per device,
    computed by the technology factories in :mod:`fecam.devices.calibration`.
    """

    polarity: int  # +1 NMOS, -1 PMOS
    vth: float  # V, bulk-referenced threshold
    n: float = 1.2  # subthreshold slope factor
    i_spec_sq: float = 1e-6  # A at W/L = 1
    w: float = 100e-9  # m
    l: float = 20e-9  # m
    lambda_clm: float = 0.05  # 1/V channel-length modulation
    c_gs: float = 20e-18  # F
    c_gd: float = 20e-18  # F
    c_gb: float = 5e-18  # F
    c_jd: float = 30e-18  # F, drain junction
    c_js: float = 30e-18  # F, source junction
    temperature: float = 300.0

    def __post_init__(self):
        if self.polarity not in (1, -1):
            raise CalibrationError("polarity must be +1 (NMOS) or -1 (PMOS)")
        if self.w <= 0 or self.l <= 0:
            raise CalibrationError("W and L must be positive")
        if self.n < 1.0:
            raise CalibrationError("slope factor n must be >= 1")
        if self.i_spec_sq <= 0:
            raise CalibrationError("specific current must be positive")

    @property
    def i_spec(self) -> float:
        """Specific current scaled by geometry (A)."""
        return self.i_spec_sq * self.w / self.l

    @property
    def subthreshold_swing(self) -> float:
        """SS in V/decade."""
        return self.n * thermal_voltage(self.temperature) * math.log(10.0)

    def scaled(self, **overrides) -> "MosfetParams":
        """Copy with overridden fields (dataclasses.replace wrapper)."""
        return replace(self, **overrides)


class Mosfet(Element):
    """Four-terminal MOSFET element: (drain, gate, source, bulk).

    ``multiplier`` models ``m`` identical parallel devices; the TCAM word
    models merge electrically identical cells this way, which keeps the MNA
    system size independent of word length.
    """

    def __init__(self, name: str, d: str, g: str, s: str, b: str = "0", *,
                 params: MosfetParams, multiplier: float = 1.0):
        super().__init__(name, (d, g, s, b))
        if multiplier <= 0:
            raise CalibrationError(f"{name}: multiplier must be positive")
        self.params = params
        self.multiplier = float(multiplier)
        self._vt = thermal_voltage(params.temperature)
        # Committed charges of the four internal capacitors, keyed by
        # (terminal_a, terminal_b) local indices.
        self._cap_pairs: Tuple[Tuple[int, int, float], ...] = (
            (1, 2, params.c_gs),  # gate-source
            (1, 0, params.c_gd),  # gate-drain
            (1, 3, params.c_gb),  # gate-bulk
            (0, 3, params.c_jd),  # drain-bulk junction
            (2, 3, params.c_js),  # source-bulk junction
        )
        self._q_committed: Dict[Tuple[int, int], float] = {
            (a, b): 0.0 for a, b, _ in self._cap_pairs}

    # -- channel current -------------------------------------------------------

    def channel_current(self, vd: float, vg: float, vs: float,
                        vb: float = 0.0) -> float:
        """Drain current (A, positive drain->source) at the given voltages."""
        i, _, _, _ = self._ids_and_derivs(vd, vg, vs, vb)
        return i

    def _ids_and_derivs(self, vd: float, vg: float, vs: float, vb: float):
        """Return (ids, d/dvd, d/dvg, d/dvs), bulk derivative implied.

        PMOS is handled by computing the NMOS equations on negated,
        bulk-referenced voltages and negating the resulting current.
        """
        p = self.params
        sign = p.polarity
        # Bulk-referenced, polarity-normalized voltages.
        vdb = sign * (vd - vb)
        vgb = sign * (vg - vb)
        vsb = sign * (vs - vb)
        vt = self._vt
        # In the polarity-normalized frame the threshold is always positive:
        # a PMOS with vth = -0.35 V behaves as an NMOS with +0.35 V.
        vp = (vgb - sign * p.vth) / p.n
        uf = (vp - vsb) / vt
        ur = (vp - vdb) / vt
        f_f, f_r = ekv_f(uf), ekv_f(ur)
        fp_f, fp_r = ekv_f_prime(uf), ekv_f_prime(ur)
        i_s = p.i_spec * self.multiplier
        vds = vdb - vsb
        vds_smooth = math.sqrt(vds * vds + 1e-6)
        clm = 1.0 + p.lambda_clm * vds_smooth
        dclm_dvds = p.lambda_clm * vds / vds_smooth

        core = f_f - f_r
        ids = i_s * core * clm
        # Derivatives in the normalized frame.
        d_dvg = i_s * clm * (fp_f - fp_r) / (p.n * vt)
        d_dvs = i_s * (-clm * fp_f / vt - core * dclm_dvds)
        d_dvd = i_s * (clm * fp_r / vt + core * dclm_dvds)
        # Chain rule back to physical voltages: each normalized voltage is
        # sign * (v - vb), so d/dv_phys = sign * d/dv_norm, and the current
        # seen at the physical terminals is sign * ids.
        ids_phys = sign * ids
        return (ids_phys,
                sign * d_dvd * sign,
                sign * d_dvg * sign,
                sign * d_dvs * sign)

    # -- element interface -----------------------------------------------------

    def init_state(self, v: TerminalVoltages) -> None:
        for (a, b, c) in self._cap_pairs:
            self._q_committed[(a, b)] = c * self.multiplier * (v[a] - v[b])

    def stamp(self, ctx, v: TerminalVoltages) -> None:
        idx = self._node_index
        vd, vg, vs, vb = v[0], v[1], v[2], v[3]
        ids, g_dd, g_dg, g_ds = self._ids_and_derivs(vd, vg, vs, vb)
        # Bulk conductance balances the row sums (KCL for the linearized
        # model): dI/dvb = -(dI/dvd + dI/dvg + dI/dvs).
        g_db = -(g_dd + g_dg + g_ds)
        i_d, i_g, i_s_node, i_b = idx[0], idx[1], idx[2], idx[3]
        ctx.add_f(i_d, ids)
        ctx.add_f(i_s_node, -ids)
        for col, g in ((i_d, g_dd), (i_g, g_dg), (i_s_node, g_ds), (i_b, g_db)):
            ctx.add_j(i_d, col, g)
            ctx.add_j(i_s_node, col, -g)
        # Intrinsic/junction capacitances (transient only).
        if ctx.mode == "tran":
            h = ctx.h
            for (a, b, c) in self._cap_pairs:
                c_eff = c * self.multiplier
                if c_eff <= 0:
                    continue
                q = c_eff * (v[a] - v[b])
                i_cap = (q - self._q_committed[(a, b)]) / h
                geq = c_eff / h
                ia, ib = idx[a], idx[b]
                ctx.add_f(ia, i_cap)
                ctx.add_f(ib, -i_cap)
                ctx.add_j(ia, ia, geq)
                ctx.add_j(ia, ib, -geq)
                ctx.add_j(ib, ia, -geq)
                ctx.add_j(ib, ib, geq)

    def commit(self, v: TerminalVoltages) -> None:
        for (a, b, c) in self._cap_pairs:
            self._q_committed[(a, b)] = c * self.multiplier * (v[a] - v[b])

    def record(self):
        p = self.params
        idx = self._node_index
        rows = [(REC_MOS, idx, (float(p.polarity), p.vth, p.n,
                                p.i_spec * self.multiplier, p.lambda_clm,
                                self._vt), -1)]
        rows += [(REC_CAP, (idx[a], idx[b]), (c * self.multiplier,), k)
                 for k, (a, b, c) in enumerate(self._cap_pairs)]
        return rows, [self._q_committed[(a, b)]
                      for a, b, _ in self._cap_pairs]

    def load_state(self, state) -> None:
        for (a, b, _), q in zip(self._cap_pairs, state):
            self._q_committed[(a, b)] = q

    # -- convenience -----------------------------------------------------------

    def on_resistance(self, vgs: float, vds: float = 0.05) -> float:
        """Large-signal ON resistance |vds / ids| with source/bulk at 0."""
        sign = self.params.polarity
        i = self.channel_current(sign * vds, sign * vgs, 0.0, 0.0)
        if i == 0:
            return float("inf")
        return abs(vds / i)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "nmos" if self.params.polarity > 0 else "pmos"
        return f"<Mosfet {self.name} ({kind}, W={self.params.w:.3g}, m={self.multiplier})>"
