"""Technology calibration: 14 nm-like parameter sets and device factories.

The paper calibrates a 14 nm BSIM-IMG baseline to FDSOI hardware [26] and
builds SG/DG FeFET models on top of it [22].  This module plays that role
for our compact models.  Parameter values are chosen so the *device-level
facts the paper's analysis rests on* hold by construction and are locked in
by tests:

* SG-FeFET: tFE = 10 nm, write at +/-4 V, FG-read memory window ~1.8 V
  (Fig. 1c).
* DG-FeFET: tFE = 5 nm, write at +/-2 V, BG-read memory window ~2.7 V with
  degraded subthreshold slope (Fig. 1d), ON/OFF ~1e4 at the shared 2.0 V
  level (Sec. III-B4).
* Polarization switching charge 2*Pr*A reproduces the Table IV write
  energies (0.41/0.82/0.81/1.63 fJ ladder).
* A 10 ns write pulse fully switches at Vw and *half*-switches at
  Vm = 0.8 * Vw — the intermediate MVT ('X') state of Tab. II/III.

Everything downstream (cells, arrays, metrics) pulls parameters from here,
so re-calibration is a one-file change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..designs import DesignKind
from ..errors import CalibrationError
from .ferroelectric import FerroParams
from .fefet import FeFet, FeFetParams
from .mosfet import Mosfet, MosfetParams

__all__ = [
    "VDD", "nmos_params", "pmos_params", "nmos", "pmos",
    "sg_fefet_params", "dg_fefet_params", "fefet_params_for", "make_fefet",
    "OperatingVoltages", "operating_voltages",
    "CellSizing", "cell_sizing",
]

# ---------------------------------------------------------------------------
# Logic supply (paper: 0.8 V core for the 14 nm node; the 16T CMOS baseline
# in [25] runs 0.9 V — kept separately in the arch layer).
# ---------------------------------------------------------------------------
VDD = 0.8

# 14 nm-ish interconnect/gate constants used to derive parasitics.
_COX_AREA = 0.030  # F/m^2 effective gate capacitance
_C_OVERLAP = 0.25e-9  # F/m of gate width, per edge
_C_JUNCTION = 0.9e-9  # F/m of device width
_L_MIN = 20e-9  # gate length (the FDSOI baseline [26] features 20 nm gates)


def _mos_caps(w: float, l: float):
    c_ox = _COX_AREA * w * l
    c_gs = 0.5 * c_ox + _C_OVERLAP * w
    c_gd = 0.5 * c_ox + _C_OVERLAP * w
    c_gb = 0.1 * c_ox
    c_j = _C_JUNCTION * w
    return c_gs, c_gd, c_gb, c_j


def nmos_params(w: float = 40e-9, l: float = _L_MIN, *, vth: float = 0.35,
                n: float = 1.25) -> MosfetParams:
    """14 nm-like NMOS: ~0.75 mA/um drive at VDD, SS ~ 74 mV/dec."""
    c_gs, c_gd, c_gb, c_j = _mos_caps(w, l)
    return MosfetParams(polarity=+1, vth=vth, n=n, i_spec_sq=3.0e-7,
                        w=w, l=l, lambda_clm=0.05,
                        c_gs=c_gs, c_gd=c_gd, c_gb=c_gb, c_jd=c_j, c_js=c_j)


def pmos_params(w: float = 80e-9, l: float = _L_MIN, *, vth: float = -0.35,
                n: float = 1.25) -> MosfetParams:
    """14 nm-like PMOS (~half the NMOS drive per width)."""
    c_gs, c_gd, c_gb, c_j = _mos_caps(w, l)
    return MosfetParams(polarity=-1, vth=vth, n=n, i_spec_sq=1.4e-7,
                        w=w, l=l, lambda_clm=0.05,
                        c_gs=c_gs, c_gd=c_gd, c_gb=c_gb, c_jd=c_j, c_js=c_j)


def nmos(name: str, d: str, g: str, s: str, b: str = "0", *,
         w: float = 40e-9, l: float = _L_MIN, vth: float = 0.35,
         multiplier: float = 1.0) -> Mosfet:
    return Mosfet(name, d, g, s, b, params=nmos_params(w, l, vth=vth),
                  multiplier=multiplier)


def pmos(name: str, d: str, g: str, s: str, b: str = None, *,
         w: float = 80e-9, l: float = _L_MIN, vth: float = -0.35,
         multiplier: float = 1.0) -> Mosfet:
    # PMOS bulk defaults to its source (n-well tied to the rail it sits on).
    bulk = s if b is None else b
    return Mosfet(name, d, g, s, bulk, params=pmos_params(w, l, vth=vth),
                  multiplier=multiplier)


# ---------------------------------------------------------------------------
# FeFET device flavours (paper Fig. 1).  Device size 20 x 50 nm; Pr chosen
# so 2*Pr*A*Vw lands on the Table IV write-energy ladder.
# ---------------------------------------------------------------------------

# Paper: "The device size of SG-FeFETs and DG-FeFETs is 20 x 50 nm."
_FE_W = 20e-9
_FE_L = 50e-9
_FE_AREA = _FE_W * _FE_L
_PS = 0.102  # C/m^2 (10.2 uC/cm^2)
# KAI kinetics shared by both flavours (same HfO2 physics; both write at
# ~3.4 MV/cm peak field): full switching at Vw in a 10 ns pulse,
# ~two-thirds switching (the MVT target) in a ~15 ns pulse at Vm = 0.8 Vw.
_E_ACT = 4.3e8
_ALPHA = 3.0
_TAU0 = 2.6e-10


def sg_fefet_params() -> FeFetParams:
    """Single-gate FeFET: 10 nm FE, FG write/read (Fig. 1c).

    MW(FG) = 1.8 V around vth_mid = 1.0 V: LVT at 0.1 V (near-off at a
    grounded FG, strongly on at the 0.8 V read level), HVT at 1.9 V.
    Reads pass through the FE stack, so ``read_disturb_delta`` is non-zero.
    """
    ferro = FerroParams(ps=_PS, t_fe=10e-9, area=_FE_AREA,
                        e_activation=_E_ACT, alpha=_ALPHA, tau0=_TAU0)
    return FeFetParams(vth_mid=1.0, mw_fg=1.8, k_bg=0.0, n=1.10,
                       i_spec_sq=1.8e-7, w=_FE_W, l=_FE_L,
                       ferro=ferro, kappa_fe=0.85,
                       c_fg=10e-18, c_bg=0.0, c_bg_well=0.0,
                       c_jd=150e-18, c_js=150e-18, i_leak=1e-10,
                       read_disturb_delta=2e-7)


def dg_fefet_params() -> FeFetParams:
    """Double-gate FeFET: 5 nm FE, FG write at +/-2 V, BG read (Fig. 1d).

    MW(FG) = 0.9 V; with coupling k_bg = 1/3 the BG sees MW = 2.7 V and a
    3x degraded subthreshold slope — both headline numbers of Fig. 1d.
    The BG sits in an isolated P-well (area + capacitance cost,
    ``c_bg_well``); BG reads never stress the FE layer, so
    ``read_disturb_delta = 0``.
    """
    ferro = FerroParams(ps=_PS, t_fe=5e-9, area=_FE_AREA,
                        e_activation=_E_ACT, alpha=_ALPHA, tau0=_TAU0)
    return FeFetParams(vth_mid=0.75, mw_fg=0.9, k_bg=1.0 / 3.0, n=1.05,
                       i_spec_sq=5.0e-7, w=_FE_W, l=_FE_L,
                       ferro=ferro, kappa_fe=0.85,
                       c_fg=15e-18, c_bg=10e-18, c_bg_well=50e-18,
                       c_jd=150e-18, c_js=150e-18, i_leak=1e-10,
                       read_disturb_delta=0.0)


def fefet_params_for(design: DesignKind) -> FeFetParams:
    if not design.is_fefet:
        raise CalibrationError(f"{design} has no FeFET")
    return dg_fefet_params() if design.is_double_gate else sg_fefet_params()


def make_fefet(design: DesignKind, name: str, fg: str, d: str, s: str,
               bg: str = "0", *, initial_s: float = 0.0,
               multiplier: float = 1.0) -> FeFet:
    """Build a FeFET of the flavour used by ``design``."""
    return FeFet(name, fg, d, s, bg, params=fefet_params_for(design),
                 initial_s=initial_s, multiplier=multiplier)


# ---------------------------------------------------------------------------
# Operating voltages (paper Tables I, II, III)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatingVoltages:
    """Write/search voltage set for one design family.

    ``t_write`` is the write pulse width; ``t_write_x`` the (possibly
    longer) Vm pulse that places the partial-polarization MVT state — the
    paper's three-step write gives the designer this freedom (Sec. III-B3).
    """

    vdd: float
    vw: float  # full write voltage (+/-)
    vm: float  # intermediate 'X' write voltage
    vsel: float  # search/select voltage (SeL for DG, FG level for SG)
    vb: float  # small BL bias during search-'0' (DG designs, Tab. II)
    t_write: float
    t_write_x: float

    @property
    def shares_hv_level(self) -> bool:
        """True when write and select voltages coincide — the co-optimized
        condition enabling the shared HV driver of Fig. 6."""
        return abs(self.vw - self.vsel) < 1e-9


# Both flavours program the MVT 'X' state with the same Vm = 0.8 Vw pulse:
# the peak FE field (and therefore the KAI time constant) matches because
# field = kappa*Vm/t_fe and Vm scales with t_fe.  The ~15 ns Vm pulse
# leaves the layer about two-thirds switched (s_x below).
_DG_VOLTAGES = OperatingVoltages(vdd=VDD, vw=2.0, vm=1.6, vsel=2.0, vb=0.25,
                                 t_write=10e-9, t_write_x=19.3e-9)
_SG_VOLTAGES = OperatingVoltages(vdd=VDD, vw=4.0, vm=3.2, vsel=0.8, vb=0.0,
                                 t_write=10e-9, t_write_x=21.8e-9)


def operating_voltages(design: DesignKind) -> OperatingVoltages:
    if not design.is_fefet:
        raise CalibrationError("CMOS TCAM has no FeFET operating voltages")
    return _DG_VOLTAGES if design.is_double_gate else _SG_VOLTAGES


# ---------------------------------------------------------------------------
# 1.5T1Fe cell transistor sizing (paper Sec. III-B2: "relatively large TP
# and TN transistors are required", Eq. 1 resistance ordering).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSizing:
    """Sizing of the shared control transistors in a 2-cell pair.

    TN/TP are deliberately weak (long channel, shifted VT) so the divider
    lands in the ``R_ON < R_N < R_M < R_P << R_OFF`` window of paper Eq. 1
    — the paper's own 'relatively large TP and TN' cell-area cost.  ``s_x``
    is the MVT domain fraction that centres R_M inside the window; the
    write controller program-verifies to it.
    """

    tn_w: float
    tn_l: float
    tn_vth: float
    #: When non-zero, TN is split into a short switching device of this
    #: length (gate on Wr/SL) in series with a static-gated resistor
    #: device of length (tn_l - tn_split_sw_l).  This isolates the big
    #: long-channel gate from the Wr/SL edge: only the small switch's
    #: gate-drain capacitance couples into SL_bar during step changes.
    tn_split_sw_l: float
    tp_w: float
    tp_l: float
    tp_vth: float
    tml_w: float
    tml_l: float
    tml_vth: float
    s_x: float

    @property
    def control_area(self) -> float:
        """Summed gate area of TN+TP+TML (m^2), used by the area model."""
        return (self.tn_w * self.tn_l + self.tp_w * self.tp_l
                + self.tml_w * self.tml_l)


# Values from the numeric co-optimization in fecam.cam.sizing (margins
# verified by tests/cam/test_sizing.py).
_DG_SIZING = CellSizing(tn_w=40e-9, tn_l=240e-9, tn_vth=0.45,
                        tn_split_sw_l=0.0,
                        tp_w=40e-9, tp_l=240e-9, tp_vth=-0.35,
                        tml_w=240e-9, tml_l=20e-9, tml_vth=0.35,
                        s_x=0.74)
# SG note: tml_vth sits higher (0.40) than the DG variant's 0.35 — the
# long-channel TN's gate-drain capacitance couples the Wr/SL inter-step
# edge into SL_bar, and the extra threshold margin absorbs that blip
# without giving up mismatch overdrive (v10 ~= 0.5 V).
_SG_SIZING = CellSizing(tn_w=40e-9, tn_l=720e-9, tn_vth=0.45,
                        tn_split_sw_l=60e-9,
                        tp_w=40e-9, tp_l=240e-9, tp_vth=-0.30,
                        tml_w=360e-9, tml_l=20e-9, tml_vth=0.40,
                        s_x=0.78)


def cell_sizing(design: DesignKind) -> CellSizing:
    if not design.is_one_fefet:
        raise CalibrationError(f"{design} is not a 1.5T1Fe design")
    return _DG_SIZING if design.is_double_gate else _SG_SIZING
