"""Compact device models: EKV MOSFET, ferroelectric layer, SG/DG FeFET.

The calibration module holds the 14 nm-like technology constants and all
paper operating voltages (Tables I-III).
"""

from .calibration import (VDD, CellSizing, OperatingVoltages, cell_sizing,
                          dg_fefet_params, fefet_params_for, make_fefet,
                          nmos, nmos_params, operating_voltages, pmos,
                          pmos_params, sg_fefet_params)
from .ferroelectric import FerroelectricLayer, FerroParams
from .fefet import FeFet, FeFetParams, s_to_state, state_to_s
from .mosfet import Mosfet, MosfetParams, ekv_f, ekv_f_prime, softplus

__all__ = [
    "Mosfet", "MosfetParams", "softplus", "ekv_f", "ekv_f_prime",
    "FerroelectricLayer", "FerroParams",
    "FeFet", "FeFetParams", "state_to_s", "s_to_state",
    "VDD", "nmos", "pmos", "nmos_params", "pmos_params",
    "sg_fefet_params", "dg_fefet_params", "fefet_params_for", "make_fefet",
    "OperatingVoltages", "operating_voltages", "CellSizing", "cell_sizing",
]
