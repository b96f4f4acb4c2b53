"""The paper's published Table IV rows (the Eva-CAM role, paper [15]).

The repo's own Tab. IV / Fig. 7 numbers come from
``fecam.metrics.evaluate(DesignPoint(...), fidelity)``; :data:`PAPER_TABLE4`
is the reference they are reported against and the source of the
``fidelity="paper"`` tier.

The 16T CMOS baseline reports the published silicon figures of [25]
exactly as the paper does (write voltage 0.9 V, 0.286 um^2, 235 ps,
0.53 fJ/bit), cross-checked by our simulated 16T word model.
"""

from __future__ import annotations

from ..designs import DesignKind

__all__ = ["PAPER_TABLE4"]

#: Paper Table IV reference values, for side-by-side reporting (and the
#: source of the metrics API's ``fidelity="paper"`` tier).
#: (write_voltage_v, fe_thickness_nm, cell_area_um2, write_energy_fj,
#:  latency_1step_ps, latency_total_ps, energy_1step_fj, energy_total_fj,
#:  energy_avg_fj)
PAPER_TABLE4 = {
    DesignKind.CMOS_16T: dict(write_voltage="0.9V", t_fe_nm=None,
                              cell_area_um2=0.286, write_energy_fj=None,
                              latency_1step_ps=None, latency_total_ps=235.0,
                              energy_1step_fj=None, energy_total_fj=0.53,
                              energy_avg_fj=0.53),
    DesignKind.SG_2FEFET: dict(write_voltage="+/-4V", t_fe_nm=10,
                               cell_area_um2=0.095, write_energy_fj=1.63,
                               latency_1step_ps=None, latency_total_ps=582.0,
                               energy_1step_fj=None, energy_total_fj=0.17,
                               energy_avg_fj=0.17),
    DesignKind.DG_2FEFET: dict(write_voltage="+/-2V", t_fe_nm=5,
                               cell_area_um2=0.204, write_energy_fj=0.81,
                               latency_1step_ps=None, latency_total_ps=1147.0,
                               energy_1step_fj=None, energy_total_fj=0.25,
                               energy_avg_fj=0.25),
    DesignKind.SG_1T5: dict(write_voltage="+/-4V, 3.2V", t_fe_nm=10,
                            cell_area_um2=0.108, write_energy_fj=0.82,
                            latency_1step_ps=159.0, latency_total_ps=351.0,
                            energy_1step_fj=0.11, energy_total_fj=0.16,
                            energy_avg_fj=0.12),
    DesignKind.DG_1T5: dict(write_voltage="+/-2V, 1.6V", t_fe_nm=5,
                            cell_area_um2=0.156, write_energy_fj=0.41,
                            latency_1step_ps=231.0, latency_total_ps=481.0,
                            energy_1step_fj=0.13, energy_total_fj=0.21,
                            energy_avg_fj=0.14),
}
