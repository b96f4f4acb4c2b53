"""Match-line periphery: precharge, keeper, and sense amplifier.

The sense amplifier is a two-inverter buffer on the ML (output high =
match, as in paper Fig. 4c), powered from a dedicated supply so SA energy
is separately measurable.  The ML precharge PMOS and a weak always-on
keeper also get dedicated supplies; the keeper rides out the aggregate
subthreshold leak of matching TML transistors without fighting a real
mismatch discharge (mismatch current is ~10x the keeper current).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..devices import VDD, nmos, pmos
from ..spice import Circuit, Pulse, TransientResult, VoltageSource

__all__ = ["MlPeriphery", "add_ml_periphery", "read_sense",
           "SA_THRESHOLD_FRACTION"]

#: ML level (fraction of VDD) at which the SA decision flips.
SA_THRESHOLD_FRACTION = 0.5


@dataclass
class MlPeriphery:
    """Node handles of the ML's precharge/keeper/SA circuitry."""

    ml: str
    sa_out: str
    sa_mid: str
    precharge_until: float

    @property
    def sa_threshold(self) -> float:
        return SA_THRESHOLD_FRACTION * VDD


def add_ml_periphery(ckt: Circuit, ml: str, *, precharge_until: float,
                     prefix: str = "mlp", vdd: float = VDD,
                     with_keeper: bool = True) -> MlPeriphery:
    """Attach precharge PMOS, keeper, and SA to a match line.

    ``precharge_until`` is when the precharge clock releases the ML
    (search evaluation starts).  Sources created (for energy accounting):
    ``VPC.<prefix>`` precharge rail, ``VPCCLK.<prefix>`` precharge clock,
    ``VKEEP.<prefix>`` keeper rail, ``VSA.<prefix>`` SA rail.
    """
    pc_rail = f"{prefix}.pc_rail"
    pc_clk = f"{prefix}.pc_clk"
    ckt.add(VoltageSource(f"VPC.{prefix}", pc_rail, "0", vdd))
    # Precharge clock: low (PMOS on) until precharge_until, then high.
    ckt.add(VoltageSource(f"VPCCLK.{prefix}", pc_clk, "0",
                          Pulse(0.0, vdd, delay=precharge_until,
                                rise=20e-12, width=1.0)))
    ckt.add(pmos(f"{prefix}.MPC", ml, pc_clk, pc_rail, w=320e-9))

    if with_keeper:
        keep_rail = f"{prefix}.keep_rail"
        ckt.add(VoltageSource(f"VKEEP.{prefix}", keep_rail, "0", vdd))
        # Weak always-on keeper: W/L = 20n/200n.
        ckt.add(pmos(f"{prefix}.MKEEP", ml, "0", keep_rail,
                     w=20e-9, l=200e-9))

    sa_rail = f"{prefix}.sa_rail"
    sa_mid = f"{prefix}.sa_mid"
    sa_out = f"{prefix}.sa_out"
    ckt.add(VoltageSource(f"VSA.{prefix}", sa_rail, "0", vdd))
    # Inverter 1: ml -> sa_mid.
    ckt.add(pmos(f"{prefix}.SAP1", sa_mid, ml, sa_rail, w=80e-9))
    ckt.add(nmos(f"{prefix}.SAN1", sa_mid, ml, "0", w=40e-9))
    # Inverter 2: sa_mid -> sa_out (match => ML high => out high).
    ckt.add(pmos(f"{prefix}.SAP2", sa_out, sa_mid, sa_rail, w=80e-9))
    ckt.add(nmos(f"{prefix}.SAN2", sa_out, sa_mid, "0", w=40e-9))
    return MlPeriphery(ml=ml, sa_out=sa_out, sa_mid=sa_mid,
                       precharge_until=precharge_until)


def read_sense(result: TransientResult, sa_out: str, *, t_start: float,
               vdd: float = VDD) -> Tuple[bool, Optional[float], float]:
    """``(matched, latency, final SA level)`` at the SA threshold: matched
    if the output ends above it; latency from ``t_start`` to the output's
    first fall through it, None if it never falls."""
    threshold = SA_THRESHOLD_FRACTION * vdd
    t_fall = result.crossing_time(sa_out, threshold, rising=False,
                                  after=t_start)
    sa_final = result.final(sa_out)
    latency = None if t_fall is None else t_fall - t_start
    return sa_final > threshold, latency, sa_final
