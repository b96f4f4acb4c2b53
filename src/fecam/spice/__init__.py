"""Circuit-simulation substrate: netlists, elements, DC and transient analyses.

This subpackage is a self-contained, SPICE-like modified-nodal-analysis
engine.  It exists because the paper's evaluation is entirely SPICE-based
and the library carries its own simulator rather than depend on an
external one.

Typical usage::

    from fecam.spice import Circuit, Resistor, Capacitor, VoltageSource, Pulse
    from fecam.spice import transient, TransientOptions

    ckt = Circuit("rc")
    ckt.add(VoltageSource("VIN", "in", "0", Pulse(0.0, 1.0, rise=10e-12)))
    ckt.add(Resistor("R1", "in", "out", 1e3))
    ckt.add(Capacitor("C1", "out", "0", 1e-15))
    result = transient(ckt, 10e-9)
    print(result.crossing_time("out", 0.5))
"""

from .analysis import (NewtonOptions, StampContext, TransientOptions, dc_sweep,
                       operating_point, transient)
from .elements import (Capacitor, CurrentSource, Diode, Resistor, Switch,
                       VoltageSource)
from .netlist import Circuit, Element, TerminalVoltages, canonical_node
from .results import OperatingPoint, SweepResult, TransientResult
from .waveforms import DC, PWL, Pulse, Shifted, Sine, Waveform, step_sequence

__all__ = [
    "Circuit", "Element", "TerminalVoltages", "canonical_node",
    "Resistor", "Capacitor", "VoltageSource", "CurrentSource", "Switch", "Diode",
    "DC", "Pulse", "PWL", "Sine", "Shifted", "Waveform", "step_sequence",
    "NewtonOptions", "TransientOptions", "StampContext",
    "operating_point", "dc_sweep", "transient",
    "OperatingPoint", "SweepResult", "TransientResult",
]
