"""Architecture-level evaluation (Eva-CAM-like): areas, wires, drivers,
encoder, and the Table IV / Fig. 7 figure-of-merit aggregation."""

from .analytical import AnalyticalEstimate, estimate_search
from .bank import TcamMacro
from .drivers import (DriverBank, HvDriverParams, SharedDriverMat,
                      driver_params_for)
from .encoder import EncoderCost, PriorityEncoder
from .evacam import PAPER_TABLE4
from .geometry import FEATURE_AREAS, CellGeometry, cell_geometry
from .wire import (WIRE_14NM, WireLoad, WireParams, column_wire, ml_wire,
                   row_wire)

__all__ = [
    "CellGeometry", "cell_geometry", "FEATURE_AREAS",
    "WireParams", "WireLoad", "WIRE_14NM", "ml_wire", "column_wire",
    "row_wire",
    "HvDriverParams", "DriverBank", "SharedDriverMat", "driver_params_for",
    "PriorityEncoder", "EncoderCost",
    "PAPER_TABLE4",
    "AnalyticalEstimate", "estimate_search", "TcamMacro",
]
