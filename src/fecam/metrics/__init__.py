"""fecam.metrics — one design-evaluation API across fidelity tiers.

The metrology counterpart of the :mod:`fecam.store` facade: every
consumer that needs figures of merit — stores pricing their searches,
tests checking Table IV / Fig. 7, sweeps exploring word lengths —
asks the same three questions through one front door:

* :class:`DesignPoint` — a frozen, hashable design-space coordinate;
* :func:`evaluate` — ``evaluate(point, fidelity)`` with
  ``fidelity in FIDELITIES`` (``"paper"`` reference values,
  ``"analytical"`` closed form, ``"spice"`` transient ground truth),
  returning one canonical :class:`Fom`, memoized in a shared registry;
* :func:`sweep` — columnar grid evaluation for design-space plots.

Pick the tier by cost: ``paper`` is free (published numbers),
``analytical`` costs microseconds (RC/current expressions, within a
small factor of SPICE — the cross-tier tests state the tolerance), and
``spice`` costs ~1 s cold per design point and is the ground truth the
other tiers are checked against.
"""

from .evaluate import evaluate
from .fom import Fom
from .point import (ANALYTICAL_ENERGY_FACTOR, ANALYTICAL_LATENCY_FACTOR,
                    DesignPoint, FIDELITIES, STEP1_MISS_RATE_DEFAULT)
from .registry import cached_evaluate, clear_registry, registry_size
from .sweep import sweep, sweep_records

__all__ = [
    "DesignPoint", "FIDELITIES", "STEP1_MISS_RATE_DEFAULT",
    "ANALYTICAL_LATENCY_FACTOR", "ANALYTICAL_ENERGY_FACTOR",
    "Fom", "evaluate", "sweep", "sweep_records",
    "cached_evaluate", "clear_registry", "registry_size",
]
