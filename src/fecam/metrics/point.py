"""`DesignPoint` — one frozen, hashable coordinate in the design space.

Every evaluation request across the three fidelity tiers is described by
the same value: *which* design, at *what* geometry (word length, rows,
banks), under *what* workload assumption (step-1 miss rate), with *what*
timing overrides.  Freezing the point makes it a registry key, so two
callers asking the same question — a store pricing its searches, a test
checking Table IV, a sweep revisiting a corner — share one cached
answer.

>>> from fecam.designs import DesignKind
>>> from fecam.metrics import DesignPoint
>>> point = DesignPoint(DesignKind.DG_1T5, word_length=64, rows=64)
>>> point.word_length
64
>>> point == DesignPoint(DesignKind.DG_1T5)
True
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..designs import DesignKind
from ..errors import OperationError

__all__ = ["DesignPoint", "FIDELITIES", "STEP1_MISS_RATE_DEFAULT",
           "ANALYTICAL_LATENCY_FACTOR", "ANALYTICAL_ENERGY_FACTOR"]

#: The three model-fidelity tiers, cheapest first.
#:
#: ``"paper"``      — the published Table IV numbers (reference values,
#:                    zero computation);
#: ``"analytical"`` — the closed-form Eva-CAM-style estimator
#:                    (microseconds, no transient simulation);
#: ``"spice"``      — the word-level MNA transient tier (ground truth,
#:                    ~1 s per cold design point).
FIDELITIES = ("paper", "analytical", "spice")

#: The paper's pessimistic real-world assumption (Sec. V-B): 90 % of
#: searched rows miss in step 1 and terminate early.
STEP1_MISS_RATE_DEFAULT = 0.90

#: Stated analytical-vs-SPICE agreement bounds: the closed-form tier's
#: latency/energy figures stay within these factors of the transient
#: ground truth (ratio in (1/factor, factor)).  The tier-1 tests pin
#: them for every FeFET design over the Fig. 7 grid, N in (16, 32, 64,
#: 128); the one known residual is 2SG energy at N=128 (ratio 2.547),
#: held as a strict xfail.
ANALYTICAL_LATENCY_FACTOR = 3.0
ANALYTICAL_ENERGY_FACTOR = 2.5


@dataclass(frozen=True)
class DesignPoint:
    """One design coordinate to evaluate.

    ``timings`` optionally overrides the word-level search timing plan:
    pass a :class:`~fecam.cam.word.WordTimings` or a plain mapping of its
    field overrides (``{"t_step": 2e-9}``) — mappings are normalized to a
    ``WordTimings`` at construction so the point stays hashable and
    equivalent overrides share one registry slot.  Only the ``"spice"``
    tier runs a transient schedule, so timing overrides affect (and key)
    that tier alone; the paper/analytical tiers ignore them.

    >>> DesignPoint(DesignKind.SG_1T5, timings={"t_gap": 0.6e-9}).timings
    WordTimings(t_settle=None, t_step=None, t_gap=6e-10, ...)
    """

    design: DesignKind
    word_length: int = 64
    rows: int = 64
    banks: int = 1
    step1_miss_rate: float = STEP1_MISS_RATE_DEFAULT
    timings: Optional[Any] = None  # WordTimings or mapping of overrides

    def __post_init__(self) -> None:
        if not isinstance(self.design, DesignKind):
            raise OperationError(
                f"design must be a DesignKind, got {self.design!r}")
        if self.word_length < 2:
            raise OperationError("word_length must be >= 2")
        if self.rows < 1:
            raise OperationError("rows must be positive")
        if self.banks < 1:
            raise OperationError("banks must be positive")
        if not 0.0 <= self.step1_miss_rate <= 1.0:
            raise OperationError("step1_miss_rate must be in [0, 1]")
        if self.timings is not None:
            # Normalize dict overrides into the frozen timing plan so the
            # point is hashable, and fold a plan that resolves to this
            # design's schedule back to None — equivalent overrides must
            # share one registry slot.
            from ..cam.word import WordTimings

            timings = self.timings
            if isinstance(timings, Mapping):
                timings = WordTimings(**dict(timings))
            elif not isinstance(timings, WordTimings):
                # Anything else would surface later as a bare TypeError
                # inside the registry lookup — the failure class the
                # normalized key exists to eliminate.
                raise OperationError(
                    "timings must be a WordTimings or a mapping of its "
                    f"field overrides, got {type(timings).__name__}")
            if (timings.for_design(self.design, self.word_length)
                    == WordTimings().for_design(self.design,
                                                self.word_length)):
                timings = None
            object.__setattr__(self, "timings", timings)

    def key(self, fidelity: str) -> Tuple:
        """Canonical registry key for this point at one fidelity.

        The miss rate is rounded so float noise cannot fragment the
        cache, and timing overrides only key the ``"spice"`` tier — the
        paper/analytical tiers have no transient schedule to override,
        so every timing variant of a point shares their one cached
        answer.
        """
        return (self.design, self.word_length, self.rows, self.banks,
                round(self.step1_miss_rate, 4),
                self.timings if fidelity == "spice" else None, fidelity)
