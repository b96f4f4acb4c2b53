"""Typed configuration for a :class:`~fecam.store.CamStore`.

One :class:`StoreConfig` value describes the full layout of an
associative store — word width, total row capacity, bank count, the
paper design pricing every operation, query caching, and key placement —
so scaling a workload from one bank to a sharded multi-bank fabric is a
config edit, not a code change.  ``fidelity`` selects the metrics tier
that prices operations (``"spice"`` ground truth — the default —
``"analytical"`` closed form, or ``"paper"`` published values), so a
store can trade pricing accuracy for construction speed by config alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..designs import DesignKind
from ..errors import OperationError
from ..functional.engine import EnergyModel
from ..metrics.point import FIDELITIES

__all__ = ["StoreConfig", "BACKEND_KINDS", "PLACEMENTS", "FIDELITIES"]

#: Accepted ``StoreConfig.backend`` values.  Inert: all three build the
#: one fabric backend (``"array"`` still insists on a single bank); the
#: field survives only because the frozen ``benchmarks/e2e`` passes it.
BACKEND_KINDS = ("auto", "array", "fabric")

#: Accepted ``StoreConfig.placement`` values: ``"striped"`` places keys
#: round-robin by insertion order (balanced occupancy, the construction
#: every app uses); ``"hash"`` places by a stable key hash (replica-
#: independent point placement).
PLACEMENTS = ("striped", "hash")


@dataclass(frozen=True)
class StoreConfig:
    """Layout of one associative store.

    ``width`` and ``rows`` may be left ``None`` by callers that embed a
    config inside a larger object (an app derives them from its own
    parameters) and filled later via :meth:`resolved`.
    """

    width: Optional[int] = None
    rows: Optional[int] = None            # total rows across all banks
    banks: int = 1
    design: DesignKind = DesignKind.DG_1T5
    backend: str = "auto"                 # one of BACKEND_KINDS
    cache_size: int = 0                   # 0 disables the query cache
    placement: str = "striped"            # one of PLACEMENTS
    energy_model: Optional[EnergyModel] = None
    fidelity: str = "spice"               # one of metrics.FIDELITIES

    def __post_init__(self) -> None:
        if self.banks < 1:
            raise OperationError("a store needs at least one bank")
        if self.fidelity not in FIDELITIES:
            raise OperationError(
                f"fidelity must be one of {FIDELITIES}, "
                f"got {self.fidelity!r}")
        if self.cache_size < 0:
            raise OperationError("cache_size must be non-negative")
        if self.backend not in BACKEND_KINDS:
            raise OperationError(
                f"backend must be one of {BACKEND_KINDS}, "
                f"got {self.backend!r}")
        if self.placement not in PLACEMENTS:
            raise OperationError(
                f"placement must be one of {PLACEMENTS}, "
                f"got {self.placement!r}")
        if self.backend == "array" and self.banks != 1:
            raise OperationError(
                "backend='array' means exactly one bank; use "
                "backend='fabric' (or 'auto') for banks > 1")
        if self.width is not None and self.width < 1:
            raise OperationError("width must be positive")
        if self.rows is not None and self.rows < 1:
            raise OperationError("rows must be positive")

    # -- derived layout ----------------------------------------------------------

    def resolve_energy_model(self) -> EnergyModel:
        """The pricing model a backend built from this config should use.

        An explicit fully-priced ``energy_model`` wins (what-if studies
        with fixed numbers — its ``fidelity`` tag is moot); otherwise an
        unresolved model at this config's ``fidelity``, so
        ``fidelity="analytical"`` stores never touch the SPICE tier, at
        construction or later.  An *unresolved* explicit model whose
        fidelity contradicts the config's is rejected: silently honoring
        either side would surprise the other.
        """
        if self.energy_model is not None:
            model = self.energy_model
            if not model.resolved and model.fidelity != self.fidelity:
                raise OperationError(
                    f"energy_model.fidelity={model.fidelity!r} conflicts "
                    f"with StoreConfig.fidelity={self.fidelity!r}; price "
                    "the model, align the fidelities, or drop one")
            return model
        if self.width is None:
            raise OperationError("width is not set; call resolved() first")
        return EnergyModel(self.design, self.width, fidelity=self.fidelity)

    @property
    def rows_per_bank(self) -> int:
        if self.rows is None:
            raise OperationError("rows is not set; call resolved() first")
        return (self.rows + self.banks - 1) // self.banks

    def resolved(self, *, width: Optional[int] = None,
                 rows: Optional[int] = None) -> "StoreConfig":
        """Fill in missing ``width``/``rows`` and validate completeness.

        Explicit config values win over the defaults supplied here, so
        an app can say "my store is 32 bits wide with N rows" while the
        user still controls banks/design/cache via the config.
        """
        config = self
        if config.width is None and width is not None:
            config = replace(config, width=width)
        if config.rows is None and rows is not None:
            config = replace(config, rows=rows)
        if config.width is None or config.rows is None:
            raise OperationError(
                "StoreConfig needs width and rows to build a store "
                f"(width={config.width}, rows={config.rows})")
        return config

    def with_geometry(self, *, width: int, rows: int) -> "StoreConfig":
        """Fill in geometry the caller owns, rejecting conflicts.

        Apps with a fixed key geometry (router: 32-bit addresses,
        classifier: the 104-bit 5-tuple, ...) use this instead of
        :meth:`resolved`: a config that explicitly disagrees fails here,
        at construction, rather than deep inside the word packer on the
        first lookup.
        """
        if self.width is not None and self.width != width:
            raise OperationError(
                f"store_config.width={self.width} conflicts with this "
                f"workload's fixed width {width}; leave width unset")
        if self.rows is not None and self.rows != rows:
            raise OperationError(
                f"store_config.rows={self.rows} conflicts with this "
                f"workload's derived capacity {rows}; leave rows unset")
        return replace(self, width=width, rows=rows)
