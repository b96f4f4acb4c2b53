"""Shared memoizing registry for design-point evaluations.

One process-wide cache: every tier (paper / analytical / spice) and
every caller (``metrics.evaluate``, :class:`~fecam.arch.TcamMacro`, a
store's :class:`~fecam.functional.EnergyModel`) shares it, keyed by the
*normalized* :meth:`DesignPoint.key` — so mapping-style timing overrides
(unhashable dicts) land on the same slot as their ``WordTimings``
equivalent instead of raising ``TypeError``.

Cache hits return the identical :class:`~fecam.metrics.Fom` object (it
is frozen, so sharing is safe); ``clear_registry()`` empties it.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from .fom import Fom
from .point import DesignPoint

__all__ = ["cached_evaluate", "clear_registry", "registry_size"]

_REGISTRY: Dict[Tuple, Fom] = {}


def cached_evaluate(point: DesignPoint, fidelity: str,
                    compute: Callable[[], Fom]) -> Fom:
    """Return the memoized Fom for (point, fidelity), computing once."""
    key = point.key(fidelity)
    fom = _REGISTRY.get(key)
    if fom is None:
        fom = _REGISTRY[key] = compute()
    return fom


def clear_registry() -> None:
    """Forget every cached evaluation (all tiers)."""
    _REGISTRY.clear()


def registry_size() -> int:
    """Number of distinct (point, fidelity) evaluations cached."""
    return len(_REGISTRY)
