"""One associative-store API over every TCAM backend.

The store tier gives every workload a single front door:
:class:`CamStore`, configured by a typed :class:`StoreConfig`, speaking
a uniform batch-first result model (:class:`Query`, :class:`Match`,
:class:`QueryResult`, :class:`StoreStats`).  Physical storage sits
behind the :class:`SearchBackend` protocol: a sharded multi-bank fabric
(:class:`FabricBackend`; a one-bank store is a one-bank fabric), which
`fecam.cluster` wraps to serve reads from worker processes — so
sharding, batching, and query caching are config edits, not code
changes, and results do not depend on the bank count (property-tested).
"""

from .backend import SearchBackend
from .config import BACKEND_KINDS, PLACEMENTS, StoreConfig
from .fabric import FabricBackend
from .result import Match, Query, QueryResult, StoreStats
from .store import CamStore

__all__ = [
    "CamStore", "StoreConfig",
    "Query", "Match", "QueryResult", "StoreStats",
    "SearchBackend", "FabricBackend",
    "BACKEND_KINDS", "PLACEMENTS",
]
