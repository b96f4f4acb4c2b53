"""Sharded multi-bank TCAM fabric: the system tier above single arrays.

The circuit tier calibrates *one* array; this package turns calibrated
arrays into a search *engine*: banks with row lifecycle
(:mod:`~fecam.fabric.bank`), key-to-bank placement
(:mod:`~fecam.fabric.shard`), the fabric itself with cross-bank
priority-encoder merge (:mod:`~fecam.fabric.fabric`), vectorized
multi-query batch search (:mod:`~fecam.fabric.batch`), and the LRU
query-result cache the store tier serves hits from
(:mod:`~fecam.fabric.cache`).

The fabric also owns the one entry record, :class:`Match`: what it
stores per word is what every search above it returns.
"""

from .bank import CamBank
from .batch import (BankBatchCounts, FusedBatchCounts, batch_count_matches,
                    fused_count_matches, normalize_queries, pack_queries)
from .cache import QueryCache
from .fabric import (BankTelemetry, FabricSearchResult, FabricStats, Match,
                     TcamFabric)
from .shard import HashSharding, RangeSharding, ShardPolicy

__all__ = [
    "TcamFabric", "Match", "FabricSearchResult", "FabricStats",
    "BankTelemetry",
    "CamBank",
    "ShardPolicy", "HashSharding", "RangeSharding",
    "QueryCache",
    "normalize_queries", "pack_queries",
    "batch_count_matches", "fused_count_matches",
    "BankBatchCounts", "FusedBatchCounts",
]
