"""fecam — reproduction of the DAC 2023 paper
"Compact and High-Performance TCAM Based on Scaled Double-Gate FeFETs".

Layered public API:

* :mod:`fecam.spice` — modified-nodal-analysis circuit simulator.
* :mod:`fecam.devices` — compact models: EKV MOSFET, Preisach/KAI
  ferroelectric, SG- and DG-FeFET.
* :mod:`fecam.cam` — the paper's contribution: 1.5T1Fe TCAM cells (SG/DG),
  the 2FeFET baselines, word/array circuits, write and two-step-search
  controllers with early termination.
* :mod:`fecam.arch` — Eva-CAM-style array evaluation: areas, wires, shared
  HV drivers, figures of merit.
* :mod:`fecam.metrics` — **the design-evaluation API**: one frozen
  :class:`~fecam.metrics.DesignPoint` evaluated by
  :func:`~fecam.metrics.evaluate` at selectable fidelity (``"paper"`` /
  ``"analytical"`` / ``"spice"``) into one canonical
  :class:`~fecam.metrics.Fom`, memoized in a shared registry, with a
  columnar :func:`~fecam.metrics.sweep` for design-space grids.
* :mod:`fecam.planes` — **the bitplane arena**: one
  :class:`~fecam.planes.TernaryPlanes` storage object (value/care/valid
  planes) under engine, fabric, and store, with write-generation-cached
  derived planes (compressed step-1/step-2 planes, candidate index) and
  zero-copy per-bank row-slice views of a fabric's contiguous arena.
* :mod:`fecam.functional` — fast behavioral ternary-match engine annotated
  with circuit-tier energy/latency.
* :mod:`fecam.fabric` — sharded multi-bank TCAM fabric: free-row bank
  lifecycle, hash/range sharding, vectorized batch search, cross-bank
  priority-encoder merge; owns the one entry record
  (:class:`~fecam.store.Match`).
* :mod:`fecam.store` — **the associative-store API**: one
  :class:`~fecam.store.CamStore` facade with a typed
  :class:`~fecam.store.StoreConfig` and a uniform batch-first result
  model (:class:`~fecam.store.Query` / :class:`~fecam.store.Match` /
  :class:`~fecam.store.StoreStats`) over the sharded fabric — one
  bank or many — so scaling is a config edit.
* :mod:`fecam.service` — **the concurrent serving tier**: a
  :class:`~fecam.service.SearchService` micro-batches concurrent
  requests into fused batch searches over a store, with snapshot
  isolation (reader-writer locking, write-generation-tagged results),
  bounded-queue backpressure, sync and ``asyncio`` front doors, and
  :class:`~fecam.service.ServiceStats` telemetry.
* :mod:`fecam.durable` — **persistence and live reconfiguration**: a
  :class:`~fecam.durable.DurableCamStore` journaling every mutation to
  a CRC-framed write-ahead log, generation-keyed arena snapshots,
  bit-identical crash :func:`~fecam.durable.recover`, and online
  :func:`~fecam.durable.reshard` of a served store's bank fan-out with
  a bounded write-locked pause.
* :mod:`fecam.obs` — **unified observability**: one
  :class:`~fecam.obs.MetricsRegistry` (counters/gauges/histograms)
  folding the four stats silos into a named, labeled snapshot with
  Prometheus text / JSON-lines exporters, an optional ``/metrics``
  HTTP thread, sampled per-request tracing with per-stage spans
  (queue → coalesce → lock → kernel → freeze), and a slow-query log —
  all bundled into :class:`~fecam.obs.Observability` and accepted by
  ``SearchService(obs=...)``.
* :mod:`fecam.apps` — application substrates (router LPM, associative
  cache, packet classifier, genomics seed matching, Hamming /
  one-shot matching), all served by :class:`~fecam.store.CamStore`;
  the router and classifier can serve concurrent traffic via
  ``serve()``.

Quickstart::

    import fecam

    store = fecam.CamStore(fecam.StoreConfig(width=64, rows=64))
    store.insert("01X" * 21 + "0", key="rule-0")
    hit = store.search_first("010" * 21 + "0")      # -> Match(key="rule-0")

Scaling to a sharded, cached 16-bank fabric is a config edit::

    store = fecam.CamStore(fecam.StoreConfig(
        width=64, rows=16384, banks=16, cache_size=4096))
    store.insert("01X" * 21 + "0", key="rule-0")
    results = store.search_batch(["010" * 21 + "0"] * 1000)
"""

from .designs import DesignKind
from . import planes  # noqa: F401
from . import spice  # noqa: F401
from . import devices  # noqa: F401
from . import cam  # noqa: F401
from . import arch  # noqa: F401
from . import metrics  # noqa: F401
from . import functional  # noqa: F401
from . import fabric  # noqa: F401
from . import store  # noqa: F401
from . import service  # noqa: F401
from . import durable  # noqa: F401
from . import obs  # noqa: F401
from . import apps  # noqa: F401
from .fabric import TcamFabric  # noqa: F401  (system tier, raw fabric)
from .metrics import (DesignPoint, Fom, evaluate,  # noqa: F401
                      sweep)
from .store import (CamStore, Match, Query, StoreConfig,  # noqa: F401
                    StoreStats)
from .service import (SearchService, ServedResult,  # noqa: F401
                      ServiceStats)

__version__ = "1.3.0"

__all__ = ["DesignKind", "CamStore", "StoreConfig", "Query", "Match",
           "StoreStats", "TcamFabric", "DesignPoint", "Fom", "evaluate",
           "sweep", "SearchService", "ServedResult", "ServiceStats",
           "planes", "spice", "devices", "cam", "arch", "metrics",
           "functional", "fabric", "store", "service", "durable", "obs",
           "apps", "__version__"]
