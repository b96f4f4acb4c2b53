"""Adapters: fold the existing stats silos into one metrics registry.

The stack already keeps four disconnected telemetry silos —
:class:`~fecam.service.ServiceStats`, :class:`~fecam.store.StoreStats`,
:class:`~fecam.fabric.FabricStats`, and the engine-level cam counters
behind :class:`~fecam.functional.SearchStats` — each with its own
shape.  These adapters register *collect-time hooks* that read each
silo and mirror it into named, labeled registry series
(``fecam_service_queue_depth``,
``fecam_fabric_bank_occupancy{bank="3"}``, ...).  Nothing here touches
the request path: the silos stay the source of truth, and the mirror
refreshes only when a snapshot is collected (a scrape, a dump).

:func:`instrument` is the one-call entry point: hand it a
:class:`~fecam.service.SearchService` and it wires the service, its
store, and the store's backend (fabric banks and cams included) in one
go.  Every ``instrument_*`` returns an unregister callable.
"""

from __future__ import annotations

from typing import Callable, List

from .. import kernels as _kernels
from .registry import MetricsRegistry

__all__ = ["instrument", "instrument_service", "instrument_store",
           "instrument_fabric", "instrument_cam", "instrument_durable",
           "instrument_cluster", "BATCH_SIZE_BUCKETS"]

#: Buckets for the mirrored batch-size histogram: powers of two up to
#: the largest max_batch anyone realistically configures.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                      256.0, 512.0, 1024.0)

Unregister = Callable[[], None]


def instrument_service(service, registry: MetricsRegistry) -> Unregister:
    """Mirror a :class:`~fecam.service.SearchService`'s ServiceStats."""
    c_submitted = registry.counter(
        "fecam_service_submitted_total",
        "Requests accepted into the service queue.")
    c_served = registry.counter(
        "fecam_service_served_total",
        "Requests completed with a result.")
    c_failed = registry.counter(
        "fecam_service_failed_total",
        "Requests completed with an exception.")
    c_overloads = registry.counter(
        "fecam_service_overloads_total",
        "Submissions rejected by queue backpressure.")
    c_batches = registry.counter(
        "fecam_service_batches_total",
        "Dispatches issued to the store.")
    c_coalesced = registry.counter(
        "fecam_service_coalesced_total",
        "Requests served in a fused batch of size > 1.")
    c_direct = registry.counter(
        "fecam_service_direct_total",
        "Requests that dispatched alone.")
    c_writes = registry.counter(
        "fecam_service_writes_total",
        "Write transactions applied through the service.")
    g_queue_depth = registry.gauge(
        "fecam_service_queue_depth",
        "Requests waiting in the queue right now.")
    g_max_queue_depth = registry.gauge(
        "fecam_service_max_queue_depth",
        "High-water mark of the bounded request queue.")
    g_pending = registry.gauge(
        "fecam_service_pending",
        "Requests accepted but not yet completed.")
    g_generation = registry.gauge(
        "fecam_service_generation",
        "Store write-generation at the last snapshot.")
    g_p50 = registry.gauge(
        "fecam_service_p50_latency_seconds",
        "Windowed median request latency (latency reservoir).")
    g_p99 = registry.gauge(
        "fecam_service_p99_latency_seconds",
        "Windowed tail request latency (latency reservoir).")
    g_uptime = registry.gauge(
        "fecam_service_uptime_seconds",
        "Seconds since the service was constructed.")
    h_batch = registry.histogram(
        "fecam_service_batch_size",
        "Requests per dispatch batch (mirrored exact counts).",
        buckets=BATCH_SIZE_BUCKETS)

    def hook() -> None:
        stats = service.stats
        c_submitted.set_total(stats.submitted)
        c_served.set_total(stats.served)
        c_failed.set_total(stats.failed)
        c_overloads.set_total(stats.overloads)
        c_batches.set_total(stats.batches)
        c_coalesced.set_total(stats.coalesced)
        c_direct.set_total(stats.direct)
        c_writes.set_total(stats.writes)
        g_queue_depth.set(stats.queue_depth)
        g_max_queue_depth.set(stats.max_queue_depth)
        g_pending.set(stats.pending)
        g_generation.set(stats.generation)
        g_p50.set(stats.p50_latency)
        g_p99.set(stats.p99_latency)
        g_uptime.set(stats.uptime_s)
        h_batch.load(stats.batch_size_hist.items())

    return registry.on_collect(hook)


def instrument_store(store, registry: MetricsRegistry) -> Unregister:
    """Mirror a :class:`~fecam.store.CamStore`'s StoreStats."""
    c_searches = registry.counter(
        "fecam_store_searches_total",
        "Queries answered by the store, including cache hits.")
    c_array_searches = registry.counter(
        "fecam_store_array_searches_total",
        "Queries that actually fired the arrays.")
    c_writes = registry.counter(
        "fecam_store_writes_total",
        "Insert/update/delete operations applied.")
    c_cache_hits = registry.counter(
        "fecam_store_cache_hits_total",
        "Store-level query-cache hits.")
    c_cache_misses = registry.counter(
        "fecam_store_cache_misses_total",
        "Store-level query-cache misses.")
    c_energy = registry.counter(
        "fecam_store_energy_joules_total",
        "Joules spent by the arrays (searches + writes).")
    g_occupancy = registry.gauge(
        "fecam_store_occupancy", "Live entries in the store.")
    g_capacity = registry.gauge(
        "fecam_store_capacity", "Total rows across all banks.")
    g_hit_rate = registry.gauge(
        "fecam_store_cache_hit_rate", "Query-cache hit rate [0, 1].")
    g_worst_latency = registry.gauge(
        "fecam_store_worst_latency_seconds",
        "Worst single-query array latency observed.")
    g_generation = registry.gauge(
        "fecam_store_generation",
        "Monotonic write-generation of the store content.")
    g_kernel = registry.gauge(
        "fecam_kernel_backend",
        "Match-kernel backend in use (1 on the active backend's "
        "label, 0 elsewhere).", labelnames=("backend",))

    def hook() -> None:
        stats = store.stats
        active = _kernels.backend_name()
        for name in ("numpy", "compiled"):
            g_kernel.labels(backend=name).set(
                1.0 if name == active else 0.0)
        c_searches.set_total(stats.searches)
        c_array_searches.set_total(stats.array_searches)
        c_writes.set_total(stats.writes)
        c_cache_hits.set_total(stats.cache_hits)
        c_cache_misses.set_total(stats.cache_misses)
        c_energy.set_total(stats.energy_total)
        g_occupancy.set(stats.occupancy)
        g_capacity.set(stats.capacity)
        g_hit_rate.set(stats.cache_hit_rate)
        g_worst_latency.set(stats.worst_latency)
        g_generation.set(store.generation)

    return registry.on_collect(hook)


def instrument_fabric(fabric, registry: MetricsRegistry) -> Unregister:
    """Mirror a :class:`~fecam.fabric.TcamFabric`'s FabricStats,
    including the per-bank telemetry behind the paper's step-1
    early-termination story (labeled by ``bank``)."""
    c_searches = registry.counter(
        "fecam_fabric_searches_total",
        "Queries answered by the fabric (each one fires every bank).")
    c_energy = registry.counter(
        "fecam_fabric_energy_joules_total",
        "Joules spent across every bank.")
    g_occupancy = registry.gauge(
        "fecam_fabric_occupancy", "Live entries across all banks.")
    g_worst_latency = registry.gauge(
        "fecam_fabric_worst_latency_seconds",
        "Worst merged search latency observed.")
    g_bank_occupancy = registry.gauge(
        "fecam_fabric_bank_occupancy",
        "Live entries per bank.", labelnames=("bank",))
    c_bank_searches = registry.counter(
        "fecam_fabric_bank_searches_total",
        "Searches fired per bank.", labelnames=("bank",))
    c_bank_energy = registry.counter(
        "fecam_fabric_bank_energy_joules_total",
        "Joules spent per bank.", labelnames=("bank",))
    c_rows_examined = registry.counter(
        "fecam_fabric_rows_examined_total",
        "Rows examined per bank across all searches.",
        labelnames=("bank",))
    c_step1_eliminated = registry.counter(
        "fecam_fabric_step1_eliminated_total",
        "Rows resolved by step 1 per bank (early termination).",
        labelnames=("bank",))
    g_step1_miss_rate = registry.gauge(
        "fecam_fabric_step1_miss_rate",
        "Step-1 miss rate per bank [0, 1].", labelnames=("bank",))

    def hook() -> None:
        stats = fabric.stats
        c_searches.set_total(stats.searches)
        c_energy.set_total(stats.energy_total)
        g_occupancy.set(stats.occupancy)
        g_worst_latency.set(stats.worst_latency)
        for bank in stats.per_bank:
            label = str(bank.bank_id)
            g_bank_occupancy.labels(bank=label).set(bank.occupancy)
            c_bank_searches.labels(bank=label).set_total(bank.searches)
            c_bank_energy.labels(bank=label).set_total(bank.energy)
            c_rows_examined.labels(bank=label).set_total(
                bank.rows_examined)
            c_step1_eliminated.labels(bank=label).set_total(
                bank.step1_eliminated)
            g_step1_miss_rate.labels(bank=label).set(
                bank.step1_miss_rate)

    return registry.on_collect(hook)


def instrument_cam(cam, registry: MetricsRegistry,
                   bank: int = 0) -> Unregister:
    """Mirror one :class:`~fecam.functional.TernaryCAM`'s cumulative
    engine counters (the silo behind every per-search
    :class:`~fecam.functional.SearchStats`)."""
    c_searches = registry.counter(
        "fecam_cam_searches_total",
        "Array searches executed by the engine.", labelnames=("bank",))
    c_writes = registry.counter(
        "fecam_cam_writes_total",
        "Row writes executed by the engine.", labelnames=("bank",))
    c_energy = registry.counter(
        "fecam_cam_energy_joules_total",
        "Joules the engine charged this array.", labelnames=("bank",))
    label = str(bank)

    def hook() -> None:
        c_searches.labels(bank=label).set_total(cam.search_count)
        c_writes.labels(bank=label).set_total(cam.write_count)
        c_energy.labels(bank=label).set_total(cam.energy_spent)

    return registry.on_collect(hook)


def instrument_durable(store, registry: MetricsRegistry) -> Unregister:
    """Wire a :class:`~fecam.durable.DurableCamStore`'s persistence
    telemetry: WAL append/fsync and snapshot latency histograms (fed
    inline through the layer's callback taps), plus collect-time
    counters for records, bytes, fsyncs, snapshots, and the records
    replayed by the recovery that produced this store."""
    h_append = registry.histogram(
        "fecam_wal_append_seconds",
        "Wall time of one WAL record append (encode + write + flush).")
    h_fsync = registry.histogram(
        "fecam_wal_fsync_seconds",
        "Wall time of one WAL fsync (policy-dependent frequency).")
    h_snapshot = registry.histogram(
        "fecam_snapshot_duration_seconds",
        "Wall time of one arena snapshot (serialize + fsync + rename).")
    c_records = registry.counter(
        "fecam_wal_records_total", "WAL records appended.")
    c_bytes = registry.counter(
        "fecam_wal_bytes_total", "WAL bytes appended (frames + magic).")
    c_fsyncs = registry.counter(
        "fecam_wal_fsyncs_total", "WAL fsync calls issued.")
    c_snapshots = registry.counter(
        "fecam_snapshots_total", "Arena snapshots written.")
    c_replayed = registry.counter(
        "fecam_recovery_replayed_records_total",
        "WAL records replayed by the recovery that built this store.")
    g_snap_gen = registry.gauge(
        "fecam_snapshot_generation",
        "Write-generation of the newest snapshot on disk.")

    wal = store.wal
    prev_append = wal.on_append
    prev_fsync = wal.on_fsync
    prev_snapshot = store.on_snapshot

    # Inline taps chain rather than replace, so stacking adapters (or a
    # test harness tapping alongside) keeps everyone fed.
    def on_append(seconds: float, nbytes: int) -> None:
        h_append.observe(seconds)
        if prev_append is not None:
            prev_append(seconds, nbytes)

    def on_fsync(seconds: float) -> None:
        h_fsync.observe(seconds)
        if prev_fsync is not None:
            prev_fsync(seconds)

    def on_snapshot(seconds: float) -> None:
        h_snapshot.observe(seconds)
        if prev_snapshot is not None:
            prev_snapshot(seconds)

    wal.on_append = on_append
    wal.on_fsync = on_fsync
    store.on_snapshot = on_snapshot

    def hook() -> None:
        c_records.set_total(wal.appended_records)
        c_bytes.set_total(wal.appended_bytes)
        c_fsyncs.set_total(wal.fsyncs)
        c_snapshots.set_total(store.snapshots_taken)
        c_replayed.set_total(store.recovered_records)
        g_snap_gen.set(store.snapshot_generation)

    unhook = registry.on_collect(hook)

    def unregister() -> None:
        unhook()
        wal.on_append = prev_append
        wal.on_fsync = prev_fsync
        store.on_snapshot = prev_snapshot

    return unregister


def instrument_cluster(backend, registry: MetricsRegistry) -> Unregister:
    """Mirror a :class:`~fecam.cluster.ClusterBackend`'s per-worker
    telemetry, labeled by ``worker``: each worker's search counters,
    published generation, and liveness, gathered over the stats RPC at
    collect time, plus the writer's health.  Dead workers keep their
    last mirrored values and report ``alive`` 0."""
    g_alive = registry.gauge(
        "fecam_cluster_worker_alive",
        "1 while the worker process is serving, 0 once it has died.",
        labelnames=("worker",))
    c_restarts = registry.counter(
        "fecam_cluster_worker_restarts_total",
        "Times the worker was respawned after dying.",
        labelnames=("worker",))
    g_generation = registry.gauge(
        "fecam_cluster_worker_generation",
        "Published arena generation the worker last observed.",
        labelnames=("worker",))
    c_searches = registry.counter(
        "fecam_cluster_worker_searches_total",
        "Queries the worker served from its arena view.",
        labelnames=("worker",))
    c_energy = registry.counter(
        "fecam_cluster_worker_energy_joules_total",
        "Joules the worker's banks charged for searches.",
        labelnames=("worker",))
    c_rows_examined = registry.counter(
        "fecam_cluster_worker_rows_examined_total",
        "Rows the worker examined across all searches.",
        labelnames=("worker",))
    c_step1_eliminated = registry.counter(
        "fecam_cluster_worker_step1_eliminated_total",
        "Rows the worker resolved by step 1 (early termination).",
        labelnames=("worker",))
    g_worst_latency = registry.gauge(
        "fecam_cluster_worker_worst_latency_seconds",
        "Worst modeled search latency the worker observed.",
        labelnames=("worker",))
    g_workers = registry.gauge(
        "fecam_cluster_workers",
        "Worker processes currently alive.")
    g_writer_ok = registry.gauge(
        "fecam_cluster_writer_ok",
        "1 while the writer accepts mutations, 0 after writer failure.")

    def hook() -> None:
        telemetry = backend.worker_telemetry()
        alive = 0
        for row in telemetry:
            label = str(row["worker_id"])
            is_alive = bool(row.get("alive"))
            alive += int(is_alive)
            g_alive.labels(worker=label).set(1.0 if is_alive else 0.0)
            c_restarts.labels(worker=label).set_total(
                row.get("restarts", 0))
            g_generation.labels(worker=label).set(
                row.get("generation", 0))
            c_searches.labels(worker=label).set_total(
                row.get("searches", 0))
            c_energy.labels(worker=label).set_total(
                row.get("energy", 0.0))
            c_rows_examined.labels(worker=label).set_total(
                row.get("rows_examined", 0))
            c_step1_eliminated.labels(worker=label).set_total(
                row.get("step1_eliminated", 0))
            g_worst_latency.labels(worker=label).set(
                row.get("worst_latency", 0.0))
        g_workers.set(alive)
        g_writer_ok.set(0.0 if backend.writer_failed else 1.0)

    return registry.on_collect(hook)


def instrument(obj, registry: MetricsRegistry) -> Unregister:
    """Wire a whole serving object graph into ``registry``.

    Dispatches on type and recurses: a service instruments itself plus
    its store; a store instruments itself plus its backend (a fabric
    brings every bank's cam along).  Returns one unregister callable
    covering everything wired.
    """
    # Imports are local so `fecam.obs` never circularly imports the
    # layers it observes (they import `fecam.obs.trace` for spans).
    from ..cluster.backend import ClusterBackend
    from ..durable.store import DurableCamStore
    from ..functional.engine import TernaryCAM
    from ..fabric.fabric import TcamFabric
    from ..service.service import SearchService
    from ..store.fabric import FabricBackend
    from ..store.store import CamStore

    unregisters: List[Unregister] = []
    if isinstance(obj, SearchService):
        unregisters.append(instrument_service(obj, registry))
        unregisters.append(instrument(obj.store, registry))
    elif isinstance(obj, CamStore):
        unregisters.append(instrument_store(obj, registry))
        if isinstance(obj, DurableCamStore):
            unregisters.append(instrument_durable(obj, registry))
        backend = obj.backend
        if isinstance(backend, ClusterBackend):
            # The writer-side fabric is the source of truth for content
            # and write energy; worker search counters come through the
            # per-worker series.
            unregisters.append(instrument(backend.inner.fabric, registry))
            unregisters.append(instrument_cluster(backend, registry))
        elif isinstance(backend, FabricBackend):
            unregisters.append(instrument(backend.fabric, registry))
    elif isinstance(obj, TcamFabric):
        unregisters.append(instrument_fabric(obj, registry))
        for bank in obj.banks:
            unregisters.append(
                instrument_cam(bank.cam, registry, bank=bank.bank_id))
    elif isinstance(obj, TernaryCAM):
        unregisters.append(instrument_cam(obj, registry))
    else:
        raise TypeError(
            f"cannot instrument {type(obj).__name__}; expected a "
            f"SearchService, CamStore, TcamFabric, or TernaryCAM")

    def unregister_all() -> None:
        for unregister in unregisters:
            unregister()

    return unregister_all
