"""Which workload reports which metric, and the bounds ``compare`` holds
the end-to-end metrics to that ``BENCHMARK.json`` cannot carry.

``BENCHMARK.json`` lists under ``end_to_end`` only what every workload
reports (the driver reads every one of them from every run).  The other
end-to-end metrics exist on the workloads that define them, so they sit
in its ``per_layer`` list, which has no bounds; theirs are here.  Units
and directions are never restated: they come from ``BENCHMARK.json``.
"""

from typing import Dict, FrozenSet, List

WORKLOADS = ("batch_lookup", "masked_scan", "serve_reads", "serve_mixed",
             "cluster_serve", "paper_fom")
_ALL = frozenset(WORKLOADS)
_SERVING = _ALL - {"paper_fom"}
_PRICED = _SERVING - {"serve_mixed"}     # cached results carry no energy

#: Regression bounds of the end-to-end metrics outside ``end_to_end`` of
#: ``BENCHMARK.json`` (share of the parent's median; 0 = must repeat to
#: ``run.EXACT``: simulated values and the failure ratio).
BOUNDS: Dict[str, float] = {
    "burst_p95_ms": 0.10,
    "single_p50_ms": 0.08,
    "single_p95_ms": 0.10,
    "write_ops_s": 0.08,
    "write_p50_ms": 0.10,
    "recover_s": 0.10,
    "energy_per_query_fj": 0.0,
    "fom_eval_s": 0.08,
    "table4_latency_rel_err": 0.0,
    "table4_energy_rel_err": 0.0,
    "failed_ratio": 0.0,
}

#: Name prefix -> the workloads that report every metric under it; the
#: longest matching prefix decides.
_REPORTED_BY: Dict[str, FrozenSet[str]] = {
    "setup_s": _ALL, "read_qps": _ALL, "burst_": _ALL, "peak_rss_mb": _ALL,
    "failed_ratio": _ALL,
    "single_": frozenset({"serve_reads"}),
    "write_ops_s": frozenset({"serve_mixed", "cluster_serve"}),
    "write_p50_ms": frozenset({"serve_mixed"}),
    "recover_s": frozenset({"serve_mixed"}),
    "energy_per_query_fj": _PRICED,
    "fom_eval_s": frozenset({"paper_fom"}),
    "table4_": frozenset({"paper_fom"}),
    "planes.": _SERVING, "kernels.": _SERVING, "fabric.": _SERVING,
    "store.": _SERVING,
    "store.cache": frozenset({"serve_mixed"}),
    "store.array_": frozenset({"batch_lookup"}),
    "store.fabric1_": frozenset({"batch_lookup"}),
    "service.": frozenset({"serve_reads", "serve_mixed"}),
    "service.ns_per_query": _SERVING - {"batch_lookup", "masked_scan"},
    "service.tax_ns_per_query": _SERVING - {"batch_lookup", "masked_scan"},
    "cluster.": frozenset({"cluster_serve"}),
    "durable.": frozenset({"serve_mixed"}),
    "metrics.": frozenset({"paper_fom"}),
    "metrics.step1_miss_rate_assumed": _ALL,
    "metrics.energy_delta_vs_assumed": _PRICED,
    "obs.": _SERVING,
    "gen.client_threads": _ALL,
    "gen.ladder_top_vs_read_qps": _SERVING,
    "gen.writer_late_ms_p95": frozenset({"serve_mixed"}),
}


def reported_by(name: str) -> FrozenSet[str]:
    """The workloads that must report ``name`` (empty: nobody does)."""
    prefixes = [p for p in _REPORTED_BY if name.startswith(p)]
    return _REPORTED_BY[max(prefixes, key=len)] if prefixes else frozenset()


def gates(spec: dict) -> List[dict]:
    """Every end-to-end metric with its bound: the ``end_to_end`` entries
    of ``BENCHMARK.json`` as they are, then the entries of its
    ``per_layer`` list that ``BOUNDS`` names."""
    return list(spec["end_to_end"]) + [
        dict(entry, bound=BOUNDS[entry["name"]])
        for entry in spec["per_layer"] if entry["name"] in BOUNDS]
