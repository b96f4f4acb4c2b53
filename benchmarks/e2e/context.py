"""What one workload run carries around: its sizes and what it accumulates."""

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import data
from data import Geometry
from harness import (SLICE_S, Phase, Samples, Spans, describe,
                     percentile)

CLIENT_THREADS = min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class Scale:
    """Sizes of a run: the full benchmark or the ``--smoke`` miniature."""

    small: Geometry
    large: Geometry
    pool: int
    setups: int
    cluster_setups: int
    warm_min_s: float
    warm_max_s: float
    settle_s: float
    ladder_batches: int
    ladder_door_s: float
    short_run_s: float          # a multi-client door of the traced run
    fig7_lengths: Tuple[int, ...]
    writes_per_window_s: int    # closed-loop write ops per second of --seconds
    verify_prefix: int
    probe_repeats: int
    churn_keys: int             # serve_mixed: rules the writer may rewrite


FULL = Scale(small=data.GEOMETRY_S, large=data.GEOMETRY_L,
             pool=data.POOL_SIZE, setups=5, cluster_setups=3,
             warm_min_s=3.0, warm_max_s=6.0, settle_s=1.0, ladder_batches=64,
             ladder_door_s=0.4, short_run_s=1.0,
             fig7_lengths=(16, 32, 64, 128), writes_per_window_s=4000,
             verify_prefix=4096, probe_repeats=30, churn_keys=256)
SMOKE = Scale(small=data.GEOMETRY_SMOKE, large=data.GEOMETRY_SMOKE,
              pool=2048, setups=2, cluster_setups=1, warm_min_s=0.3,
              warm_max_s=1.0, settle_s=0.2, ladder_batches=4,
              ladder_door_s=0.05, short_run_s=0.3, fig7_lengths=(16, 32),
              writes_per_window_s=200, verify_prefix=512, probe_repeats=5,
              churn_keys=16)


class Run:
    """Everything one workload run accumulates."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, scale: Scale, scratch: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.scale = scale
        self.scratch = scratch
        self.rng = np.random.default_rng(seed)
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.phases: Dict[str, Phase] = {}
        self.spans = Spans(False)
        self.service_traces: List[dict] = []
        self.client_threads = 1
        #: Peak resident set of worker processes, summed (cluster_serve).
        self.workers_rss_kb = 0
        self._dirs = 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase(name))

    def say(self, text: str) -> None:
        print(f"[{self.workload}] {text}", flush=True)

    def fresh_dir(self, label: str) -> str:
        """A new empty directory inside the run's scratch directory (which
        lives under the benchmark's ``out/``, inside the checkout)."""
        self._dirs += 1
        path = os.path.join(self.scratch, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def put_read(self, samples: Samples, label: str,
                 rate: Optional[float] = None) -> None:
        """The read phase's end-to-end metrics, in plain wall-clock time.
        ``rate`` replaces the median per-slice rate where a call is too
        long for slices to mean anything."""
        if rate is None:
            rate = samples.median_rate()
        latencies_ms = [s * 1e3 for s in samples.latencies]
        self.put("read_qps", rate, "1/s")
        self.put("burst_p50_ms", percentile(latencies_ms, 50), "ms")
        self.put("burst_p95_ms", percentile(latencies_ms, 95), "ms")
        slices = sorted(samples.slice_rates()) or [rate]
        self.say(f"{label}: {rate:,.1f} lookups/s (mean "
                 f"{samples.mean_rate():,.1f} over {samples.elapsed:.1f} s, "
                 f"{SLICE_S} s slices from {slices[0]:,.0f} to "
                 f"{slices[-1]:,.0f}); one call "
                 f"{describe(samples.latencies)}")
