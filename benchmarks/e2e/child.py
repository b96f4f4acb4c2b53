"""Run ONE workload in this process and print its result as JSON.

``run.py`` starts this file in a fresh subprocess per workload (so no
workload inherits another's warmed caches, thread pools or heap) and
watches it.  The last line of standard output is one JSON object with
every metric the run measured, the per-phase attempted/failed counts
and the host fingerprint; everything before it is the human report.

Every layer is measured from outside, by timing calls into its public
functions; nothing in ``src/fecam`` knows it is being benchmarked, and
the seed never reaches it: the program only ever sees generated words
and queries.
"""

import argparse
import faulthandler
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from context import CLIENT_THREADS, FULL, SMOKE, Run  # noqa: E402
from paper import PaperFom  # noqa: E402
from serving import BatchLookup, MaskedScan  # noqa: E402
from services import (CLUSTER_START, ClusterServe, ServeMixed,  # noqa: E402
                      ServeReads)

from fecam import kernels  # noqa: E402
from fecam.kernels import build as kernel_build  # noqa: E402


WORKLOAD_CLASSES = {"batch_lookup": BatchLookup, "masked_scan": MaskedScan,
                    "serve_reads": ServeReads, "serve_mixed": ServeMixed,
                    "cluster_serve": ClusterServe, "paper_fom": PaperFom}


def fingerprint() -> Dict[str, object]:
    compiler = kernel_build.find_compiler()
    version = ""
    library = ""
    openmp = False
    if compiler and kernels.backend_name() == "compiled":
        try:
            version = subprocess.run(
                [compiler, "--version"], capture_output=True, text=True,
                timeout=10).stdout.splitlines()[0]
            path = kernel_build.build_library()
            library = os.path.basename(path)
            with open(path, "rb") as handle:
                openmp = b"GOMP_parallel" in handle.read()
        except (OSError, IndexError, subprocess.TimeoutExpired):
            pass
    return {
        "kernel_backend": kernels.backend_name(),
        "compiler": f"{compiler} ({version})" if compiler else None,
        "compiler_flags": "-O3 -fPIC -shared + first of the "
                          "[-fopenmp -march=native] ladder that compiles",
        "kernel_library": library,
        "kernel_openmp": openmp,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cluster_start_method": CLUSTER_START,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "client_threads_max": CLIENT_THREADS,
    }


def peak_rss_mb(run: Run) -> float:
    """Peak resident set of this process plus the peaks of the worker
    processes its service ran (read from ``/proc`` while they lived)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + run.workers_rss_kb) / 1024.0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans-out")
    parser.add_argument("--watchdog", type=float, default=150.0)
    args = parser.parse_args(argv)

    # A wedge (the fork + OpenMP deadlock, a never-closing seqlock window)
    # must end the run with every thread's traceback, not hang it.
    faulthandler.dump_traceback_later(args.watchdog, exit=True)
    started = time.perf_counter()
    os.makedirs(args.scratch, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              SMOKE if args.smoke else FULL, args.scratch)
    WORKLOAD_CLASSES[args.workload](run).execute()
    faulthandler.cancel_dump_traceback_later()

    attempted = sum(p.attempted for p in run.phases.values())
    failed = sum(p.failed for p in run.phases.values())
    run.put("peak_rss_mb", peak_rss_mb(run), "MB")
    run.put("failed_ratio", failed / max(attempted, 1), "ratio")
    run.put("gen.client_threads", run.client_threads, "count")
    for name, phase in run.phases.items():
        run.say(f"phase {name}: attempted {phase.attempted}, succeeded "
                f"{phase.attempted - phase.failed}, failed {phase.failed}"
                + (f" {phase.errors}" if phase.errors else ""))
    if args.spans_out and run.traced:
        with open(args.spans_out, "w") as handle:
            for record in run.spans.as_records():
                handle.write(json.dumps(record) + "\n")
            for trace in run.service_traces:
                handle.write(json.dumps({"service_trace": trace}) + "\n")
        self_times = run.spans.self_times()
        run.say("self time by span: " + ", ".join(
            f"{name} {seconds:.3f}s" for name, seconds
            in sorted(self_times.items(), key=lambda kv: -kv[1])[:8]))
    shutil.rmtree(args.scratch, ignore_errors=True)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": failed,
        "phases": {name: phase.as_dict()
                   for name, phase in run.phases.items()},
        "metrics": run.metrics, "fingerprint": fingerprint(),
        "wall_s": time.perf_counter() - started}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
