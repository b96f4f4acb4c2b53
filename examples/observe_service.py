"""Observability demo: metrics, sampled traces, and a /metrics scrape.

One ``SearchService`` serves a batch of lookups with the full
``fecam.obs`` stack attached:

* every stats silo (service, store, fabric banks, engine cams) mirrored
  into one :class:`~fecam.obs.MetricsRegistry` and scraped over HTTP as
  Prometheus text exposition;
* a 1-in-8 sampled tracer writing per-request stage timelines (queue
  wait, coalesce wait, lock wait, kernel, result freeze) as JSON lines;
* a slow-query log catching requests over a latency threshold.

The script finishes by checking the traces the way the obs tests do:
every sampled request's stage durations must sum to within tolerance
of its end-to-end latency.

Run:  PYTHONPATH=src python examples/observe_service.py
"""

import io
import json
import random
import urllib.request

from fecam import CamStore, SearchService, StoreConfig
from fecam.obs import (EveryN, JsonLinesSink, Observability, SlowQueryLog,
                       Tracer, lint_prometheus)

WIDTH = 32
ROWS = 1024
LOOKUPS = 512
SAMPLE_EVERY = 8
STAGES = ("queue", "coalesce", "lock_wait", "kernel", "freeze")


def build_store() -> CamStore:
    rng = random.Random(2023)
    store = CamStore(StoreConfig(width=WIDTH, rows=ROWS, banks=4,
                                 fidelity="analytical"))
    words = ["".join(rng.choice("01X") for _ in range(WIDTH))
             for _ in range(ROWS // 2)]
    store.insert_many(words, keys=[f"rule-{i}" for i in range(len(words))])
    return store


def main() -> None:
    rng = random.Random(7)
    queries = ["".join(rng.choice("01") for _ in range(WIDTH))
               for _ in range(LOOKUPS)]

    trace_buf = io.StringIO()
    obs = Observability(
        tracer=Tracer(EveryN(SAMPLE_EVERY), JsonLinesSink(trace_buf)),
        slow_log=SlowQueryLog(0.25, JsonLinesSink(io.StringIO())))

    with obs, SearchService(build_store(), max_batch=128,
                            max_wait=2e-3, obs=obs) as service:
        obs.bind_service(service)
        service.search_many(queries)

        # -- scrape the live /metrics endpoint like Prometheus would --
        server = obs.start_http()
        with urllib.request.urlopen(server.url, timeout=10) as resp:
            exposition = resp.read().decode()
        problems = lint_prometheus(exposition)
        assert not problems, problems

        print(f"scraped {server.url}: "
              f"{len(exposition.splitlines())} exposition lines, "
              f"lint clean")
        for needle in ("fecam_service_served_total",
                       "fecam_store_searches_total",
                       'fecam_fabric_bank_searches_total{bank="0"}',
                       'fecam_cam_searches_total{bank="0"}'):
            line = next(l for l in exposition.splitlines()
                        if l.startswith(needle))
            print(f"  {line}")

    # -- replay the sampled traces: stages must explain the latency --
    traces = [json.loads(line)
              for line in trace_buf.getvalue().splitlines()]
    assert traces, "sampling 1-in-%d produced no traces" % SAMPLE_EVERY
    print(f"\n{len(traces)} traces sampled (1 in {SAMPLE_EVERY} of "
          f"{LOOKUPS} requests)")
    for trace in traces:
        by_stage = {span["name"]: span["duration_s"]
                    for span in trace["spans"]}
        stage_sum = sum(by_stage.get(name, 0.0) for name in STAGES)
        assert stage_sum <= trace["duration_s"] * 1.05 + 1e-6, (
            f"trace {trace['trace_id']}: stages sum to {stage_sum}, "
            f"e2e is {trace['duration_s']}")

    sample = traces[len(traces) // 2]
    print(f"trace #{sample['trace_id']} "
          f"(batch of {sample['attrs']['batch_size']}, "
          f"e2e {sample['duration_s'] * 1e6:.0f}us):")
    for span in sample["spans"]:
        if span["name"] in STAGES:
            print(f"  {span['name']:>9}: "
                  f"{span['duration_s'] * 1e6:8.1f}us "
                  f"(+{span['start_s'] * 1e6:.1f}us)")
    print("every trace's stages fit inside its end-to-end span")


if __name__ == "__main__":
    main()
