"""The workloads behind a service: ``serve_reads``, ``serve_mixed`` and
``cluster_serve``."""

import os
import pickle
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

from context import CLIENT_THREADS, Run
from data import (FILL, expected_matches, make_queries, make_table,
                  query_strings, random_words, ternary_match)
from harness import (Batch, Phase, Samples, batches_of, describe, drive,
                     median_time, percentile, seconds_of)
from serving import Serving, concat, door, load, matches_of, store_config

from fecam import kernels
from fecam.cluster import ClusterService
from fecam.durable import DurabilityConfig, DurableCamStore, recover
from fecam.obs import EveryN, Observability, Tracer
from fecam.service import SearchService
from fecam.store import CamStore

CLUSTER_WORKERS = 2
CLUSTER_START = "spawn"   # explicit: fork + OpenMP can wedge the workers
WRITER_RATE = 200.0       # open-loop ops/s beside the reader (serve_mixed)
CHURN_LENGTHS = (17, 18, 19, 20)   # short tails: rewritten rules keep matching
CACHE_SIZE = 4096         # the pool is 8x the cache
ZIPF_S = 1.1
ZIPF_POOL_MULTIPLE = 4    # the skewed stream is this many pools long
#: Sampling period of the service's own tracer in the traced run.  At 1
#: the tracer's bookkeeping for a 256-request drain (three span records
#: per request, taken after the read lock and before the kernel span
#: opens) is itself ~15 % of request latency that no stage span covers;
#: at the tracer's default period the stages cover > 99 %.
TRACE_EVERY = 128
#: How many traces of the service's own tracer are kept for the span file
#: (every trace still feeds the stage statistics).
KEPT_TRACES = 2000


class ServeReads(Serving):
    """3. The same stream through the micro-batcher, futures and RW lock."""

    door_name = "service.search_many"
    batch = 128
    clients = CLIENT_THREADS
    read_phase = "pipelined"
    read_share = 2.0 / 3.0
    upper_doors = ("service",)
    use_cache = False

    def __init__(self, run: Run):
        super().__init__(run)
        self.service = None     # see live()

    def build(self):
        store = self.build_store()
        return store, self.service_over(store)

    def build_store(self) -> CamStore:
        return self.quiet_store()

    def service_over(self, store, obs=None) -> SearchService:
        return SearchService(store, max_batch=256, max_wait=0,
                             use_cache=self.use_cache, obs=obs)

    def close(self, built) -> None:
        built[1].close()
        if self.service is not None:
            self.service.close()

    def search(self, built):
        return built[1].search_many

    def call(self, built):
        return super().call(self.live(built))

    def traced_door(self, built):
        """A second service over the same store with the service's own
        tracer switched on (``obs=`` is a public argument)."""
        store, service = built
        service.close()
        self.stages = StageSink(self.run)
        obs = Observability(tracer=Tracer(EveryN(TRACE_EVERY), self.stages))
        return store, self.service_over(store, obs)

    def after_traced_read(self, traced) -> None:
        run = self.run
        store, service = traced
        stats = service.stats
        service.close()
        run.put("service.mean_batch_size", stats.mean_batch_size, "count")
        run.put("service.coalesced_ratio", stats.coalesced_ratio, "ratio")
        run.put("service.max_queue_depth", stats.max_queue_depth, "count")
        run.put("service.overloads", stats.overloads, "count")
        self.stages.put_metrics()

    def live(self, built):
        """The (store, service) pair in use: once the first service has
        been closed (the traced read phase replaces it) a fresh untraced
        one is opened on demand — after the ladder, whose lower doors
        must not share the process with a second OpenMP team."""
        if built[1].closed and self.service is None:
            self.service = self.service_over(built[0])
        return built[0], self.service or built[1]

    def energy_of_prefix(self, built) -> None:
        super().energy_of_prefix(self.live(built))

    def other_phases(self, built, seconds: float) -> None:
        """Phase ``single``: every client keeps ONE ``search()`` in flight,
        the per-request overhead that batching hides."""
        run = self.run
        _store, service = self.live(built)
        singles = [batches_of(*self.client_share(c), 1)
                   for c in range(self.clients)]
        call = door("service.search",
                    lambda queries: [service.search(queries[0])],
                    self.hydrate, run.spans)
        samples = drive(call, singles, seconds, run.phase("single"),
                        check=self.check)
        latencies_ms = [s * 1e3 for s in samples.latencies]
        run.put("single_p50_ms", percentile(latencies_ms, 50), "ms")
        run.put("single_p95_ms", percentile(latencies_ms, 95), "ms")
        run.say(f"single: {samples.median_rate():,.0f} lookups/s; one "
                f"search() {describe(samples.latencies)}")


class StageSink:
    """Sink of the service's tracer: folds every trace into per-stage
    duration samples as it arrives and keeps the first few whole."""

    STAGES = ("queue", "coalesce", "lock_wait", "kernel", "freeze")

    def __init__(self, run: Run):
        self.run = run
        self.durations: Dict[str, List[float]] = {s: [] for s in self.STAGES}
        self.staged = 0.0
        self.total = 0.0
        self.count = 0

    def write(self, trace: dict) -> None:
        self.count += 1
        self.total += trace["duration_s"]
        for span in trace["spans"]:
            if span["parent"] == 1 and span["name"] in self.durations:
                self.durations[span["name"]].append(span["duration_s"])
                self.staged += span["duration_s"]
        if len(self.run.service_traces) < KEPT_TRACES:
            self.run.service_traces.append(trace)

    def put_metrics(self) -> None:
        for stage, samples in self.durations.items():
            self.run.put(f"service.{stage}_ms_p50",
                         percentile(samples, 50) * 1e3, "ms")
        coverage = self.staged / self.total if self.total else 0.0
        self.run.put("service.span_coverage", coverage, "ratio")
        self.run.say(f"service tracer: {self.count} traces, stage spans "
                     f"cover {coverage:.4f} of request latency")


class ServeMixed(ServeReads):
    """4. Writes beside reads: durable store, query cache on, Zipf-skewed
    draws, an open-loop writer at 200 ops/s on a reserved churn range."""

    clients = 1
    read_phase = "mixed"
    read_share = 0.7
    use_cache = True
    hydrate = staticmethod(matches_of)

    def prepare(self) -> None:
        run = self.run
        n_static = int(self.geo.rows * FILL) - run.scale.churn_keys
        self.static, tops = make_table(run.rng, n_static)
        self.churn, _ = make_table(run.rng, run.scale.churn_keys,
                                   key_base=n_static,
                                   exclude_tops=tops, lengths=CHURN_LENGTHS)
        self.table = concat([self.static, self.churn])
        # Nine tenths of the pool are ordinary router queries; one tenth
        # fall under the churn families' /16 tags, so reads keep meeting
        # the entries the writer rewrites.
        n_churn_queries = run.scale.pool // 10
        bits = np.concatenate([
            make_queries(run.rng, self.static,
                         run.scale.pool - n_churn_queries),
            make_queries(run.rng, self.churn, n_churn_queries,
                         hit_share=1.0)])
        bits = bits[run.rng.permutation(len(bits))]
        self.queries = query_strings(bits)
        # The static region is checked exactly; a churn-region match can
        # only be judged well-formed, because the writer races the reader.
        self.expected = expected_matches(self.static, bits)
        self.check = self.mixed_check
        self.streams = self.make_streams()

    def make_streams(self) -> List[List[Batch]]:
        """Zipf(1.1)-skewed draws from the pool, hottest queries chosen
        by a seeded shuffle."""
        rng = self.run.rng
        pool = len(self.queries)
        weights = np.arange(1, pool + 1, dtype=np.float64) ** -ZIPF_S
        hot = rng.permutation(pool)
        n_batches = ZIPF_POOL_MULTIPLE * pool // self.batch
        draws = hot[rng.choice(pool, size=n_batches * self.batch,
                               p=weights / weights.sum())].tolist()
        return [batches_of([self.queries[i] for i in draws],
                           [self.expected[i] for i in draws], self.batch)]

    def mixed_check(self, queries, got, expected) -> int:
        n_static = len(self.static)
        wrong = 0
        for query, matches, want in zip(queries, got, expected):
            ok = [m.key for m in matches if m.key < n_static] == want
            ok = ok and all(m.key < n_static or ternary_match(m.word, query)
                            for m in matches)
            ok = ok and all(a.priority <= b.priority
                            for a, b in zip(matches, matches[1:]))
            wrong += not ok
        return wrong

    def build_store(self) -> DurableCamStore:
        self.directory = self.run.fresh_dir("durable")
        store = DurableCamStore(
            store_config(self.geo, cache_size=CACHE_SIZE),
            durability=DurabilityConfig(directory=self.directory,
                                        fsync="interval"))
        load(store, self.table)
        return store

    def close(self, built) -> None:
        super().close(built)
        built[0].close()

    # -- the writer --------------------------------------------------------------

    def churn_ops(self, count: int) -> List[tuple]:
        """Seeded op list: of every 20 ops 14 are ``update`` and 3 are a
        ``delete`` followed by the ``insert`` of the same key (70 % / 30 %),
        so a given count always journals the same number of records."""
        rng = self.run.rng
        picks = rng.integers(0, len(self.churn), size=count)
        words = random_words(rng, self.churn.bits[picks],
                             self.churn.lengths[picks])
        ops = []
        for i in range(count):
            slot = i % 20
            if slot < 14:
                ops.append(("update", self.churn.keys[picks[i]], words[i]))
            elif slot % 2 == 0:
                ops.append(("delete", self.churn.keys[picks[i]]))
            else:
                pick = picks[i - 1]
                ops.append(("insert", self.churn.keys[pick], words[i],
                            self.churn.priorities[pick]))
        return ops

    def read(self, built, seconds: float, streams) -> Samples:
        """Phase ``mixed``: the reader beside the paced writer."""
        run = self.run
        store, service = self.live(built)
        ops = self.churn_ops(int(seconds * WRITER_RATE) + 40)
        stop = threading.Event()
        timings: List[Tuple[float, float, float]] = []
        writer = threading.Thread(
            target=paced_writer, name="e2e-writer", daemon=True,
            args=(service, ops, WRITER_RATE, stop, run.phase("mixed.writes"),
                  timings))
        before = store.stats
        writer.start()
        try:
            samples = super().read(built, seconds, streams)
        finally:
            stop.set()
            writer.join()
        after = store.stats
        if not run.spans.enabled:
            lookups = (after.cache_hits - before.cache_hits
                       + after.cache_misses - before.cache_misses)
            run.put("store.cache_hit_rate",
                    (after.cache_hits - before.cache_hits) / max(lookups, 1),
                    "ratio")
            run.put("write_p50_ms",
                    percentile([(end - due) * 1e3
                                for due, _s, end in timings], 50), "ms")
            run.put("gen.writer_late_ms_p95",
                    percentile([(start - due) * 1e3
                                for due, start, _e in timings], 95), "ms")
            run.say(f"mixed writer: {len(timings)} paced ops, latency from "
                    f"due time "
                    f"{describe([end - due for due, _s, end in timings])}")
        return samples

    def energy_of_prefix(self, built) -> None:
        # Cached results report no energy: the metric is not defined here.
        self.energy_fj = None

    def other_phases(self, built, seconds: float) -> None:
        """Phase ``writes`` (the writer alone, closed loop, a fixed op
        count), then ``close()`` and ``recover()``."""
        run = self.run
        store, service = self.live(built)
        count = int(run.scale.writes_per_window_s * run.seconds)
        ops = self.churn_ops(count)
        phase = run.phase("writes")
        wal_before = directory_bytes(self.directory)
        start = time.perf_counter()
        for op in ops:
            try:
                apply_op(service, op)
                phase.add(1)
            except Exception as exc:
                phase.add(1, 1, f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        run.put("write_ops_s", count / elapsed, "1/s")
        run.say(f"writes: {count} ops in {elapsed:.3f} s "
                f"({count / elapsed:,.0f} ops/s)")
        readback(service, {op[1]: op[2] for op in ops if op[0] != "delete"},
                 phase)
        service.close()
        store.close()
        run.put("durable.wal_bytes_per_op",
                (directory_bytes(self.directory) - wal_before) / count, "B")
        live_entries = store.entries()
        start = time.perf_counter()
        recovered = recover(self.directory)
        recover_s = time.perf_counter() - start
        try:
            restored = recovered.entries()
            wrong = sum(1 for a, b in zip(live_entries, restored) if a != b) \
                + abs(len(live_entries) - len(restored))
            run.phase("recover").add(len(live_entries), wrong,
                                     "recovered entry differs"
                                     if wrong else None)
            run.put("recover_s", recover_s, "s")
            run.put("durable.replay_records_per_s",
                    recovered.recovered_records / recover_s, "1/s")
            run.say(f"recover: {recover_s:.3f} s, "
                    f"{recovered.recovered_records} records replayed, "
                    f"{len(restored)} entries compared, {wrong} differ")
        finally:
            recovered.close()

    def probes(self, built) -> None:
        Serving.probes(self, built)
        run = self.run
        repeats = run.scale.probe_repeats
        # Cache on, nobody writing: the same ladder batches, cache warm.
        cached = self.quiet_store(cache_size=CACHE_SIZE)
        batches = self.ladder_streams()[0]
        seconds, _ = self.time_door(
            "store.search_batch.cached",
            lambda b: self.hydrate(cached.search_batch(b[0])), batches)
        run.put("store.cached_ns_per_query",
                seconds / len(batches[0][0]) * 1e9, "ns")
        # The same update on a quiet durable and a quiet volatile store.
        directory = run.fresh_dir("durable-probe")
        durable = DurableCamStore(
            store_config(self.geo),
            durability=DurabilityConfig(directory=directory,
                                        fsync="interval"))
        volatile = CamStore(store_config(self.geo))
        try:
            load(durable, self.table)
            load(volatile, self.table)
            updates = [op for op in self.churn_ops(repeats * 4)
                       if op[0] == "update"]

            def cost(store) -> float:
                return statistics.median(
                    seconds_of(lambda: store.update(op[1], op[2]))
                    for op in updates)

            run.put("durable.write_tax_ratio",
                    cost(durable) / cost(volatile), "ratio")
            run.put("durable.snapshot_ms",
                    median_time(durable.snapshot, 5) * 1e3, "ms")
            run.put("durable.snapshot_bytes_per_row",
                    os.path.getsize(durable.snapshot()) / len(self.table),
                    "B")
        finally:
            durable.close()


def readback(service, last_words: Dict[int, str], phase: Phase) -> None:
    """After a writes phase the last word written under a key must be what
    a search for it finds (checked for the 64 keys written last)."""
    for key, word in list(last_words.items())[-64:]:
        found = any(m.key == key and m.word == word for m in
                    service.search(word.replace("X", "0")).result.matches)
        phase.add(1, 0 if found else 1,
                  None if found else "written word not served")


def apply_op(target, op: tuple) -> None:
    if op[0] == "update":
        target.update(op[1], op[2])
    elif op[0] == "delete":
        target.delete(op[1])
    else:
        target.insert(op[2], key=op[1], priority=op[3])


def paced_writer(target, ops: List[tuple], rate: float,
                 stop: threading.Event, phase: Phase,
                 timings: List[Tuple[float, float, float]]) -> None:
    """Open loop: op ``i`` is due at ``i / rate`` whether or not the
    previous one has finished, and is timed from when it was due."""
    origin = time.perf_counter()
    for index, op in enumerate(ops):
        due = origin + index / rate
        delay = max(due - time.perf_counter(), 0.0)
        if op[0] == "insert":
            # Never stop between a delete and the insert that restores
            # the key.
            time.sleep(delay)
        elif stop.wait(delay):
            return
        start = time.perf_counter()
        try:
            apply_op(target, op)
        except Exception as exc:
            phase.add(1, 1, f"{type(exc).__name__}: {exc}")
            continue
        timings.append((due, start, time.perf_counter()))
        phase.add(1)


def directory_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


@contextmanager
def worker_kernel_threads(count: Optional[int]):
    """``OMP_NUM_THREADS`` of the workers spawned inside the block (they
    inherit the environment; ``None`` leaves it as the caller has it).
    The process that sets it keeps its own threading: its OpenMP runtime
    read the environment when the kernel was loaded."""
    if count is None:
        yield
        return
    before = os.environ.get("OMP_NUM_THREADS")
    os.environ["OMP_NUM_THREADS"] = str(count)
    try:
        yield
    finally:
        if before is None:
            del os.environ["OMP_NUM_THREADS"]
        else:
            os.environ["OMP_NUM_THREADS"] = before


class ClusterServe(Serving):
    """5. The same stream across the process boundary: two spawned
    workers over a shared arena behind ``ClusterService``.

    The door is measured in two regimes, both in every run.  Left at
    its default every worker has an OpenMP team as wide as the host, and
    two such teams on two CPUs spin against one another: a 128-query
    burst takes 24 or 44 ms (scheduler quanta, not work), throughput
    falls about sixfold and its median flips between the two modes from
    run to run, which no bound the driver accepts (<= 25 %) survives.
    So the phases that carry end-to-end metrics run the workers at one
    kernel thread each — the way a 2-CPU host has to be run — and the
    phase ``default_threads`` records the collapse beside them as
    ``cluster.default_threads_qps``.
    """

    door_name = "cluster.search_many"
    batch = 128
    clients = CLIENT_THREADS
    read_phase = "pipelined"
    read_share = 11.0 / 15.0
    upper_doors = ("service", "cluster")
    worker_threads: Optional[int] = 1

    def __init__(self, run: Run):
        super().__init__(run)
        self.spawn_s: List[float] = []
        # Load the kernel (and with it the OpenMP runtime) before the
        # environment is touched for the workers' sake.
        kernels.backend_name()

    def setup_repeats(self) -> int:
        return self.run.scale.cluster_setups

    def build(self) -> ClusterService:
        start = time.perf_counter()
        with worker_kernel_threads(self.worker_threads):
            service = ClusterService(
                config=store_config(self.geo, backend="fabric"),
                workers=CLUSTER_WORKERS, start_method=CLUSTER_START,
                max_batch=256, shm_dir=self.run.fresh_dir("shm"))
            try:
                # The constructor returns before the workers have imported
                # anything; the first reply is when they are up.
                service.backend.scatter_search(self.queries[:1])
            except BaseException:
                service.close()
                raise
        try:
            self.spawn_s.append(time.perf_counter() - start)
            load(service, self.table)
        except BaseException:
            service.close()
            raise
        return service

    def close(self, service) -> None:
        # Workers are not this process's children to ask rusage about
        # once reaped, so their high-water marks are read while they live.
        try:
            self.run.workers_rss_kb = max(self.run.workers_rss_kb, sum(
                process_peak_rss_kb(w["pid"])
                for w in service.worker_stats()))
        finally:
            service.close()

    def search(self, service):
        return service.search_many

    def middle_door_ns(self, layer, store) -> float:
        """The in-process service over the same table, same two clients."""
        in_process = SearchService(store, max_batch=256, max_wait=0,
                                   use_cache=False)
        try:
            call = door("service.search_many", in_process.search_many,
                        self.hydrate, self.run.spans)
            return 1e9 / self.short_run(call, "ladder").mean_rate()
        finally:
            in_process.close()

    def other_phases(self, service, seconds: float) -> None:
        self.writes(service, seconds)
        self.default_threads()

    def writes(self, service, seconds: float) -> None:
        """Phase ``writes``: closed-loop ``update()`` through the service,
        each one a seqlock publish window."""
        run = self.run
        phase = run.phase("writes")
        n_ops = max(int(seconds * 4000), 64)    # more than the window holds
        picks = run.rng.integers(0, len(self.table), size=n_ops)
        words = random_words(run.rng, self.table.bits[picks],
                             self.table.lengths[picks])
        latencies: List[float] = []
        ops = []
        started = time.perf_counter()
        deadline = started + seconds
        for pick, word in zip(picks.tolist(), words):
            key = self.table.keys[pick]
            start = time.perf_counter()
            if start >= deadline:
                break
            try:
                service.update(key, word)
                phase.add(1)
            except Exception as exc:
                phase.add(1, 1, f"{type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - start)
            ops.append((key, word))
        elapsed = time.perf_counter() - started
        run.put("write_ops_s", len(latencies) / elapsed, "1/s")
        run.put("cluster.publish_ms",
                percentile(latencies, 50) * 1e3, "ms")
        run.say(f"writes: {len(latencies)} updates in {elapsed:.3f} s; one "
                f"update() {describe(latencies)}")
        readback(service, dict(ops), phase)

    def default_threads(self) -> None:
        """Phase ``default_threads``: the same door and clients with the
        workers' OpenMP threading left as the environment has it."""
        run = self.run
        self.worker_threads = None
        try:
            service = self.build()
        finally:
            self.worker_threads = 1
        try:
            for _ in range(2):      # the first window warms the workers
                samples = drive(self.call(service), self.streams,
                                run.scale.short_run_s,
                                run.phase("default_threads"))
        finally:
            service.close()
        run.put("cluster.default_threads_qps", samples.mean_rate(), "1/s")
        run.say(f"default_threads: {samples.mean_rate():,.0f} lookups/s with "
                f"the workers' OpenMP threading at its default; one call "
                f"{describe(samples.latencies)}")

    def probes(self, service) -> None:
        super().probes(service)
        run = self.run
        backend = service.backend
        probe = self.queries[:run.scale.probe_repeats * 8]
        run.put("cluster.rpc_roundtrip_us", statistics.median(
            seconds_of(lambda: backend.scatter_search([query]))
            for query in probe) * 1e6, "us")
        scattered = backend.scatter_search(probe)
        run.put("cluster.reply_bytes_per_query", statistics.fmean(
            len(pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL))
            for _generation, rows, _energy, _latency in scattered), "B")
        run.put("cluster.spawn_s", statistics.median(self.spawn_s), "s")
        workers = service.worker_stats()
        searches = [w["searches"] for w in workers]
        run.put("cluster.worker_share_max",
                max(searches) / max(sum(searches), 1), "ratio")
        run.put("cluster.restarts", sum(w["restarts"] for w in workers),
                "count")
        run.put("cluster.worker_cpu_s",
                sum(process_cpu_s(w["pid"]) for w in workers), "s")


def process_peak_rss_kb(pid: int) -> int:
    """Peak resident set of a live process (Linux ``/proc``), 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (Linux ``/proc``)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
