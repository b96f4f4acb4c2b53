"""The serving-workload template and the two store-door workloads.

Every layer is measured from outside, by timing calls into its public
functions; the seed never reaches ``fecam``, only generated words and
queries do.
"""

import statistics
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from context import Run
from data import (FILL, UPPER32_MASK, WIDTH, Geometry, Table,
                  expected_matches, make_queries, make_table, query_strings,
                  random_words)
from harness import (Batch, Samples, Spans, batches_of, drive, in_thread,
                     steady)

from fecam.designs import DesignKind
from fecam.fabric.batch import fused_count_matches, pack_queries
from fecam.metrics import STEP1_MISS_RATE_DEFAULT, DesignPoint, evaluate
from fecam.planes import compress_even
from fecam.store import CamStore, StoreConfig
from fecam.units import FJ

#: Cheap set-ups (tens of ms) are repeated beyond the scale's count until
#: they add up to this (or there are SETUP_MAX of them), so their median
#: is not a handful of samples' luck on a host that stalls.
SETUP_MIN_TOTAL_S = 1.0
SETUP_MAX = 50


def store_config(geo: Geometry, **overrides) -> StoreConfig:
    # fidelity="paper" prices every search from the published Table 4
    # values, so simulated energy is traceable to the paper rather than
    # to a hand-typed model, and costs nothing to construct.
    return StoreConfig(width=WIDTH, rows=geo.rows, banks=geo.banks,
                       fidelity="paper", **overrides)


def load(target, table: Table) -> None:
    target.insert_many(table.words, keys=table.keys,
                       priorities=table.priorities)


def keys_of(results) -> List[List[int]]:
    """Hydrate as a caller would: read the keys of EVERY result, so lazy
    result materialisation is paid inside the caller's latency."""
    return [result.match_keys for result in results]


def matches_of(results) -> List[list]:
    """Hydrate to match objects (``serve_mixed`` needs word and priority
    of churn-region matches to judge them)."""
    return [list(getattr(result, "result", result).matches)
            for result in results]


def door(name: str, search: Callable[[List[str]], Sequence],
         hydrate: Callable[[Sequence], list], spans: Spans
         ) -> Callable[[List[str]], list]:
    """A client-side call: one search through a layer's public function,
    then hydration; each gets its own span when the run is traced."""

    def call(queries: List[str]) -> list:
        if not spans.enabled:
            return hydrate(search(queries))
        with spans.span(name):
            results = search(queries)
        with spans.span("client.hydrate"):
            return hydrate(results)

    return call


def concat(tables: Sequence[Table]) -> Table:
    return Table(bits=np.concatenate([t.bits for t in tables]),
                 lengths=np.concatenate([t.lengths for t in tables]),
                 words=[w for t in tables for w in t.words],
                 keys=[k for t in tables for k in t.keys],
                 priorities=[p for t in tables for p in t.priorities])


class Serving:
    """Template of a serving workload: data, cold set-ups, warm-up, the
    read phase (again with tracing on in a traced run), the ladder, the
    workload's other phases, and the layer probes."""

    door_name = ""          # the public function the clients call
    geometry = "small"
    mask: Optional[str] = None
    batch = 256
    clients = 1
    read_phase = "read"
    read_share = 1.0
    hydrate = staticmethod(keys_of)
    #: Doors of the ladder above the store, bottom-up.
    upper_doors: Tuple[str, ...] = ()

    def __init__(self, run: Run):
        self.run = run
        self.geo: Geometry = getattr(run.scale, self.geometry)
        self.check = None

    # -- data --------------------------------------------------------------------

    def prepare(self) -> None:
        run = self.run
        self.table, _tops = make_table(run.rng, int(self.geo.rows * FILL))
        bits = make_queries(run.rng, self.table, run.scale.pool)
        self.queries = query_strings(bits)
        self.expected = expected_matches(self.table, bits, self.mask)
        self.streams = self.make_streams()
        run.client_threads = max(run.client_threads, len(self.streams))

    def client_share(self, client: int) -> Tuple[List[str], List[List[int]]]:
        """A client's disjoint, equal share of the pool and its answers."""
        share = len(self.queries) // self.clients
        return (self.queries[client * share:(client + 1) * share],
                self.expected[client * share:(client + 1) * share])

    def make_streams(self) -> List[List[Batch]]:
        """One stream per client, cut into batches."""
        return [batches_of(*self.client_share(c), self.batch)
                for c in range(self.clients)]

    # -- doors -------------------------------------------------------------------

    def build(self):
        """Construct + bulk load the workload's door from nothing."""
        raise NotImplementedError

    def close(self, built) -> None:
        pass

    def search(self, built) -> Callable[[List[str]], Sequence]:
        raise NotImplementedError

    def call(self, built) -> Callable[[List[str]], list]:
        return door(self.door_name, self.search(built), self.hydrate,
                    self.run.spans)

    def traced_door(self, built):
        """The door of the traced read phase (the same one unless a layer
        has a tracer of its own to switch on)."""
        return built

    def quiet_store(self, **overrides) -> CamStore:
        """A volatile store of the same geometry and content that no other
        thread touches: the ladder's lower doors and the probes use it."""
        store = CamStore(store_config(self.geo, **overrides))
        load(store, self.table)
        return store

    # -- template ----------------------------------------------------------------

    def execute(self) -> None:
        run = self.run
        self.prepare()
        # The first build only carries the warm-up: for its first second a
        # process (and, after an idle spell, the host's second CPU) runs
        # searches several times slow, which would put a whole run's
        # set-ups in a slow mode that the next run does not see.
        built = in_thread(self.build)
        try:
            self.warm_up(built)
            built = in_thread(self.cold_setups, built)
            # The door the set-ups left open is new (and its workers, if
            # any, are new processes): a second of traffic before timing.
            drive(self.call(built), self.streams, run.scale.settle_s,
                  run.phase("warmup"), check=self.check)
            read_s = run.seconds * self.read_share
            if not run.traced:
                samples = self.read(built, read_s, self.streams)
                run.put_read(samples, self.read_phase)
            else:
                samples = self.read(built, read_s / 2, self.streams)
                run.put_read(samples, f"{self.read_phase} (untraced half)")
                traced = self.traced_door(built)
                run.spans.enabled = True
                traced_samples = self.read(traced, read_s / 2, self.streams)
                self.after_traced_read(traced)
                run.put("obs.traced_overhead_ratio",
                        1.0 - traced_samples.median_rate()
                        / samples.median_rate(), "ratio")
                self.ladder(built)
                run.spans.enabled = False
            in_thread(self.energy_of_prefix, built)
            in_thread(self.other_phases, built,
                      run.seconds * (1.0 - self.read_share))
            if run.traced:
                in_thread(self.probes, built)
        finally:
            self.close(built)

    def cold_setups(self, built):
        """``setup_s``: median seconds from nothing to the first correct
        answer, over several cold set-ups; each closes the door before
        it (``built`` first) and the last door stays open."""
        run = self.run
        phase = run.phase("setup")
        queries, expected = self.streams[0][0]
        times: List[float] = []
        repeats = self.setup_repeats()
        while len(times) < repeats or (sum(times) < SETUP_MIN_TOTAL_S
                                       and len(times) < SETUP_MAX):
            self.close(built)
            start = time.perf_counter()
            built = self.build()
            got = self.call(built)(queries)
            times.append(time.perf_counter() - start)
            phase.add(len(queries), self.count_wrong(queries, got, expected))
        run.put("setup_s", statistics.median(times), "s")
        run.say(f"setup: median {statistics.median(times):.4f} s of "
                f"{len(times)} cold set-ups ({min(times):.4f} to "
                f"{max(times):.4f})")
        return built

    def setup_repeats(self) -> int:
        return self.run.scale.setups

    def count_wrong(self, queries, got, expected) -> int:
        if self.check is not None:
            return self.check(queries, got, expected)
        return sum(1 for g, e in zip(got, expected) if g != e)

    def warm_up(self, built) -> None:
        scale = self.run.scale
        samples = drive(self.call(built), self.streams, 0.0,
                        self.run.phase("warmup"), check=self.check,
                        until=steady(scale.warm_min_s, scale.warm_max_s))
        self.run.say(f"warm-up: {samples.elapsed:.1f} s, last slices "
                     f"{[round(r) for r in samples.slice_rates()[-3:]]}")

    def read(self, built, seconds: float, streams) -> Samples:
        return drive(self.call(built), streams, seconds,
                     self.run.phase(self.read_phase), self.run.spans,
                     check=self.check)

    def after_traced_read(self, traced) -> None:
        pass

    def other_phases(self, built, seconds: float) -> None:
        pass

    def energy_of_prefix(self, built) -> None:
        """``energy_per_query_fj``: simulated, mean priced energy over the
        fixed verification prefix of the stream; repeats exactly."""
        prefix = self.queries[:self.run.scale.verify_prefix]
        energies = []
        for start in range(0, len(prefix), self.batch):
            results = self.search(built)(prefix[start:start + self.batch])
            energies.extend(getattr(r, "result", r).energy for r in results)
        self.energy_fj = statistics.fmean(energies) / FJ
        self.run.put("energy_per_query_fj", self.energy_fj, "fJ")
        self.run.say(f"energy (simulated): {self.energy_fj:.4f} fJ/query "
                     f"over the first {len(prefix)} queries")

    # -- the ladder --------------------------------------------------------------

    def time_door(self, name: str, fn: Callable[[object], object],
                  inputs: Sequence, verify=None) -> Tuple[float, list]:
        """Seconds per call of ``fn`` over the ladder batches, and the
        outputs of the last pass.  Each pass over the batches gives one
        mean (the way a throughput is a mean over its calls, so doors
        compare with ``read_qps``); the first pass is a warm-up and the
        median of the others is reported."""
        run = self.run
        per_pass: List[float] = []
        outputs: list = []
        deadline = time.perf_counter() + run.scale.ladder_door_s
        while len(per_pass) < 3 or time.perf_counter() < deadline:
            outputs = []
            spent = 0.0
            for index, item in enumerate(inputs):
                with run.spans.span(name, index):
                    start = time.perf_counter()
                    out = fn(item)
                    spent += time.perf_counter() - start
                outputs.append(out)
            if verify is not None and not per_pass:
                verify(outputs)
            per_pass.append(spent / len(inputs))
        return statistics.median(per_pass[1:]), outputs

    def ladder(self, built) -> None:
        """Drive the same first batches of the stream through each door
        in turn, bottom-up, and report ns/query at each door and the tax
        it adds over the door beneath."""
        run = self.run
        store = self.quiet_store()
        rows, beneath, kernel_ns = in_thread(self.lower_doors, store,
                                             self.ladder_streams()[0])
        # Every door is measured here, the workload's own too: a short
        # read phase of its own, so that the ladder's top can be held
        # against 1e9 / read_qps of the untraced window.
        for layer in self.upper_doors:
            if layer == self.upper_doors[-1]:
                at_door = 1e9 / self.short_read(built).mean_rate()
            else:
                at_door = self.middle_door_ns(layer, store)
            run.put(f"{layer}.ns_per_query", at_door, "ns")
            run.put(f"{layer}.tax_ns_per_query", at_door - beneath, "ns")
            rows.append((layer, at_door, at_door - beneath))
            beneath = at_door
        top_vs_read = beneath * run.metrics["read_qps"]["value"] / 1e9
        run.put("gen.ladder_top_vs_read_qps", top_vs_read, "ratio")
        run.put("kernels.share_of_door", kernel_ns / beneath, "ratio")
        run.say("ladder (ns/query at the door, tax over the door beneath):")
        for layer, at_door, tax in rows:
            tax_text = "" if tax is None else f"  tax {tax:10.1f}"
            run.say(f"  {layer:<12} {at_door:10.1f}{tax_text}")
        run.say(f"  top door over 1e9/read_qps of the untraced window: "
                f"{top_vs_read:.3f}")

    def lower_doors(self, store: CamStore, batches: List[Batch]):
        """The doors from the planes up to the store, one client, on a
        quiet store; returns the ladder rows so far, ns/query at the
        store door, and ns/query in the kernel."""
        run = self.run
        size = len(batches[0][0])
        phase = run.phase("ladder")
        fabric = store.backend.fabric
        arena = fabric.arena

        def verify_batches(outputs) -> None:
            for (queries, expected), got in zip(batches, outputs):
                phase.add(len(queries),
                          self.count_wrong(queries, got, expected))

        def ns(seconds: float) -> float:
            return seconds / size * 1e9

        pack_s, packed = self.time_door(
            "planes.pack_queries", lambda b: pack_queries(b[0], WIDTH),
            batches)
        mask_bits = (fabric.banks[0].cam.pack_mask(self.mask)
                     if self.mask is not None else None)
        kernel_s, _ = self.time_door(
            "kernels.fused_count_matches",
            lambda matrix: fused_count_matches(
                arena, matrix, mask_bits, n_banks=fabric.num_banks,
                rows_per_bank=fabric.rows_per_bank, reuse_buffers=True),
            packed)
        # The count matrices are recycled between calls, so take the
        # exact counts from one fresh call per batch.
        eliminated = examined = matched = 0
        for matrix in packed:
            fresh = fused_count_matches(
                arena, matrix, mask_bits, n_banks=fabric.num_banks,
                rows_per_bank=fabric.rows_per_bank)
            eliminated += int(fresh.step1_eliminated.sum())
            examined += int(fresh.rows_searched.sum()) * matrix.shape[0]
            matched += len(fresh.match_rows)
        fabric_s, _ = self.time_door(
            "fabric.search_batch",
            lambda b: self.hydrate(fabric.search_batch(
                b[0], self.mask, use_cache=False)),
            batches, verify_batches)
        stats = fabric.stats
        bank_energy = [bank.energy for bank in stats.per_bank]
        # Hydration is timed inside the store door, on results still warm
        # (hydrated in a later pass they read a fifth slower than a caller
        # sees), and reported as its share of the door.
        split = {"search": 0.0, "hydrate": 0.0}

        def store_door(batch: Batch) -> list:
            t0 = time.perf_counter()
            results = store.search_batch(batch[0], self.mask,
                                         use_cache=False)
            t1 = time.perf_counter()
            hydrated = self.hydrate(results)
            split["search"] += t1 - t0
            split["hydrate"] += time.perf_counter() - t1
            return hydrated

        store_s, _ = self.time_door("store.search_batch", store_door,
                                    batches, verify_batches)
        hydrate_s = store_s * split["hydrate"] / (split["search"]
                                                   + split["hydrate"])

        n_queries = size * len(batches)
        run.put("planes.pack_ns_per_query", ns(pack_s), "ns")
        run.put("kernels.ns_per_query", ns(kernel_s), "ns")
        run.put("kernels.step1_eliminated_ratio", eliminated / examined,
                "ratio")
        run.put("kernels.plane_bytes_per_query",
                self.plane_bytes(arena, packed), "B")
        run.put("fabric.ns_per_query", ns(fabric_s), "ns")
        run.put("fabric.tax_ns_per_query", ns(fabric_s - kernel_s), "ns")
        run.put("fabric.matches_per_query", matched / n_queries, "count")
        run.put("fabric.step1_miss_rate",
                sum(b.step1_eliminated for b in stats.per_bank)
                / sum(b.rows_examined for b in stats.per_bank), "ratio")
        run.put("fabric.bank_energy_max_over_mean",
                max(bank_energy) / statistics.fmean(bank_energy), "ratio")
        run.put("store.ns_per_query", ns(store_s), "ns")
        run.put("store.tax_ns_per_query", ns(store_s - fabric_s), "ns")
        run.put("store.hydrate_ns_per_match",
                hydrate_s * len(batches) / max(matched, 1) * 1e9, "ns")
        rows = [("planes.pack", ns(pack_s), None),
                ("kernels", ns(kernel_s), None),
                ("fabric", ns(fabric_s), ns(fabric_s - kernel_s)),
                ("store", ns(store_s), ns(store_s - fabric_s))]
        return rows, ns(store_s), ns(kernel_s)

    def plane_bytes(self, arena, packed) -> float:
        """Computed, not measured: plane bytes one query makes the kernel
        read.  A masked search streams both compressed step-1 planes of
        every valid row; an indexed one reads the two 4-byte planes of
        its candidates only."""
        derived = arena.derived()
        index = arena.step1_index() if self.mask is None else None
        if index is None:
            return derived.rows_searched * derived.ce32.shape[1] * 8.0
        low_bytes = np.concatenate(
            [compress_even(matrix)[:, 0] & np.uint32(0xFF)
             for matrix in packed]).astype(np.intp)
        candidates = index.indptr[low_bytes + 1] - index.indptr[low_bytes]
        return float(candidates.mean()) * 8.0

    def middle_door_ns(self, layer: str, store: CamStore) -> float:
        """ns/query at a door between the store and the workload's own,
        driven by the workload's clients on the ladder batches."""
        raise NotImplementedError

    def short_read(self, built) -> Samples:
        """The workload's own read phase over a short window, after an
        unrecorded one of the same length."""
        for _ in range(2):
            samples = self.read(built, self.run.scale.short_run_s,
                                self.streams)
        return samples

    def short_run(self, call, phase: str) -> Samples:
        """A multi-client door on the ladder batches over a short window,
        after an unrecorded window of the same length (a fresh dispatcher
        or worker starts cold)."""
        for _ in range(2):
            samples = drive(call, self.ladder_streams(),
                            self.run.scale.short_run_s,
                            self.run.phase(phase), self.run.spans,
                            check=self.check)
        return samples

    def ladder_streams(self) -> List[List[Batch]]:
        return [stream[:self.run.scale.ladder_batches]
                for stream in self.streams]

    # -- probes ------------------------------------------------------------------

    def probes(self, built) -> None:
        """Per-layer numbers taken on a quiet store, one call at a time."""
        run = self.run
        repeats = run.scale.probe_repeats
        start = time.perf_counter()
        store = self.quiet_store()
        run.put("store.insert_many_rows_per_s",
                len(self.table) / (time.perf_counter() - start), "1/s")
        arena = store.backend.fabric.arena
        arena.derived()
        arena.step1_index()
        picks = run.rng.integers(0, len(self.table), size=repeats)
        words = random_words(run.rng, self.table.bits[picks],
                             self.table.lengths[picks])
        update_s, derive_s = [], []
        for pick, word in zip(picks.tolist(), words):
            t0 = time.perf_counter()
            store.update(self.table.keys[pick], word)
            t1 = time.perf_counter()
            arena.derived()
            arena.step1_index()
            t2 = time.perf_counter()
            update_s.append(t1 - t0)
            derive_s.append(t2 - t1)
        run.put("store.update_us", statistics.median(update_s) * 1e6, "us")
        run.put("planes.derive_ms", statistics.median(derive_s) * 1e3, "ms")
        run.put("metrics.step1_miss_rate_assumed", STEP1_MISS_RATE_DEFAULT,
                "ratio")
        if self.energy_fj is not None:
            # Measured mean priced energy over the energy the figure-of-
            # merit model assumes: the same rows at the assumed miss rate.
            fom = evaluate(DesignPoint(DesignKind.DG_1T5, word_length=WIDTH),
                           "paper")
            assumed_fj = len(self.table) * fom.search_energy_per_word / FJ
            run.put("metrics.energy_delta_vs_assumed",
                    self.energy_fj / assumed_fj, "ratio")


class StoreDoor(Serving):
    """One client calling ``CamStore.search_batch(256)``, cache off."""

    door_name = "store.search_batch"

    def build(self) -> CamStore:
        return self.quiet_store()

    def search(self, store):
        mask = self.mask
        return lambda queries: store.search_batch(queries, mask,
                                                  use_cache=False)


class BatchLookup(StoreDoor):
    """1. The offline door on the small geometry."""

    def probes(self, store) -> None:
        super().probes(store)
        # The pair that gates deleting ArrayBackend (ROADMAP item 2): the
        # same table in ONE bank behind each backend.
        batches = self.ladder_streams()[0]
        one_bank = Geometry("one-bank", 1, self.geo.rows)
        for backend, metric in (("array", "store.array_ns_per_query"),
                                ("fabric", "store.fabric1_ns_per_query")):
            single = CamStore(store_config(one_bank, backend=backend))
            load(single, self.table)
            seconds, _ = self.time_door(
                f"store.{backend}1.search_batch",
                lambda b: keys_of(single.search_batch(
                    b[0], use_cache=False)), batches)
            self.run.put(metric, seconds / len(batches[0][0]) * 1e9, "ns")


class MaskedScan(StoreDoor):
    """2. The dense path: a field mask bypasses the step-1 index."""

    geometry = "large"
    mask = UPPER32_MASK
