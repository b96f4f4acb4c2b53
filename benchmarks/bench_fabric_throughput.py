"""Fabric throughput: serving strategies and batch-kernel generations.

Measures two things on fabrics of 1, 4, and 16 banks (1024 rows x 64
bits each, ``--tiny`` shrinks everything for CI smoke):

**Serving strategies** (queries/sec and per-query energy):

* ``sequential`` — a Python loop of per-bank ``TernaryCAM.search()``
  calls, the baseline every fabric result is bit-identical to;
* ``batched``    — ``TcamFabric.search_batch`` through the fused
  arena kernel.

(The query cache lives in ``CamStore``; ``benchmarks/e2e`` measures it
as ``store.cached_ns_per_query`` / ``store.cache_hit_rate``.)

**Kernel generations** (the planes-refactor acceptance criterion): the
fused arena kernel on warm derived planes vs. the pre-planes per-bank
kernel it replaced (one dense count kernel per bank, recompressing its
step planes on every call).  On the headline fabric the fused kernel
must be >= KERNEL_FLOOR x the per-bank loop while returning identical
counts and matches (>= 2x at 16 banks full-size; >= 1x in ``--tiny``
smoke, where wall-clock noise dominates).

Emits JSON twice: the full report at
``benchmarks/results/fabric_throughput.json`` (CI artifact), and the
machine-trackable ``BENCH_fabric.json`` at the repo root — rows of
``{metric, value, unit, config}`` for the perf trajectory.

Run directly (``python benchmarks/bench_fabric_throughput.py
[--tiny]``) or via pytest (``pytest
benchmarks/bench_fabric_throughput.py``).
"""

import argparse
import random
import time

import _emit

from fecam.designs import DesignKind
from fecam.fabric import TcamFabric, batch_count_matches, fused_count_matches
from fecam.fabric.batch import pack_queries
from fecam.functional import EnergyModel

WIDTH = 64
FILL = 0.75

FULL = dict(mode="full", bank_counts=(1, 4, 16), rows_per_bank=1024,
            queries=1000, batch_floor=20.0, kernel_floor=2.0, repeats=3,
            warmup=1)
TINY = dict(mode="tiny", bank_counts=(4,), rows_per_bank=128,
            queries=200, batch_floor=2.0, kernel_floor=1.0, repeats=3,
            warmup=1)


def _fast_model():
    """Fixed FoM numbers: benchmarks time search, not SPICE."""
    return EnergyModel(DesignKind.DG_1T5, WIDTH, e_1step_per_bit=0.8e-15,
                       e_2step_per_bit=1.3e-15, latency_1step=0.7e-9,
                       latency_2step=2.3e-9, write_energy_per_cell=0.41e-15)


def _build_fabric(banks, rows_per_bank, rng):
    fabric = TcamFabric(banks=banks, rows_per_bank=rows_per_bank,
                        width=WIDTH, energy_model=_fast_model())
    n_words = int(banks * rows_per_bank * FILL)
    words = ["".join(rng.choice("01X") for _ in range(WIDTH))
             for _ in range(n_words)]
    fabric.insert_many(words, keys=list(range(n_words)),
                       banks=[i % banks for i in range(n_words)])
    return fabric


def _best_of(fn, repeats, *, warmup=0):
    """Min-of-N wall time after ``warmup`` untimed passes; returns
    (best_seconds, result_of_last_run).

    Warmup + best-of is the flake armor for the wall-clock speedup
    floors: the first pass pays one-time costs (page faults, allocator
    growth, branch history) that a loaded CI runner amplifies, and the
    minimum of the timed passes discards scheduler preemption spikes.
    """
    for _ in range(warmup):
        fn()
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _measure_kernels(fabric, q_matrix, repeats, warmup):
    """Fused arena kernel (warm planes) vs the pre-planes per-bank loop
    (dense, recompressing every call); asserts identical counts."""
    banks = fabric.num_banks
    rows_per_bank = fabric.rows_per_bank

    def per_bank():
        return [batch_count_matches(bank.cam, q_matrix, kernel="dense",
                                    reuse_cache=False)
                for bank in fabric.banks]

    def fused():
        return fused_count_matches(fabric.arena, q_matrix, n_banks=banks,
                                   rows_per_bank=rows_per_bank)

    fused()  # warm the derived planes and the candidate index
    t_per_bank, per_bank_counts = _best_of(per_bank, repeats,
                                           warmup=warmup)
    t_fused, fused_counts = _best_of(fused, repeats, warmup=warmup)

    for b, counts in enumerate(per_bank_counts):
        assert int(fused_counts.rows_searched[b]) == counts.rows_searched
        assert (fused_counts.step1_eliminated[b]
                == counts.step1_eliminated).all()
        assert (fused_counts.step2_misses[b] == counts.step2_misses).all()
        assert (fused_counts.full_matches[b] == counts.full_matches).all()
    loop_pairs = sorted(
        (q, b * rows_per_bank + r) for b, counts in enumerate(per_bank_counts)
        for q, r in zip(counts.match_q, counts.match_rows))
    assert sorted(zip(fused_counts.match_q,
                      fused_counts.match_rows)) == loop_pairs
    return {
        "per_bank_kernel_ms": t_per_bank * 1e3,
        "fused_kernel_ms": t_fused * 1e3,
        "fused_kernel_speedup": t_per_bank / t_fused,
        "fused_kernel_kind": fused_counts.kernel,
    }


def _measure(banks, sizes):
    """One configuration; returns the result row dict."""
    rows_per_bank = sizes["rows_per_bank"]
    n_queries = sizes["queries"]
    repeats = sizes["repeats"]
    warmup = sizes.get("warmup", 0)
    rng = random.Random(20230710 + banks)
    queries = ["".join(rng.choice("01") for _ in range(WIDTH))
               for _ in range(n_queries)]

    # Identical twin fabrics so energy accounting can be compared 1:1.
    seq_fabric = _build_fabric(banks, rows_per_bank, random.Random(42))
    bat_fabric = _build_fabric(banks, rows_per_bank, random.Random(42))

    def run_sequential():
        return [[bank.cam.search(q) for bank in seq_fabric.banks]
                for q in queries]

    # Warmup counts must stay equal between the seq/bat twins: the
    # energy-accounting assertions below compare their banks 1:1.
    t_seq, seq_results = _best_of(run_sequential, repeats, warmup=warmup)
    t_batch, bat_results = _best_of(
        lambda: bat_fabric.search_batch(queries), repeats, warmup=warmup)

    # Bit-identical matches and energy accounting vs. the loop.
    for per_bank, merged in zip(seq_results, bat_results):
        loop_rows = [(b, r) for b, stats in enumerate(per_bank)
                     for r in stats.matches]
        fabric_rows = sorted((e.bank, e.row) for e in merged.matches)
        assert sorted(loop_rows) == fabric_rows
        loop_energy = 0.0
        for stats in per_bank:
            loop_energy += stats.energy
        assert loop_energy == merged.energy
    for bank_seq, bank_bat in zip(seq_fabric.banks, bat_fabric.banks):
        assert bank_seq.cam.energy_spent == bank_bat.cam.energy_spent

    q_matrix = pack_queries(queries, WIDTH)
    kernels = _measure_kernels(bat_fabric, q_matrix, repeats, warmup)

    total_energy = sum(r.energy for r in bat_results)
    row = {
        "banks": banks,
        "rows_per_bank": rows_per_bank,
        "width_bits": WIDTH,
        "occupancy": bat_fabric.occupancy,
        "queries": n_queries,
        "sequential_qps": n_queries / t_seq,
        "batched_qps": n_queries / t_batch,
        "batch_speedup": t_seq / t_batch,
        "energy_per_query_j": total_energy / n_queries,
        "bit_identical": True,
    }
    row.update(kernels)
    return row


def _bench_rows(rows, sizes):
    """Flatten results to the repo-root ``{metric, value, unit, config}``
    schema shared by every BENCH_*.json."""
    units = {
        "sequential_qps": "query/s", "batched_qps": "query/s",
        "batch_speedup": "x", "energy_per_query_j": "J", "per_bank_kernel_ms": "ms",
        "fused_kernel_ms": "ms", "fused_kernel_speedup": "x",
    }
    out = []
    for row in rows:
        config = {"banks": row["banks"],
                  "rows_per_bank": row["rows_per_bank"],
                  "width_bits": row["width_bits"],
                  "queries": row["queries"], "fill": FILL,
                  "mode": sizes["mode"]}
        out.extend(_emit.rows_from(row, units, config))
    return out


def run(sizes, json_path=None):
    rows = [_measure(banks, sizes) for banks in sizes["bank_counts"]]
    default_paths = json_path is None
    if json_path is None:
        json_path = _emit.results_path("fabric_throughput")
    payload = {"benchmark": "fabric_throughput",
               "config": {"rows_per_bank": sizes["rows_per_bank"],
                          "width_bits": WIDTH, "fill": FILL,
                          "queries": sizes["queries"],
                          "mode": sizes["mode"]},
               "results": rows}
    # The repo-root trajectory file only ever holds full-size numbers:
    # a --tiny smoke (or an --out redirect) must not clobber it.
    root_path = (_emit.repo_bench_path("fabric")
                 if sizes["mode"] == "full" and default_paths else None)
    paths = _emit.emit(payload, _bench_rows(rows, sizes),
                       results_file=json_path, root_file=root_path)
    return rows, paths


def print_report(rows):
    from fecam.bench import print_experiment
    print_experiment(
        "Fabric throughput (sequential vs batched)",
        ["banks", "seq qps", "batch qps", "speedup", "J/query"],
        [[r["banks"], r["sequential_qps"], r["batched_qps"],
          r["batch_speedup"], r["energy_per_query_j"]] for r in rows])
    print_experiment(
        "Batch kernel: fused arena (warm planes) vs per-bank loop",
        ["banks", "per-bank ms", "fused ms", "speedup", "kind"],
        [[r["banks"], r["per_bank_kernel_ms"], r["fused_kernel_ms"],
          r["fused_kernel_speedup"], r["fused_kernel_kind"]]
         for r in rows])


def check_floors(rows, sizes):
    headline = next(r for r in rows
                    if r["banks"] == max(sizes["bank_counts"]))
    assert headline["bit_identical"]
    assert headline["batch_speedup"] >= sizes["batch_floor"], (
        f"batched search is only {headline['batch_speedup']:.1f}x the "
        f"sequential loop (acceptance floor {sizes['batch_floor']}x)")
    assert headline["fused_kernel_speedup"] >= sizes["kernel_floor"], (
        f"fused arena kernel is only "
        f"{headline['fused_kernel_speedup']:.2f}x the per-bank kernel "
        f"it replaced (acceptance floor {sizes['kernel_floor']}x)")


def test_bench_fabric_throughput():
    rows, paths = run(FULL)
    print_report(rows)
    print("JSON written to " + ", ".join(paths))
    check_floors(rows, FULL)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true",
                        help="CI smoke mode: small fabric, same floors "
                             "logic with a >= 1x kernel floor")
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args()
    sizes = TINY if args.tiny else FULL
    result_rows, out_paths = run(sizes, args.out)
    print_report(result_rows)
    print("JSON written to " + ", ".join(out_paths))
    check_floors(result_rows, sizes)
