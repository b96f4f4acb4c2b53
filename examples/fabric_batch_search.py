#!/usr/bin/env python3
"""The fabric tier: sharded banks and batched queries.

Builds a 4-bank fabric of calibrated 1.5T1DG-Fe arrays, bulk-loads a
rule table, then serves a 1000-query batch two ways — a sequential
per-bank loop and the vectorized batch kernel — printing throughput,
energy, and early-termination telemetry.  (Query caching lives one
tier up, in ``CamStore``: see ``examples/store_quickstart.py``.)

Run:  python examples/fabric_batch_search.py
"""

import random
import time

from fecam import DesignKind
from fecam.fabric import TcamFabric
from fecam.functional import EnergyModel
from fecam.units import FJ

BANKS, ROWS, WIDTH = 4, 1024, 64

# Fixed FoM numbers (paper Tab. IV ballpark) keep the demo SPICE-free.
model = EnergyModel(DesignKind.DG_1T5, WIDTH, e_1step_per_bit=0.8e-15,
                    e_2step_per_bit=1.3e-15, latency_1step=0.7e-9,
                    latency_2step=2.3e-9, write_energy_per_cell=0.41e-15)

rng = random.Random(2023)
fabric = TcamFabric(banks=BANKS, rows_per_bank=ROWS, width=WIDTH,
                    design=DesignKind.DG_1T5, energy_model=model)

print("=" * 70)
print(f"1. Bulk-load {BANKS * ROWS * 3 // 4} ternary rules across "
      f"{BANKS} banks (vectorized pack)")
print("=" * 70)
words = ["".join(rng.choice("01X") for _ in range(WIDTH))
         for _ in range(BANKS * ROWS * 3 // 4)]
t0 = time.perf_counter()
fabric.insert_many(words, keys=list(range(len(words))),
                   banks=[i % BANKS for i in range(len(words))])
print(f"loaded {fabric.occupancy} entries in "
      f"{(time.perf_counter() - t0) * 1e3:.1f} ms -> {fabric}")

print()
print("=" * 70)
print("2. Serve 1000 queries: loop vs batch")
print("=" * 70)
queries = ["".join(rng.choice("01") for _ in range(WIDTH))
           for _ in range(1000)]

t0 = time.perf_counter()
for q in queries:
    fabric.search(q)
t_loop = time.perf_counter() - t0

t0 = time.perf_counter()
results = fabric.search_batch(queries)
t_batch = time.perf_counter() - t0

print(f"sequential loop : {1000 / t_loop:10.0f} queries/s")
print(f"vectorized batch: {1000 / t_batch:10.0f} queries/s "
      f"({t_loop / t_batch:.1f}x)")
per_query = sum(r.energy for r in results) / len(results)
print(f"energy per broadcast query: {per_query / FJ / 1e3:.1f} pJ "
      f"({fabric.occupancy} rows x {WIDTH} bits fired per query)")

print()
print("=" * 70)
print("3. Fabric telemetry (cross-bank early termination at work)")
print("=" * 70)
stats = fabric.stats
print(f"queries answered: {stats.searches}")
print(f"total search energy: {stats.energy_total * 1e9:.2f} nJ; "
      f"worst-bank latency: {stats.worst_latency * 1e9:.2f} ns")
for bank in stats.per_bank:
    print(f"  bank {bank.bank_id}: {bank.occupancy:4d} rows, "
          f"step-1 miss rate {bank.step1_miss_rate:.3f} "
          f"(the paper's ~90% early-termination statistic)")
