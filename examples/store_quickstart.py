#!/usr/bin/env python3
"""The associative-store API in five minutes.

One `CamStore` front door serves every workload; the backing layout —
one bank or a sharded, cached multi-bank fabric — is a `StoreConfig`
edit that never changes answers (property-tested).

Run:  python examples/store_quickstart.py
"""

from fecam import CamStore, StoreConfig
from fecam.apps import SeedIndex, TcamRouter
from fecam.units import FJ

print("=" * 70)
print("1. CamStore on one bank")
print("=" * 70)
store = CamStore(StoreConfig(width=16, rows=64))
store.insert("1010XXXX01010101", key="rule-a", payload={"action": "allow"})
store.insert("1111000011110000", key="rule-b")
store.insert("X" * 16, key="catch-all", priority=1e9)  # worst priority
print(store)

result = store.search("1010111101010101")
print(f"matches (priority order): {result.match_keys}")
print(f"best match payload: {result.best.payload}")
print(f"search energy: {result.energy / FJ:.2f} fJ, "
      f"latency {result.latency * 1e9:.2f} ns")

print()
print("=" * 70)
print("2. Scaling is a config edit: 8 banks + query cache")
print("=" * 70)
big = CamStore(StoreConfig(width=16, rows=512, banks=8, cache_size=256))
big.insert_many([f"{i:010b}XXXXXX" for i in range(256)],
                keys=[f"prefix-{i}" for i in range(256)])
print(big)

queries = [f"{i % 32:010b}101010" for i in range(1000)]  # hot set
results = big.search_batch(queries)
stats = big.stats
print(f"answered {stats.searches} queries; only {stats.array_searches} "
      f"fired the arrays (cache hit rate {stats.cache_hit_rate:.0%})")
print(f"total array energy: {stats.energy_total / FJ:.0f} fJ")

print()
print("=" * 70)
print("3. Apps take the same config — fabric-backed router + genomics")
print("=" * 70)
router = TcamRouter(capacity=64,
                    store_config=StoreConfig(banks=4, cache_size=64))
router.add_route("0.0.0.0/0", "default")
router.add_route("10.0.0.0/8", "core")
router.add_route("10.1.0.0/16", "edge")
print(f"lookup_batch: "
      f"{router.lookup_batch(['10.1.2.3', '10.9.9.9', '8.8.8.8'])}")
print(f"router store: searches={router.store_stats.searches} on "
      f"{router.store_stats.banks} banks")

index = SeedIndex("ACGTACGTNNGTACGTACGT", k=4,
                  store_config=StoreConfig(banks=2))
hits = index.lookup_batch(["TACG", "ACGT"])
print(f"seed hits: {[[h.position for h in hit_list] for hit_list in hits]}")
print(f"genomics store backend: {index.store_stats.backend}")
