#!/usr/bin/env python3
"""Quickstart: the three tiers of the library in one script.

1. Behavioral tier — store/search ternary words at application speed.
2. Circuit tier — SPICE-simulate one 1.5T1DG-Fe word search end to end.
3. Architecture tier — the paper's Table IV figure-of-merit row.

Run:  python examples/quickstart.py
"""

from fecam import DesignKind
from fecam.cam import simulate_word_search
from fecam.functional import TernaryCAM
from fecam.metrics import DesignPoint, evaluate
from fecam.units import FJ, PS

print("=" * 70)
print("1. Behavioral ternary CAM (numpy bit-parallel engine)")
print("=" * 70)
tcam = TernaryCAM(rows=8, width=16, design=DesignKind.DG_1T5)
tcam.write(0, "1010XXXX01010101")   # wildcards = don't-care bits
tcam.write(1, "1111000011110000")
tcam.write(2, "X" * 16)             # matches everything
stats = tcam.search("1010111101010101")
print(f"query matched rows: {stats.matches}")
print(f"rows eliminated in search step 1: {stats.step1_eliminated}")
print(f"search energy (early-termination aware): {stats.energy / FJ:.2f} fJ")
print(f"worst-case latency: {stats.latency / PS:.0f} ps")

print()
print("=" * 70)
print("2. Circuit tier: SPICE transient of one 64-bit 1.5T1DG-Fe search")
print("=" * 70)
result = simulate_word_search(DesignKind.DG_1T5, n_bits=64,
                              scenario="step2_miss")
print(f"stored : {result.stored[:32]}...")
print(f"query  : {result.query[:32]}...")
print(f"search steps run: {result.steps_run} (two-step search, Tab. II)")
print(f"match-line minimum: {result.ml_min:.3f} V")
print(f"SA decision correct: {result.functionally_correct}")
print(f"latency (precharge release -> SA): {result.latency / PS:.0f} ps")
for group, energy in sorted(result.energy_by_group.items()):
    print(f"  energy[{group:>13s}] = {energy / FJ:7.2f} fJ")

print()
print("=" * 70)
print("3. Architecture tier: paper Tab. IV row for the proposed design")
print("=" * 70)
fom = evaluate(DesignPoint(DesignKind.DG_1T5, word_length=64, rows=64),
               "spice")
for key, value in fom.as_row().items():
    print(f"  {key:>18s}: {value}")
