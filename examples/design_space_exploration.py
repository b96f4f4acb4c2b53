#!/usr/bin/env python3
"""Design-space exploration of the 1.5T1Fe divider (paper Sec. V-C).

Three studies a cell designer would run with this library:

1. sweep TN/TP sizing and the MVT target, ranking candidates by their
   worst-case SL_bar margin (paper Eq. 1 co-optimization);
2. sweep the architecture grid (design x word length) on the metrics
   API's analytical tier — the whole Fig. 7-style grid in microseconds,
   no transient simulation;
3. compare the banked-macro cost of deploying each design at a router
   scale (4K entries x 64 bits).

Run:  python examples/design_space_exploration.py
"""

from fecam import DesignKind
from fecam.arch import TcamMacro
from fecam.cam import divider_margins, explore_sizing
from fecam.metrics import sweep

print("=" * 72)
print("1. Sizing exploration (1.5T1DG-Fe): top candidates by worst margin")
print("=" * 72)
candidates = explore_sizing(DesignKind.DG_1T5,
                            tn_lengths=(240e-9, 480e-9),
                            tp_lengths=(240e-9, 480e-9),
                            tml_vths=(0.30, 0.35, 0.40),
                            s_x_values=(0.70, 0.74, 0.78))
print(f"{'rank':>4} {'mis_margin':>11} {'mat_margin':>11}  functional")
for rank, margin in enumerate(candidates[:8], 1):
    print(f"{rank:>4} {margin.mismatch_margin:>11.3f} "
          f"{margin.match_margin:>11.3f}  {margin.functional}")

print()
print("frozen defaults:")
for design in (DesignKind.DG_1T5, DesignKind.SG_1T5):
    m = divider_margins(design)
    print(f"  {design}: mismatch +{m.mismatch_margin:.3f} V, "
          f"match +{m.match_margin:.3f} V")

print()
print("=" * 72)
print("2. Architecture grid on the analytical metrics tier (no SPICE)")
print("=" * 72)
table = sweep(designs=DesignKind.fefet_designs(),
              word_lengths=(16, 32, 64, 128), fidelity="analytical")
print(f"{'design':>12} {'N':>4} {'area um^2':>10} {'ps/search':>10} "
      f"{'fJ/bit':>7} {'EDP fJ*ns':>10}")
for i in range(len(table["design"])):
    print(f"{table['design'][i]:>12} {table['word_length'][i]:>4} "
          f"{table['cell_area_um2'][i]:>10.3f} "
          f"{table['latency_total_ps'][i]:>10.1f} "
          f"{table['energy_avg_fj'][i]:>7.3f} "
          f"{table['edp_fj_ns'][i]:>10.3f}")

print()
print("=" * 72)
print("3. Router-scale macro (4096 entries x 64 bits)")
print("=" * 72)
header = f"{'design':>12} {'banks':>5} {'area mm^2':>10} {'pJ/search':>10} {'ns':>6}"
print(header)
for design in (DesignKind.SG_2FEFET, DesignKind.DG_2FEFET,
               DesignKind.SG_1T5, DesignKind.DG_1T5):
    s = TcamMacro.for_capacity(design, entries=4096, word=64).summary()
    print(f"{s['design']:>12} {s['banks']:>5} {s['area_mm2']:>10.4f} "
          f"{s['search_energy_pj']:>10.1f} {s['search_latency_ns']:>6.2f}")
