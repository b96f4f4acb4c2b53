"""The paper's claims, asserted against the library.

One test per table, figure or section claim of the paper.  Each calls
the library directly at the parameters the claim is stated for;
absolute agreement with the paper's PDK numbers is not the goal,
orderings and approximate factors are.

Claims already pinned elsewhere in tier-1 are not repeated here:
Fig. 1 device metrics (``tests/devices/test_fefet.py``), the Tab. II/III
voltage sets (``tests/devices/test_calibration.py``), Tab. IV cell areas
(``tests/arch/test_arch.py::TestGeometry``), write energies and the
frozen divider margins (``tests/cam/test_ops_and_sizing.py``), which
designs share drivers (``tests/arch/test_arch.py``), the closed-form
estimator (``tests/arch/test_extensions.py``) and analytical-vs-SPICE
agreement over the Fig. 7 grid (``tests/metrics/test_metrics.py``).
"""

import pytest

from fecam.arch import SharedDriverMat
from fecam.cam import TcamArrayCircuit, simulate_word_search
from fecam.cam.states import ternary_match
from fecam.designs import DesignKind
from fecam.metrics import DesignPoint, evaluate, sweep

SG, DG = DesignKind.SG_2FEFET, DesignKind.DG_2FEFET
SG15, DG15 = DesignKind.SG_1T5, DesignKind.DG_1T5
ONE_FEFET = (SG15, DG15)

#: Truth-table word width; the probe cell is bit 0.  Sub-4-bit words
#: are not exercised: with almost no charge on the ML the inter-step
#: coupling blip alone can flip them (real TCAM words are 16 bits or
#: wider, cf. the Fig. 7 sweep starting at 16).
TRUTH_TABLE_WORD = 16


@pytest.mark.parametrize("design", (DG, DG15, SG15), ids=lambda d: d.name)
def test_cell_truth_tables(design):
    """Tab. I (2DG), II (1.5T1DG) and III (1.5T1SG): every ternary state
    of a probe cell against both query bits, SPICE-verified inside a
    16-bit word whose padding cells store 'X'."""
    pad = TRUTH_TABLE_WORD - 1
    for stored_sym in "01X":
        for query_bit in "01":
            stored = stored_sym + "X" * pad
            query = query_bit + "0" * pad
            array = TcamArrayCircuit(design, rows=1, cols=TRUTH_TABLE_WORD)
            array.program(0, stored)
            measured = array.search(query).matches[0]
            assert measured == ternary_match(stored, query), (
                design, stored_sym, query_bit)


def test_table4_search_orderings():
    """Tab. IV at 64x64, SPICE tier: both 1.5T1Fe cells beat both
    2FeFET cells per evaluation (the SG/DG 1.5T pair within 10%), 2SG
    beats 2DG, and each DG flavour costs more search energy than its SG
    sibling (well caps at the 2 V select level)."""
    rows = {d: evaluate(DesignPoint(d, rows=64, word_length=64),
                        "spice").as_row()
            for d in DesignKind.fefet_designs()}
    lat1 = {d: r["latency_1step_ps"] for d, r in rows.items()}
    assert lat1[SG15] < lat1[DG15] * 1.10
    assert lat1[SG15] < lat1[SG] < lat1[DG]
    assert lat1[DG15] < lat1[SG]
    energy = {d: r["energy_avg_fj"] for d, r in rows.items()}
    assert energy[DG] > energy[SG]
    assert energy[DG15] > energy[SG15]


def test_fig4_two_step_transients():
    """Fig. 4, 1.5T1DG-Fe, 64-bit word: a step-1 miss terminates after
    one step with SeLb grounded, a step-2 miss runs both steps, and a
    match keeps ML above the 0.4 V sense threshold."""
    runs = {scenario: simulate_word_search(DG15, 64, scenario)
            for scenario in ("step1_miss", "step2_miss", "match")}
    s1, s2, match = runs["step1_miss"], runs["step2_miss"], runs["match"]
    assert s1.steps_run == 1 and not s1.matched
    assert s2.steps_run == 2 and not s2.matched
    assert match.matched and match.expected_match
    assert s1.latency < s2.latency
    assert match.result.voltage("ml").min() > 0.4
    assert s1.result.voltage("selb").max() < 0.1
    assert s2.result.voltage("selb").max() > 1.5


def test_fig6_shared_driver_mat():
    """Fig. 6: sharing (DG designs only) halves the driver count, no
    sharing keeps it; the +/-4 V SG drivers are bigger than the 2 V DG
    ones."""
    by = {d: SharedDriverMat(d, rows=64, cols=64).savings_summary()
          for d in DesignKind.fefet_designs()}
    for d, mat in by.items():
        factor = 2 if mat["sharing_supported"] else 1
        assert mat["drivers_shared"] * factor == mat["drivers_unshared"], d
    assert (by[SG]["area_unshared_um2"] / by[SG]["drivers_unshared"]
            > by[DG]["area_unshared_um2"] / by[DG]["drivers_unshared"])


def test_fig7_word_length_trends():
    """Fig. 7 over 16-128-bit words, stated on the per-evaluation
    (1-step) latency: our two-step totals carry fixed window overhead
    the paper's faster devices do not."""
    word_lengths = (16, 32, 64, 128)
    table = sweep(designs=DesignKind.fefet_designs(),
                  word_lengths=word_lengths, rows=(64,), fidelity="spice")
    lat, energy = {}, {}
    for i, name in enumerate(table["design"]):
        d = DesignKind(name)
        lat.setdefault(d, []).append(float(table["latency_1step_ps"][i]))
        energy.setdefault(d, []).append(float(table["energy_avg_fj"][i]))
    # (a) latency grows with word length for every design.
    for d, seq in lat.items():
        assert all(b >= a * 0.98 for a, b in zip(seq, seq[1:])), d
    # (b) at every word length both 1.5T1Fe designs beat both 2FeFET
    # designs, 2SG beats 2DG, and the 1.5T pair is within 25%.
    for i in range(len(word_lengths)):
        slowest_1t5 = max(lat[SG15][i], lat[DG15][i])
        assert slowest_1t5 < lat[SG][i] < lat[DG][i]
        assert lat[SG15][i] < lat[DG15][i] * 1.25
    # (c) the 1.5T designs' absolute latency growth is the flattest.
    growth = {d: seq[-1] - seq[0] for d, seq in lat.items()}
    assert growth[SG15] < growth[SG]
    assert growth[DG15] < growth[DG]
    # (d) energy/bit falls with N for 2FeFET (SA amortization) and rises
    # for the 1.5T1Fe designs (divider static term).
    assert energy[SG][-1] < energy[SG][0]
    assert energy[SG15][-1] > energy[SG15][0]
    assert energy[DG15][-1] > energy[DG15][0]


@pytest.mark.parametrize("design", ONE_FEFET, ids=lambda d: d.name)
def test_early_termination_saving(design):
    """Sec. III-B3: the early-termination saving grows monotonically
    with the step-1 miss rate and is material at the paper's 90%."""
    fom = evaluate(DesignPoint(design, word_length=64), "spice")
    e1, e2 = fom.search_energy_1step, fom.search_energy_total
    rates = (0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0)
    savings = {p: 100.0 * (1 - (p * e1 + (1 - p) * e2) / e2) for p in rates}
    series = [savings[p] for p in rates]
    assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))
    assert savings[0.9] > 15.0
