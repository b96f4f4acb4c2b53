"""Golden pin: the simulated paper numbers, compared with a committed file.

``ledger.json`` beside this module records, for all five designs,

* every :func:`~fecam.cam.word.simulate_word_search` scenario at 16 and
  64 bits (latency, energy per bit and by group, steps run, end time,
  ML minimum, final SA output);
* every field of :func:`~fecam.metrics.evaluate` at 64 x 64 for the
  ``paper``, ``analytical`` and ``spice`` fidelities.

The comparison allows a relative 1e-6.  On the x86-64 Linux host that
generated the file (Python 3.11, NumPy 2.4) ``FECAM_KERNEL=numpy``
reproduces it exactly; the compiled kernel, whose LU is not LAPACK's,
reproduces it within 4.6e-10 relative (a near-zero ``sa_final``) and
every spice ``Fom`` latency or energy within 1.3e-15.  Another
NumPy or BLAS build may round the MNA solves differently; to size the
tolerance for that, every ``np.linalg.solve`` result was scaled by
``1 + u`` with random ``|u|`` up to 2.2e-7 (five seeds): no step count
or end time changed, no cell moved by more than 1.9e-9 relative (the
near-zero ``sa_final`` residuals), and no latency, energy or ``Fom``
field by more than 6.2e-13.  So 1e-6 leaves a margin of 500 against
rounding, yet a moved paper number (0.04% and up) fails.
The other Python versions and NumPy builds that CI installs were not
run against the file.  A change that moves a paper number fails here
with an old -> new table; regenerate the file on purpose with::

    PYTHONPATH=src python tests/paper/test_ledger.py --write

and name the moved cells in the change's description.

``--md`` prints the committed ledger's Table 4 (paper vs spice, 3
significant figures), the table README.md carries between its
``table4`` markers; a test keeps the two equal.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Dict, List, Tuple

from fecam.cam.word import (SCENARIOS_SINGLE_STEP, SCENARIOS_TWO_STEP,
                            simulate_word_search)
from fecam.designs import DesignKind
from fecam.metrics import DesignPoint, clear_registry, evaluate

LEDGER_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "ledger.json")
README_PATH = os.path.join(os.path.dirname(LEDGER_PATH), os.pardir,
                           os.pardir, "README.md")
TABLE4_BEGIN = "<!-- table4:begin -->"
TABLE4_END = "<!-- table4:end -->"
#: (Fom field, column title, scale to the paper's unit)
TABLE4_COLUMNS = (("latency_1step", "1-step latency (ps)", 1e12),
                  ("latency_total", "total latency (ps)", 1e12),
                  ("search_energy_avg", "avg energy (fJ/bit)", 1e15))
REL_TOL = 1e-6
WORD_LENGTHS = (16, 64)
FIDELITIES = ("paper", "analytical", "spice")
ABSENT = "<absent>"
WORD_FIELDS = ("latency", "energy_per_bit", "energy_by_group", "steps_run",
               "t_end", "ml_min", "sa_final")


def _plain(value):
    if isinstance(value, DesignKind):
        return value.value
    if isinstance(value, dict):
        return {key: _plain(value[key]) for key in sorted(value)}
    return value


def compute_ledger() -> Dict[str, Dict[str, dict]]:
    """Recompute every pinned number (no cached evaluation is reused)."""
    words: Dict[str, dict] = {}
    for design in DesignKind:
        scenarios = (SCENARIOS_TWO_STEP if design.uses_two_step_search
                     else SCENARIOS_SINGLE_STEP)
        for n_bits in WORD_LENGTHS:
            for scenario in scenarios:
                r = simulate_word_search(design, n_bits, scenario)
                words[f"{design.name}/{n_bits}/{scenario}"] = {
                    name: _plain(getattr(r, name)) for name in WORD_FIELDS}
    clear_registry()
    foms: Dict[str, dict] = {}
    for design in DesignKind:
        for fidelity in FIDELITIES:
            fom = evaluate(DesignPoint(design, rows=64, word_length=64),
                           fidelity)
            foms[f"{design.name}/{fidelity}"] = {
                f.name: _plain(getattr(fom, f.name))
                for f in dataclasses.fields(fom)}
    return {"word_search": words, "fom": foms}


def _cells(tree, prefix: str = "") -> Dict[str, object]:
    """Flatten nested dicts to ``a/b/c`` -> leaf."""
    if not isinstance(tree, dict):
        return {prefix: tree}
    flat: Dict[str, object] = {}
    for key, value in tree.items():
        flat.update(_cells(value, f"{prefix}/{key}" if prefix else key))
    return flat


def _same(old, new) -> bool:
    if isinstance(old, float) and isinstance(new, float):
        return math.isclose(old, new, rel_tol=REL_TOL, abs_tol=0.0)
    return old == new


def diff_ledger(old, new) -> List[Tuple[str, object, object]]:
    """Cells that differ: ``(path, old, new)``; a missing side reads
    ``ABSENT``."""
    before, after = _cells(old), _cells(new)
    return [(path, before.get(path, ABSENT), after.get(path, ABSENT))
            for path in sorted(set(before) | set(after))
            if path not in before or path not in after
            or not _same(before[path], after[path])]


def format_diff(rows: List[Tuple[str, object, object]]) -> str:
    width = max(len(path) for path, _, _ in rows)
    lines = [f"{'cell'.ljust(width)}  old -> new"]
    for path, old, new in rows:
        change = ""
        if isinstance(old, float) and isinstance(new, float) and old:
            change = f"  ({new / old - 1.0:+.3e})"
        lines.append(f"{path.ljust(width)}  {old!r} -> {new!r}{change}")
    return "\n".join(lines)


def _sig3(value: float) -> str:
    """``value`` to 3 significant figures, trailing zeros kept, never in
    exponent form (1147 -> 1150, 2.8 -> 2.80)."""
    if value == 0:
        return "0"
    digits = 2 - math.floor(math.log10(abs(value)))
    return f"{round(value, digits):.{max(digits, 0)}f}"


def render_table4(ledger) -> str:
    """Table 4 as Markdown: for each design the paper's and the spice
    tier's 1-step latency, total latency and average search energy at
    64 x 64, and their ratio (a single-step design has no 1-step
    column)."""
    header = ["design"]
    for _, title, _ in TABLE4_COLUMNS:
        header += [f"{title} paper", "spice", "spice/paper"]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    for design in DesignKind:
        paper = ledger["fom"][f"{design.name}/paper"]
        spice = ledger["fom"][f"{design.name}/spice"]
        row = [paper["design"]]
        for name, _, scale in TABLE4_COLUMNS:
            if name == "latency_1step" and not design.uses_two_step_search:
                row += ["—"] * 3
                continue
            row += [_sig3(paper[name] * scale), _sig3(spice[name] * scale),
                    _sig3(spice[name] / paper[name])]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def readme_table4() -> str:
    with open(README_PATH) as fh:
        text = fh.read()
    start = text.index(TABLE4_BEGIN) + len(TABLE4_BEGIN)
    return text[start:text.index(TABLE4_END, start)].strip()


def write_ledger(ledger) -> None:
    with open(LEDGER_PATH, "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
        fh.write("\n")


def test_paper_numbers_match_the_committed_ledger():
    with open(LEDGER_PATH) as fh:
        committed = json.load(fh)
    moved = diff_ledger(committed, compute_ledger())
    assert not moved, (
        f"{len(moved)} pinned paper number(s) moved; if intended, "
        f"regenerate with `python {__file__} --write`:\n"
        + format_diff(moved))


def test_readme_table4_is_the_ledger_render():
    with open(LEDGER_PATH) as fh:
        committed = json.load(fh)
    assert readme_table4() == render_table4(committed), (
        f"README.md's Table 4 is stale; paste `python {__file__} --md`")


def test_diff_reports_moved_missing_and_added_cells():
    old = {"a": {"x": 1.0, "y": 2, "gone": None}}
    new = {"a": {"x": 1.0 + 1e-12, "y": 3, "new": "s"}}
    assert diff_ledger(old, new) == [("a/gone", None, ABSENT),
                                     ("a/new", ABSENT, "s"),
                                     ("a/y", 2, 3)]
    assert "a/y  2 -> 3" in format_diff([("a/y", 2, 3)])
    assert diff_ledger(old, old) == []


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate ledger.json from this tree")
    parser.add_argument("--md", action="store_true",
                        help="print the committed ledger's Table 4")
    args = parser.parse_args()
    if args.md:
        with open(LEDGER_PATH) as fh:
            print(render_table4(json.load(fh)))
        sys.exit(0)
    fresh = compute_ledger()
    if args.write:
        write_ledger(fresh)
        print(f"wrote {LEDGER_PATH}")
        sys.exit(0)
    with open(LEDGER_PATH) as fh:
        moved = diff_ledger(json.load(fh), fresh)
    print(format_diff(moved) if moved else "ledger unchanged")
    sys.exit(1 if moved else 0)
