"""Golden pin: the simulated paper numbers, compared with a committed file.

``ledger.json`` beside this module records, for all five designs,

* every :func:`~fecam.cam.word.simulate_word_search` scenario at 16 and
  64 bits (latency, energy per bit and by group, steps run, end time,
  ML minimum, final SA output);
* every field of :func:`~fecam.metrics.evaluate` at 64 x 64 for the
  ``paper``, ``analytical`` and ``spice`` fidelities.

The comparison allows a relative 1e-6.  On the x86-64 Linux host that
generated the file (Python 3.11, NumPy 2.4) both kernels,
``FECAM_KERNEL=compiled`` and ``numpy``, reproduce it exactly.  Another
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
    args = parser.parse_args()
    fresh = compute_ledger()
    if args.write:
        write_ledger(fresh)
        print(f"wrote {LEDGER_PATH}")
        sys.exit(0)
    with open(LEDGER_PATH) as fh:
        moved = diff_ledger(json.load(fh), fresh)
    print(format_diff(moved) if moved else "ledger unchanged")
    sys.exit(1 if moved else 0)
