#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one seeded stream through every door.

    python3 benchmarks/e2e/run.py                  # all six workloads
    python3 benchmarks/e2e/run.py --trace 1        # + the traced run of each
    python3 benchmarks/e2e/run.py --repeat 10      # ten runs each, same seed
    python3 benchmarks/e2e/run.py --smoke          # CI-sized self-check
    python3 benchmarks/e2e/run.py compare a.json b.json
    python3 benchmarks/e2e/run.py --workload serve_reads --seed 7 \\
        --seconds 10 --trace 0                     # one run, as the driver asks

Each workload runs in a fresh subprocess (``child.py``) under a
watchdog.  With ``--workload`` the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``); the exit code is non-zero when any
check failed.  Metric names, units, directions and workloads live in
``BENCHMARK.json`` at the repo root; ``scope.py`` adds which workload
reports which metric.
"""

import argparse
import datetime
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import scope  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 20230726
#: The driver allows a run 180 s; the child dumps its threads and exits
#: at CHILD_WATCHDOG_S, and is killed with its process group soon after.
CHILD_WATCHDOG_S = 150.0
PARENT_TIMEOUT_S = 165.0
#: A metric with bound 0 must repeat to this share of its value.
EXACT = 1e-6
#: Runs of one workload it takes to speak of a spread (quartiles).
MIN_RUNS = 4


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool) -> Optional[dict]:
    """One workload in a fresh subprocess; its parsed result, or ``None``
    when it crashed, wedged or printed no result."""
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"scratch-{os.getpid()}-{workload}")
    shutil.rmtree(scratch, ignore_errors=True)
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scratch", scratch, "--watchdog", str(CHILD_WATCHDOG_S)]
    if trace:
        command += ["--spans-out",
                    os.path.join(OUT, f"trace-{workload}.jsonl")]
    if smoke:
        command.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in
                                       [env.get("PYTHONPATH")] if p])
    # A session of its own, so a wedged run dies with every process it
    # spawned (the cluster's workers).
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=PARENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
        print(f"[{workload}] wedged: killed after {PARENT_TIMEOUT_S:.0f} s",
              file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        # Shared-memory arenas and durable directories live under the
        # scratch directory, so a killed run leaves nothing behind.
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        print(f"[{workload}] child exited with code {proc.returncode} "
              f"and no result", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        return None
    return result if isinstance(result, dict) and "metrics" in result \
        else None


def measure(spec: dict, workload: str, seed: int, seconds: float,
            trace: int, smoke: bool) -> Optional[dict]:
    """Run one workload once and sort what it measured by the spec.

    Every mode of this file goes through here.  ``metrics`` holds the
    listed metrics the run reported, in the spec's units; ``problems``
    names failed operations, a metric the workload must report (see
    ``scope.reported_by``) and did not, and a unit that differs from the
    spec's.  An untraced run owes the end-to-end metrics, a traced run
    the per-layer list.
    """
    result = run_child(workload, seed, seconds, trace, smoke)
    if result is None:
        return None
    append_history(result, spec)
    problems: List[str] = []
    if result["attempted"] < 1:
        problems.append("nothing was attempted")
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} "
                        f"operations failed")
    owed = {entry["name"] for entry in
            (spec["per_layer"] if trace else scope.gates(spec))}
    metrics: Dict[str, dict] = {}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        name = entry["name"]
        measured = result["metrics"].get(name)
        if measured is None:
            if name in owed and workload in scope.reported_by(name):
                problems.append(f"{name} was not reported")
            continue
        if measured["unit"] != entry["unit"]:
            problems.append(f"{name} measured in {measured['unit']!r}, "
                            f"listed in {entry['unit']!r}")
        metrics[name] = {"value": measured["value"], "unit": entry["unit"]}
    for problem in problems:
        print(f"[{workload}] {problem}", file=sys.stderr)
    return {"workload": workload, "seed": seed, "trace": trace,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "problems": problems,
            "metrics": metrics, "phases": result["phases"],
            "fingerprint": result["fingerprint"]}


def host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip()) if sha else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_sha": sha, "git_dirty": dirty, "nproc": os.cpu_count(),
            "cpu_model": model, "machine": platform.machine(),
            "kernel_release": platform.release()}




def append_history(result: dict, spec: dict) -> None:
    """One line per run: what ran, where, and what it measured."""
    record = {"when": datetime.datetime.now(datetime.timezone.utc)
              .isoformat(timespec="seconds"),
              "workload": result["workload"], "seed": result["seed"],
              "seconds": result["seconds"], "trace": result["trace"],
              "wall_s": result["wall_s"], "attempted": result["attempted"],
              "failed": result["failed"], **host(),
              **result["fingerprint"],
              "end_to_end": {entry["name"]:
                             result["metrics"][entry["name"]]["value"]
                             for entry in scope.gates(spec)
                             if entry["name"] in result["metrics"]}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "history.jsonl"), "a") as handle:
        handle.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# one run (the driver's contract)
# ---------------------------------------------------------------------------

def single_run(args, spec: dict) -> int:
    run = measure(spec, args.workload, args.seed, args.seconds, args.trace,
                  args.smoke)
    if run is None or run["attempted"] < 1:
        return 1
    if args.trace:
        # The driver reads every per-layer name from every workload: a
        # layer the workload never enters did no work there and reads 0.
        # One it does enter and that went unreported is a problem above.
        metrics = {entry["name"]: run["metrics"].get(
            entry["name"], {"value": 0.0, "unit": entry["unit"]})
            for entry in spec["per_layer"]}
    else:
        metrics = {entry["name"]: run["metrics"][entry["name"]]
                   for entry in spec["end_to_end"]
                   if entry["name"] in run["metrics"]}
    correct = not run["problems"]
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# the full set
# ---------------------------------------------------------------------------

def full_set(args, spec: dict) -> int:
    """Every workload, ``--repeat`` times with the same seed (so that the
    spread is the host's and simulated values must repeat exactly), each
    followed by its traced run under ``--trace 1``."""
    runs = []
    failures = 0
    for _ in range(args.repeat):
        for workload in [w["name"] for w in spec["workloads"]]:
            row = {"workload": workload, "seed": args.seed, "metrics": {}}
            for trace in ((0, 1) if args.trace else (0,)):
                run = measure(spec, workload, args.seed, args.seconds, trace,
                              args.smoke)
                if run is None:
                    failures += 1
                    break
                failures += bool(run["problems"])
                if not trace:
                    row["phases"] = run["phases"]
                    row["fingerprint"] = run["fingerprint"]
                # What the untraced run measured is never replaced by the
                # traced run's number.
                row["metrics"] = {**run["metrics"], **row["metrics"]}
            runs.append(row)
    report(runs, spec)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    path = os.path.join(OUT, f"e2e-{stamp}.json")
    with open(path, "w") as handle:
        json.dump({"host": host(), "seed": args.seed,
                   "seconds": args.seconds, "runs": runs}, handle, indent=1)
    print(f"\nwrote {os.path.relpath(path, ROOT)}; history in "
          f"{os.path.relpath(os.path.join(OUT, 'history.jsonl'), ROOT)}")
    return 1 if failures else 0


def values_of(runs: List[dict], workload: str, name: str) -> List[float]:
    return [run["metrics"][name]["value"] for run in runs
            if run["workload"] == workload and name in run["metrics"]]


def report(runs: List[dict], spec: dict) -> None:
    """Every end-to-end metric by name with its unit, one row per
    workload that reports it (median over the repeats, with the spread
    when repeated); then the per-layer metrics of the last repeat."""
    print("\nend-to-end metrics (tracing off)")
    workloads = list(dict.fromkeys(run["workload"] for run in runs))
    gated = scope.gates(spec)
    for entry in gated:
        print(f"  {entry['name']} [{entry['unit']}, {entry['better']} is "
              f"better, bound {entry['bound']:.0%}]")
        for workload in workloads:
            if workload not in scope.reported_by(entry["name"]):
                continue
            values = values_of(runs, workload, entry["name"])
            if not values:
                print(f"    {workload:<14} (no result)")
                continue
            text = f"    {workload:<14} {statistics.median(values):>16.6f}"
            if len(values) >= MIN_RUNS:
                text += f"   spread {relative_spread(values):.2%} of " \
                        f"{len(values)} runs"
            print(text)
    print("\nper-layer metrics (no bound; a layer a workload never enters "
          "is left out)")
    gated_names = {entry["name"] for entry in gated}
    for workload in workloads:
        last = [run for run in runs if run["workload"] == workload][-1]
        print(f"  {workload}")
        for name, metric in last["metrics"].items():
            if name not in gated_names:
                print(f"    {name:<44} {metric['value']:>16.4f} "
                      f"{metric['unit']}")


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Hold two full sets (``a`` the parent, ``b`` the change) to the
    bound of every end-to-end metric on every workload that reports it;
    one row per workload."""
    with open(path_a) as handle:
        runs_a = json.load(handle)["runs"]
    with open(path_b) as handle:
        runs_b = json.load(handle)["runs"]
    worse = 0
    for workload in dict.fromkeys(run["workload"] for run in runs_a):
        print(workload)
        for entry in scope.gates(spec):
            if workload not in scope.reported_by(entry["name"]):
                continue
            verdict = judge(values_of(runs_a, workload, entry["name"]),
                            values_of(runs_b, workload, entry["name"]), entry)
            worse += verdict.startswith("worse")
            print(f"  {entry['name']:<24} bound {entry['bound']:>4.0%}  "
                  f"{verdict}")
    print("\nunresolved: the run-to-run spread of a set is wider than the "
          "bound and the two sets overlap; better/worse: the medians differ "
          "by more than the bound, or every run of one set beats every run "
          "of the other; same: within the bound.")
    return 1 if worse else 0


def judge(a: List[float], b: List[float], entry: dict) -> str:
    if not a or not b:
        return "n/a"
    median_a, median_b = statistics.median(a), statistics.median(b)
    if median_a:
        change = (median_b - median_a) / abs(median_a)
    else:
        change = 0.0 if median_b == median_a else math.copysign(
            math.inf, median_b)
    gain = (change if entry["better"] == "higher" else -change) + 0.0
    text = f"{gain:+.2%} ({median_a:.6g} -> {median_b:.6g})"
    if entry["bound"] == 0:
        # Simulated values and the failure ratio: every run of both sets
        # must read the same, so there is no spread to resolve.
        for values, median in ((a, median_a), (b, median_b)):
            if any(abs(v - median) > EXACT * abs(median) for v in values):
                return f"worse {text}: does not repeat, " \
                       f"{min(values):.6g} to {max(values):.6g}"
        if abs(median_b - median_a) <= EXACT * abs(median_a):
            return f"same {text}"
        return f"{'better' if gain > 0 else 'worse'} {text}"
    bound = entry["bound"]
    if min(len(a), len(b)) < MIN_RUNS:
        return f"unresolved {text}: fewer than {MIN_RUNS} runs a side"
    spread = max(relative_spread(a), relative_spread(b))
    if (entry["better"] == "higher") == (gain > 0):
        separated = min(b) > max(a)
    else:
        separated = max(b) < min(a)
    if spread > bound and not separated:
        return f"unresolved {text}, spread {spread:.1%}"
    if abs(gain) <= bound:
        return f"same {text}"
    return f"{'better' if gain > 0 else 'worse'} {text}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "fecam")):
        print("benchmarks/e2e needs the repository it measures "
              "(src/fecam is missing)", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    unscoped = [entry["name"] for entry in
                spec["end_to_end"] + spec["per_layer"]
                if not scope.reported_by(entry["name"])]
    if names != list(scope.WORKLOADS) or unscoped:
        print(f"BENCHMARK.json and scope.py disagree: workloads {names}, "
              f"metrics no workload reports {unscoped}", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare <a.json> <b.json>", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], spec)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one run; the last line is the result JSON")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # The run length is the benchmark's (run_seconds of BENCHMARK.json);
    # the driver hands it back through this argument.
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (after the untraced one, "
                             "without --workload)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full set: runs per workload, same seed")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny table, 1 s windows, traced")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds, args.trace = 1.0, 1
    if args.workload:
        return single_run(args, spec)
    return full_set(args, spec)


if __name__ == "__main__":
    sys.exit(main())
