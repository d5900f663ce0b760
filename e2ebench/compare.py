#!/usr/bin/env python3
"""Summarises and compares sets of e2ebench runs (standard library only).

    python3 e2ebench/compare.py RUNS_A [RUNS_B]

A set is a directory of captured run outputs (stdout of run.py, one file
per run). Each file's header line names the workload and seed; its last
line is the JSON result. For every workload and metric the script prints
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, flagging

  WIDE      spread above the metric's bound in BENCHMARK.json (setup_s is
            exempt: only its median shift is bounded),
  BIMODAL   values that split into two separated clusters,
  WORSE     (two sets) B's median worse than A's by more than the bound,
  FAILED    a run that was not correct.

The exit code is 1 when anything is flagged, else 0.
"""

import json
import math
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HEADER = re.compile(r"^# e2ebench workload=(\S+) seed=(\d+)")
SPREAD_EXEMPT = {"setup_s"}


def load_catalogue():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        catalogue = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    better.update({m["name"]: m["better"] for m in bench["per_layer"]})
    layers = {name: info.get("layer", "") for name, info in
              catalogue["layers"].items()}
    return bounds, better, layers


def parse_run(text):
    """(workload, seed, result) from one run's output, or None."""
    workload = seed = None
    lines = [line for line in text.splitlines() if line.strip()]
    for line in lines:
        match = HEADER.match(line)
        if match:
            workload, seed = match.group(1), int(match.group(2))
            break
    if workload is None or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return workload, seed, result


def load_set(directory):
    """{workload: {"runs": n, "failed": n, "metrics": {name: [values]}}}"""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, errors="replace") as f:
            parsed = parse_run(f.read())
        if parsed is None:
            continue
        workload, _, result = parsed
        entry = runs.setdefault(workload, {"runs": 0, "failed": 0,
                                           "metrics": {}})
        entry["runs"] += 1
        if not result.get("correct", False):
            entry["failed"] += 1
        for metric, value in result.get("metrics", {}).items():
            entry["metrics"].setdefault(metric, []).append(value["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def bimodal(values):
    """True when sorted values split at their largest gap into two groups,
    each holding at least max(2, n/5) values, and the gap is more than three
    times the wider group's range."""
    values = sorted(values)
    n = len(values)
    need = max(2, math.ceil(n / 5))
    if n < 2 * need:
        return False
    gaps = [(values[i + 1] - values[i], i) for i in range(need - 1, n - need)]
    gap, i = max(gaps)
    low, high = values[:i + 1], values[i + 1:]
    width = max(low[-1] - low[0], high[-1] - high[0])
    return gap > 3 * width if width > 0 else gap > 0


def worse_by(a, b, direction):
    """How much worse median b is than median a, as a share of a."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return change if direction == "lower" else -change


def report(set_a, set_b, bounds, better, layers):
    flagged = False
    for workload in sorted(set(set_a) | set(set_b or {})):
        a = set_a.get(workload)
        b = (set_b or {}).get(workload)
        print("== %s: %s" % (workload, ", ".join(
            "%s %d runs (%d failed)" % (label, s["runs"], s["failed"])
            for label, s in (("A", a), ("B", b)) if s)))
        for s in (a, b):
            if s and s["failed"]:
                print("   FAILED runs present")
                flagged = True
        names = list((a or b)["metrics"])
        for name in names:
            bound = bounds.get(name)
            cells = []
            flags = []
            medians = []
            for s in (a, b):
                if not s or name not in s["metrics"]:
                    continue
                values = s["metrics"][name]
                q1, median, q3 = quartiles(values)
                medians.append(median)
                sp = spread(values)
                cells.append("median=%.6g q1=%.6g q3=%.6g spread=%.3f" %
                             (median, q1, q3, sp))
                if (bound is not None and sp > bound and
                        name not in SPREAD_EXEMPT):
                    flags.append("WIDE")
                if bimodal(values):
                    flags.append("BIMODAL")
            if len(medians) == 2 and bound is not None:
                change = worse_by(medians[0], medians[1], better.get(name))
                cells.append("B worse by %.3f" % change)
                if change > bound:
                    flags.append("WORSE")
            flagged = flagged or bool(flags)
            print("   %-28s %-10s %s %s%s" % (
                name, layers.get(name, "end_to_end"),
                "bound=%.2f" % bound if bound is not None else "",
                " | ".join(cells), "  " + " ".join(flags) if flags else ""))
    return flagged


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bounds, better, layers = load_catalogue()
    set_a = load_set(argv[1])
    set_b = load_set(argv[2]) if len(argv) == 3 else None
    return 1 if report(set_a, set_b, bounds, better, layers) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
