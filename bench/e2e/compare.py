#!/usr/bin/env python3
"""Compares two sets of benchmark reports written by run.py.

    python3 bench/e2e/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...
    python3 bench/e2e/compare.py --same-code --parent a*.json --change b*.json

Each report is one all-workload pass (`run.py --seed S --out FILE`). Reports
pair up in the order given, so run parent and change alternately. Each
(workload, metric) gets its own row: each side's median and quartiles, the
change in the median, and the pairs the change won (ties count for
neither). The verdict applies the bounds in BENCHMARK.json:

  gain        the change won at least 9/10 of the pairs and its median beats
              the parent's by more than the parent's quartile spread
  REGRESSION  the median is worse than the parent's by more than the bound
  unresolved  the parent's own spread exceeds the bound and not every change
              run beats every parent run ("better" when every one does)
  within      none of the above

--same-code checks repeatability instead: both sets come from the same code,
so the medians must agree within the bound and both spreads (quartile
distance over median) must stay inside it. setup_s is held to its median
alone: a few milliseconds of process start-up vary more from run to run
than their median does. --layers adds the
per-layer metrics. They have no bound, so a row gets only the gain label;
a layer that reads 0 on both sides (not exercised) gets no row. Plain
reports carry the wall-clock ones (core.runs_per_s, service.latency_p50_s,
...), traced reports all of them. Exit status 1 on a regression, a
disagreement, or an end-to-end metric missing on one side.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(paths, section):
    """workload -> metric -> values, in report order."""
    out = {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        for workload, entry in report["workloads"].items():
            if not entry.get("correct", False):
                sys.exit(f"compare.py: {path}: {workload} has wrong results")
            for metric, m in entry.get(section, {}).items():
                out.setdefault(workload, {}).setdefault(metric, []).append(m["value"])
    return out


def is_gain(a, b, qa, qb, sign, wins):
    """The change won 9/10 of the pairs and its median is better by more
    than the parent's quartile spread; `sign` is +1 when lower is better."""
    return (wins >= 0.9 * min(len(a), len(b)) and sign * (qb[1] - qa[1]) < 0
            and abs(qb[1] - qa[1]) > qa[2] - qa[0])


def verdict(a, b, qa, qb, sign, wins, bound, same_code, spread_gated):
    """Label for a row with a bound."""
    spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
    spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
    worse_by = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    if same_code:
        agree = abs(worse_by) <= bound and (
            not spread_gated or max(spread_a, spread_b) <= bound)
        return "agree" if agree else "DISAGREE"
    if is_gain(a, b, qa, qb, sign, wins):
        return "gain"
    if spread_a > bound:
        return "better" if all(sign * (y - x) < 0 for x in a for y in b) else "unresolved"
    return "REGRESSION" if worse_by > bound else "within"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--same-code", action="store_true")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    sections = ["end_to_end"] + (["per_layer"] if args.layers else [])

    ok = True
    print(f"{'workload':15} {'metric':28} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'delta':>8} {'wins':>6}  verdict")
    for section in sections:
        parent, change = load(args.parent, section), load(args.change, section)
        for w in spec["workloads"]:
            workload = w["name"]
            for m in spec[section]:
                name = m["name"]
                a = parent.get(workload, {}).get(name)
                b = change.get(workload, {}).get(name)
                unused = not any(a or []) and not any(b or [])
                if unused and section == "per_layer":
                    continue  # not measured, or a layer this workload skips
                if not a or not b:
                    print(f"{workload:15} {name:28} missing on one side")
                    ok = ok and section != "end_to_end"
                    continue
                qa, qb = quartiles(a), quartiles(b)
                sign = 1 if m["better"] == "lower" else -1
                delta = (qb[1] - qa[1]) / qa[1] * 100 if qa[1] else 0.0
                wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
                if "bound" in m:
                    label = verdict(a, b, qa, qb, sign, wins, m["bound"], args.same_code,
                                    spread_gated=name != "setup_s")
                    ok = ok and label not in ("REGRESSION", "DISAGREE")
                else:
                    gain = not args.same_code and is_gain(a, b, qa, qb, sign, wins)
                    label = "gain" if gain else ""
                print(f"{workload:15} {name:28} "
                      f"{qa[1]:12.5g} [{qa[0]:10.5g}, {qa[2]:10.5g}] "
                      f"{qb[1]:12.5g} [{qb[0]:10.5g}, {qb[2]:10.5g}] "
                      f"{delta:+7.2f}% {wins:>2}/{min(len(a), len(b)):<3}  {label}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
