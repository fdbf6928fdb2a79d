#!/usr/bin/env python3
"""Builds the summagen_e2e benchmark binary and runs the benchmark's workloads.

One workload, as a harness calls it (the last stdout line is the result):

    python3 bench/e2e/run.py --workload node_numeric --seed 1 --seconds 10 --trace 0

Every workload, each in its own processes, printing `name{workload} value unit`
lines and writing one JSON file with the machine context:

    python3 bench/e2e/run.py --seed 1            # plain pass
    python3 bench/e2e/run.py --seed 1 --trace    # plain and traced passes
    python3 bench/e2e/run.py --quick             # reduced sizes, both passes

A plain run of a workload is SETUP_ROUNDS processes: set-up-only ones first,
then the one that measures. Each set-up round is timed from the moment this
script spawns the process, so process start-up counts. A traced run is
paired with a plain one of the same seed, which supplies the wall-clock
per-layer metrics (core.runs_per_s, service.latency_p50_s, ...) and the
baseline of bench.trace_overhead.

The build goes to .bench_build/summagen_e2e under the repository root, and
results and span files to .bench_build/results. Every run checks that the
metric names and units it reports match BENCHMARK.json exactly.
Exit status: 0 all results correct, 1 a wrong result or a failure, 2 an
invalid open-loop run (its load generator ran late).
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "summagen_e2e"
RESULTS = ROOT / ".bench_build" / "results"
BINARY = BUILD / "summagen_e2e"
SETUP_ROUNDS = 9
INVALID_ATTEMPTS = 5
DEADLINE_S = 160
QUICK_SECONDS = 1


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD.parent / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "summagen_e2e",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log})")


class Workload:
    """Runs one workload's processes under one deadline."""

    def __init__(self, name, seed, seconds, quick):
        self.name, self.seed, self.seconds, self.quick = name, seed, seconds, quick
        self.deadline = time.monotonic() + DEADLINE_S
        RESULTS.mkdir(parents=True, exist_ok=True)

    def spawn(self, stem, extra):
        """Runs summagen_e2e once; returns (exit code, JSON path)."""
        out = RESULTS / f"{self.name}-seed{self.seed}{stem}.json"
        out.unlink(missing_ok=True)
        cmd = [str(BINARY), "--workload", self.name, "--seed", str(self.seed),
               "--seconds", str(self.seconds), "--json", str(out)] + extra
        if self.quick:
            cmd += ["--quick"]
        # The tune cache otherwise comes from $HOME; pinning it inside the
        # build directory keeps runs independent of whatever the host has
        # tuned, and the benchmark inside its checkout.
        env = dict(os.environ, SUMMAGEN_TUNE_CACHE=str(BUILD / "tune.json"))
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            code = subprocess.run(cmd, env=env,
                                  timeout=self.deadline - time.monotonic()).returncode
        except subprocess.TimeoutExpired:
            fail(f"{self.name}: summagen_e2e exceeded {DEADLINE_S} s")
        return code, out

    def run(self, traced, setup_rounds):
        """Set-up-only rounds, then the measuring run; returns its result.

        Exit 2 from the measuring run marks an invalid open-loop window (the
        host stalled the load generator); it is measured again rather than
        reported, within the same deadline."""
        rounds, attempted, failed, errors = [], 0, 0, []
        for k in range(setup_rounds - 1):
            code, out = self.spawn(f"-setup{k}", ["--setup-only"])
            if code != 0:
                fail(f"{self.name}: set-up round exited {code}")
            r = json.loads(out.read_text())
            rounds.append(r["setup_round_s"])
            attempted, failed = attempted + r["attempted"], failed + r["failed"]
            errors += r["errors"]
        stem = "-trace" if traced else ""
        extra = ["--setup-rounds", ",".join(repr(s) for s in rounds)] if rounds else []
        if traced:
            extra += ["--trace", str(RESULTS / f"{self.name}-seed{self.seed}-trace.trace.json")]
        for attempt in range(1, INVALID_ATTEMPTS + 1):
            code, out = self.spawn(stem, extra)
            if code != 2:
                break
            print(f"run.py: {self.name}: invalid run {attempt} of {INVALID_ATTEMPTS}",
                  file=sys.stderr)
        if code != 0:
            fail(f"{self.name}: summagen_e2e exited {code}", 2 if code == 2 else 1)
        result = json.loads(out.read_text())
        result["attempted"] += attempted
        result["failed"] += failed
        result["errors"] += errors
        result["correct"] = result["correct"] and failed == 0
        return result


def merge_plain(traced, plain):
    """Completes a traced run's per-layer metrics from its paired plain run:
    the wall-clock measures, and bench.trace_overhead, the traced run's
    median latency over the plain run's, minus one."""
    def latency(r):
        wall = r["wall"]
        return wall["core.run_pmm_p50_s"]["value"] or wall["service.latency_p50_s"]["value"]
    traced["per_layer"].update(plain["wall"])
    traced["per_layer"]["bench.trace_overhead"] = {
        "value": latency(traced) / latency(plain) - 1.0, "unit": "fraction"}
    for key in ("attempted", "failed"):
        traced[key] += plain[key]
    traced["errors"] += plain["errors"]
    traced["correct"] = traced["correct"] and plain["correct"]


def check_schema(spec, result, traced):
    """Metric names and units must match BENCHMARK.json in both directions."""
    for key in ["end_to_end"] + (["per_layer"] if traced else []):
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result.get(key, {}).items()}
        if want != got:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
            fail(f"{result['workload']}: {key} differs from BENCHMARK.json: "
                 f"missing {missing}, unexpected {extra}, unit mismatch {units}")


def single(args, spec):
    build()
    w = Workload(args.workload, args.seed, args.seconds, args.quick)
    if args.trace:
        result = w.run(traced=True, setup_rounds=1)
        merge_plain(result, w.run(traced=False, setup_rounds=1))
    else:
        result = w.run(traced=False, setup_rounds=SETUP_ROUNDS)
    check_schema(spec, result, bool(args.trace))
    metrics = result["per_layer" if args.trace else "end_to_end"]
    for name, m in metrics.items():
        print(f"{name}{{{args.workload}}} {m['value']} {m['unit']}")
    for error in result["errors"]:
        print(f"run.py: {args.workload}: {error}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown"
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return rev.stdout.strip() if rev.returncode == 0 else "unknown"


def build_type():
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def every_workload(args, spec):
    build()
    passes = [False, True] if args.trace or args.quick else [False]
    report = {"seed": args.seed, "seconds": args.seconds, "quick": args.quick,
              "context": {"nproc": os.cpu_count(), "build_type": build_type(),
                          "git_revision": git_revision()},
              "workloads": {}}
    plain = {}
    ok = True
    for traced in passes:
        started = time.monotonic()
        for w in spec["workloads"]:
            name = w["name"]
            runner = Workload(name, args.seed, args.seconds, args.quick)
            if traced:
                result = runner.run(traced=True, setup_rounds=1)
                merge_plain(result, plain[name])
            else:
                result = plain[name] = runner.run(traced=False, setup_rounds=SETUP_ROUNDS)
            check_schema(spec, result, traced)
            ctx = result["context"]
            report["context"].update(cpu_model=ctx["cpu_model"],
                                     simd_tier=ctx["simd_tier"])
            entry = report["workloads"].setdefault(name, {})
            entry["pool_width"] = ctx["pool_width"]
            entry["correct"] = entry.get("correct", True) and result["correct"]
            entry["attempted"] = result["attempted"]
            entry["failed"] = result["failed"]
            if traced:
                entry["per_layer"] = result["per_layer"]
                shown = result["per_layer"]
            else:
                entry["end_to_end"] = result["end_to_end"]
                entry["per_layer"] = dict(result["wall"])
                shown = {**result["end_to_end"], **result["wall"]}
            for metric, m in shown.items():
                print(f"{metric}{{{name}}} {m['value']} {m['unit']}")
            for error in result["errors"]:
                print(f"run.py: {name}: {error}", file=sys.stderr)
            ok = ok and result["correct"]
        label = "traced" if traced else "plain"
        print(f"# {label} pass: {time.monotonic() - started:.1f} s", file=sys.stderr)
    out = Path(args.out) if args.out else RESULTS / (
        f"e2e-seed{args.seed}{'-quick' if args.quick else ''}"
        f"{'-trace' if args.trace and not args.quick else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"# wrote {out}", file=sys.stderr)
    return 0 if ok else 1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, each in its own processes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help=f"measurement window per run (default: {spec['run_seconds']})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1],
                        help="per-layer metrics and span files (all workloads: "
                             "a traced pass after the plain one)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes; all workloads, plain and traced")
    parser.add_argument("--out", help="JSON report path (all-workload mode)")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    return single(args, spec) if args.workload else every_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
