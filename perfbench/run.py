#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload query-1e5 --seed 1 --seconds 10 \\
        --trace 0

Run from the repository root. Builds perfbench (CMake, Release) into
.bench_build/perfbench, generates the workload's corpus and request stream
from the seed into a work directory under .bench_build, measures it, and
prints a human-readable summary followed, as the last line, by one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Exits non-zero, with no
JSON line, when the build or a run fails; exits 1 after printing the JSON
line when answers were wrong or exact counters disagree with an earlier run
of the same seed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import metrics  # noqa: E402  (after the flag above)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
COUNTERS = os.path.join(BUILD_ROOT, "perfbench-counters.json")
WORKLOADS = ("query-1e5", "live-zipf", "remote-1e5")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j4", "--target",
                    "perfbench"], check=True, stdout=sys.stderr)


def read_records(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def source_digest():
    """Digest of the program and benchmark sources, so exact counters are
    only compared between runs of the same code."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def check_counters(key, counters):
    """Compares this run's exact counters with the stored ones for the same
    code, workload and seed; stores them on first sight. Returns the keys
    that disagree."""
    stored = {}
    if os.path.exists(COUNTERS):
        with open(COUNTERS, encoding="utf-8") as f:
            stored = json.load(f)
    if key in stored:
        return metrics.counter_mismatches(stored[key], counters)
    stored[key] = counters
    tmp = COUNTERS + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(stored, f, sort_keys=True)
    os.replace(tmp, COUNTERS)
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    work = os.path.join(BUILD_ROOT, f"work-{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        subprocess.run([BINARY, "gen", "--workload", args.workload,
                        "--seed", str(args.seed), "--dir", work], check=True)
        raw = os.path.join(work, "records.jsonl")
        subprocess.run([BINARY, "run", "--workload", args.workload,
                        "--seed", str(args.seed), "--dir", work,
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--out", raw],
                       check=True)
        records = read_records(raw)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prefix = metrics.split(records)["setup"][0]["prefix"]
    attempted, failed = metrics.failure_tally(records)
    e2e, notes = metrics.end_to_end(
        records, prefix, metrics.TAIL_PERCENTILE[args.workload])
    if args.trace:
        reported, units = metrics.per_layer(records, prefix), metrics.PER_LAYER
    else:
        reported, units = e2e, metrics.END_TO_END
    if set(reported) != set(units):
        raise SystemExit("metric set differs from its declaration")

    counters = metrics.exact_counters(
        records, prefix, scan_counts=args.workload != "remote-1e5")
    mismatches = check_counters(
        f"{source_digest()}/{args.workload}/{args.seed}", counters)
    for key in mismatches:
        log(f"EXACT COUNTER MISMATCH for seed {args.seed}: {key}")

    summary = dict(e2e)
    summary["failed_frac"] = metrics.failed_frac(attempted, failed)
    summary.update(notes)
    print(f"{args.workload} seed {args.seed}: " + ", ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in summary.items()))
    correct = failed == 0 and not mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)
