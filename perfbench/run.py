#!/usr/bin/env python3
"""The mocos benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (the library from src/ plus
the benchmark program, Release) into $CARGO_TARGET_DIR or .bench_build/, runs
one workload in process and prints, as the last line of standard output, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its per_layer
metrics. The line before it is the run's metadata. At the default seed the
outputs must match perfbench/digests.json byte for byte; at every seed the
program checks its invariants. Any failed check makes the exit code nonzero.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over src/ (paths and bytes): identifies the measured code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "mocos_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "mocos_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in workloads:
        fail("unknown workload " + args.workload)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    expected = bench["per_layer" if args.trace else "end_to_end"]

    binary = build()
    before = cpu_ticks()
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    after = cpu_ticks()
    if proc.returncode != 0 or not proc.stdout.strip():
        fail("%s exited with code %d" % (args.workload, proc.returncode))
    run = json.loads(proc.stdout.strip().splitlines()[-1])

    errors = list(run["errors"])
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json")) as f:
            recorded = json.load(f)[args.workload]
        for name, digest in recorded.items():
            if run["digests"].get(name) != digest:
                errors.append("%s digest %s != recorded %s" % (
                    name, run["digests"].get(name), digest))
    failed = run["failed"]
    if errors and failed == 0:
        failed = run["attempted"]

    metrics = {}
    for m in expected:
        got = run["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            errors.append("metric %s missing or not in %s" % (m["name"], m["unit"]))
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    extra = set(run["metrics"]) - {m["name"] for m in expected}
    if extra:
        errors.append("metrics not in BENCHMARK.json: " + ", ".join(sorted(extra)))

    meta = dict(run["info"])
    meta.update({"commit": git_commit(), "src_sha256": source_digest(),
                 "why": workloads[args.workload], "digests": run["digests"],
                 "errors": errors})
    if before and after and after[1] > before[1]:
        # Share of CPU time the host gave to other guests during the run: a
        # contended host slows every timing here, whatever the code does.
        meta["host_steal_frac"] = round(
            (after[0] - before[0]) / (after[1] - before[1]), 4)
    print(json.dumps({"meta": meta}, sort_keys=True))
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
