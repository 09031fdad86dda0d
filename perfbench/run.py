#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fb_dclas|fb_fifo|coord_fleet \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); a traced run writes its Chrome trace there as
trace-<workload>-<seed>.json. The last line of standard output is the
result object described in perfbench/README.md. Exit codes: 0 ok, 1 a
correctness check failed, 2 bad arguments, 3 build or run failure.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("fb_dclas", "fb_fifo", "coord_fleet")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "aalo_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "aalo_perfbench")


def metric_names(section):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Recorded in BENCHMARK.json's command: the seed used while writing a
    # change, and one kept back to re-check a claimed gain.
    parser.add_argument("--default-seed", type=int, default=1)
    parser.add_argument("--held-out-seed", type=int)
    args = parser.parse_args()
    seed = args.default_seed if args.seed is None else args.seed

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               os.path.join(REPO, ".bench_build")))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 3

    command = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir, "work-" + args.workload)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, f"trace-{args.workload}-{seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(120, 4 * args.seconds + 60))
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: benchmark did not finish: {e}")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log(f"run.py: no result line (exit code {proc.returncode})")
        sys.stdout.write(proc.stdout)
        # 2: the binary refused its arguments or an unoptimized build.
        return 2 if proc.returncode == 2 else 3
    for line in lines[:-1]:
        print(line)
    print(f"seeds: this run {seed}, default {args.default_seed}, held out {args.held_out_seed}")

    # Every metric named in BENCHMARK.json is reported. A per-layer metric
    # of a layer this workload never calls reads 0; a missing end-to-end
    # metric is an error.
    measured = result["metrics"]
    metrics = {}
    section = "per_layer" if args.trace else "end_to_end"
    for name, unit in metric_names(section):
        if name in measured:
            metrics[name] = measured[name]
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            log(f"run.py: end-to-end metric {name} missing")
            return 3
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
