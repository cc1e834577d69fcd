#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload rag_churn --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The harness (perfbench/main.cc) and the
simulator library it links are compiled into .bench_build/ (or
$CARGO_TARGET_DIR, when set) on first use. Workload knobs, seeds and
the reasons behind each workload live in perfbench/workloads.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to stderr. Span
traces of --trace 1 runs land in .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIG = os.path.join(HERE, "workloads.json")
RUN_TIMEOUT_S = 170

# Simulator switches the timed runs must not see.
UNSET_ENV = ("CISRAM_TRACE", "CISRAM_METRICS", "CISRAM_FAULT_SPEC",
             "CISRAM_BENCH_DIR")


def build(build_dir, env):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            return False
    return True


def main():
    with open(CONFIG) as f:
        config = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(config["workloads"]))
    ap.add_argument("--seed", type=int, default=config["default_seed"])
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: simulator sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return 2

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    out_dir = os.path.join(ROOT, ".bench_out")
    # Compiler and harness temporaries stay inside the checkout too.
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env["TMPDIR"] = tmp_dir
    if not build(build_dir, env):
        print("run.py: build failed", file=sys.stderr)
        return 1

    threads = min(config["sim_threads"], os.cpu_count() or 1)
    env["CISRAM_SIM_THREADS"] = str(threads)
    cmd = [os.path.join(build_dir, "perfbench"), "--config", CONFIG,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: workload exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print(f"run.py: harness exited with {proc.returncode}", file=sys.stderr)
        return 1
    # Human-readable report first, the result object last.
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
