#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds the
program and the benchmark binary from source into .bench_build/ and
generates the workload's corpus there; later calls reuse both. The binary
(tind_perfbench) prints every metric it measured; this script keeps the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1), checks that each is present with its unit, and prints the
result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 on success, 1 when a checked answer was wrong (the result is
still printed), 2 when the benchmark could not run (no result printed).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "tind_perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "tind_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the smoke test")
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        help="corrupt one checked answer (smoke test)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    # Generated inputs depend only on the workload and the program: keep one
    # copy per build of the binary, and drop those of earlier builds.
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    cache_dir = os.path.join(ROOT, ".bench_build", f"inputs-{digest}")
    for name in os.listdir(os.path.join(ROOT, ".bench_build")):
        if name.startswith("inputs-") and name != os.path.basename(cache_dir):
            shutil.rmtree(os.path.join(ROOT, ".bench_build", name))
    os.makedirs(cache_dir, exist_ok=True)
    work_dir = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--work_dir={work_dir}", f"--cache_dir={cache_dir}",
               f"--scale={args.scale}",
               f"--plant_wrong_answer={int(args.plant_wrong_answer)}"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")  # run() killed and reaped it.
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"tind_perfbench exited with status {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} missing or not in {metric['unit']}")
        metrics[metric["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
