#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny scale (about a minute).

    python3 perfbench/smoke_test.py

Checks, for every workload of BENCHMARK.json, that an untraced and a traced
run succeed with every end-to-end and per-layer metric present with its unit;
that a planted wrong answer makes the run fail; and that run.py refuses to run
without the program's sources. Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "3", "--seconds", "2", "--trace", str(trace),
               "--scale", "smoke", *extra]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc, result = run(workload, trace)
            check(proc.returncode == 0 and result is not None and
                  result["correct"],
                  f"{workload} --trace {trace} runs and checks its answers")
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["attempted"] >= 1,
                  f"{workload} --trace {trace} result has the expected keys")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in wanted} and
                  all(metrics[m["name"]]["unit"] == m["unit"] for m in wanted),
                  f"{workload} --trace {trace} emits all {len(wanted)} metrics "
                  "with their units")
        proc, result = run(workload, 0, "--plant-wrong-answer")
        check(proc.returncode != 0 and result is not None and
              not result["correct"] and result["failed"] >= 1,
              f"{workload}: a planted wrong answer fails the gate")

    # Without the program next to it the benchmark must fail, printing no
    # result.
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        proc, result = run(spec["workloads"][0]["name"], 0, cwd=bare)
        check(proc.returncode != 0 and result is None,
              "without src/ the benchmark exits non-zero with no result")
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    main()
