"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny size with --trace 0 and 1,
and checks the result line: the four keys, whole-number counts, every
printed metric named in BENCHMARK.json with its unit, every end-to-end
metric present and above 0, every per-layer metric present. Then checks
that a copy holding only BENCHMARK.json and the benchmark exits non-zero
without a result. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{workload}: correct is {result['correct']}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            fail(f"{workload}: {key} is not a whole number")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        fail(f"{workload}: attempted {result['attempted']}, failed {result['failed']}")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    printed = result["metrics"]
    if set(printed) != set(declared):
        fail(f"{workload} trace={trace}: printed {sorted(set(printed) ^ set(declared))} "
             "differ from BENCHMARK.json")
    for name, metric in printed.items():
        if metric["unit"] != declared[name]:
            fail(f"{workload}: {name} unit {metric['unit']!r} != {declared[name]!r}")
        if not isinstance(metric["value"], (int, float)):
            fail(f"{workload}: {name} value is not a number")
        if trace == 0 and not metric["value"] > 0:
            fail(f"{workload}: end-to-end metric {name} = {metric['value']} is not above 0")
    print(f"ok {workload} trace={trace}: attempted {result['attempted']}, failed {result['failed']}")


def check_bare_copy(spec: dict) -> None:
    bare = ROOT / ".perfbench-out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a copy without the program sources did not fail cleanly")
    print(f"ok bare copy exits {proc.returncode} without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_bare_copy(spec)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
