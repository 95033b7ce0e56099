"""Smoke check of the benchmark itself, in seconds.

Usage, from the repository root:

    python3 perfbench/smoke.py

Runs every workload in both trace modes on its tiny smoke config and checks
the result line against BENCHMARK.json: exactly the declared metrics with
their units, correct outputs, no failed command.  Then copies BENCHMARK.json
and the benchmark's files alone into a scratch directory and checks that
the benchmark refuses to run there.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 180


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check(bench, workload, trace):
    proc = run(ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(lines[-1])
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if got != expected:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}"
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        return f"correct={result['correct']} attempted={result['attempted']} " \
               f"failed={result['failed']}: " + "; ".join(
                   line for line in lines if line.startswith("FAILED"))
    return None


def check_bare_directory(bench):
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            return f"ran without the program: exit {proc.returncode}, stdout {last[0]!r}"
        return None
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        for trace in (0, 1):
            problem = check(bench, w["name"], trace)
            if problem:
                print(f"smoke: {w['name']} trace={trace}: {problem}")
                return 1
            print(f"smoke: {w['name']} trace={trace} ok")
    problem = check_bare_directory(bench)
    if problem:
        print(f"smoke: bare directory: {problem}")
        return 1
    print("smoke: bare directory refused ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
