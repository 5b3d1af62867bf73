#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload at a tiny size, with
tracing off and on, and checks that each run passes its oracles and
prints every metric BENCHMARK.json names, with its unit. It also checks
that the benchmark fails cleanly, printing no result, in a directory
that holds only BENCHMARK.json and perfbench/.

Run from the repository root: python3 perfbench/smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)


def check(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, sorted(result["metrics"])
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        value = got["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value), (m, got)
        assert f"  {m['name']}: " in proc.stdout, f"{m['name']} not printed"
    if trace:
        # The oracles only bite when the inputs differ somewhere.
        assert result["metrics"]["core.diff_values"]["value"] > 0, "tiny inputs hold no differences"
    print(f"ok  {workload} trace {trace}: {result['attempted']} ops, {len(declared)} metrics")


def check_bare_directory():
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("target", "__pycache__"))
    try:
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark succeeded without the repository"
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert not last.startswith("{"), f"printed a result: {last}"
    finally:
        shutil.rmtree(bare)
    print("ok  bare directory: exit", proc.returncode, "and no result")


def main():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
