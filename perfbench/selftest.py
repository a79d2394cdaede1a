"""Benchmark self-test at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` once untraced and once traced
with ``--tiny`` (desk presets, one operation per phase), each in its own
process, and checks that:

- the result line has exactly the keys the benchmark contract names, the
  run passed its output checks and at least one operation was attempted;
- every end-to-end metric (untraced) or per-layer metric (traced) is
  emitted, with the unit ``BENCHMARK.json`` gives it, and nothing else;
- every layer a workload is expected to reach shows calls > 0 in the
  trace, so a rename that drops a layer from the trace fails loudly;
- run in a directory that holds only ``BENCHMARK.json`` and the benchmark
  files, the benchmark exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import EXPECTED_LAYERS  # noqa: E402


def run_bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_workload(spec: dict, name: str, trace: int) -> list[str]:
    proc = run_bench(["--workload", name, "--seed", "0", "--seconds", "1",
                      "--trace", str(trace), "--tiny"], ROOT)
    where = f"{name} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-1000:]}"]
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: output checks failed: {detail['check_messages']}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"{where}: missing {sorted(set(wanted) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(wanted))}")
    for metric, unit in wanted.items():
        m = got.get(metric)
        if m is not None and (m.get("unit") != unit
                              or not isinstance(m.get("value"), (int, float))):
            problems.append(f"{where}: {metric} = {m}, want a number in {unit}")
    if trace:
        calls = detail.get("calls", {})
        silent = [layer for layer in EXPECTED_LAYERS[name] if calls.get(layer, 0) == 0]
        if silent:
            problems.append(f"{where}: expected layers with no calls: {silent}")
    elif any(got[m]["value"] <= 0 for m in wanted if m in got):
        problems.append(f"{where}: a metric reads <= 0: {got}")
    return problems


def check_without_sources() -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(["--workload", "ppo-desk", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], tmp)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_without_sources()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_workload(spec, workload["name"], trace)
            print(f"{workload['name']} trace={trace}: {'ok' if not found else 'FAIL'}",
                  flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    print("self-test " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
