"""Run the benchmark over many seeds and summarise it, or compare two records.

    python3 perfbench/record.py --seeds 0-9 --out record.json [--workloads a,b] [--trace 1]
    python3 perfbench/record.py --compare first.json second.json

Every run is its own process (``run.py --workload W --seed S``). The record
holds each run's metrics and seeded output digest, and per workload and
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread: the interquartile distance as a share of the median. ``--compare``
fails when a spread exceeds its bound in ``BENCHMARK.json``, when a
median of the second record is worse than the first by more than the
bound, or when a seed's output digest differs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(),
            "blas_threads_pin": "OPENBLAS/OMP/MKL_NUM_THREADS = 1, set by run.py"}


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def record(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    out = {"environment": environment(), "seconds": args.seconds, "trace": args.trace,
           "workloads": {}}
    status = 0
    for name in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900, cwd=ROOT)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                status = 1
                continue
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            keep = ("quality", "ops", "op_s_tail", "setup_s_repeats",
                    "setup_s_wall_repeats", "agent_steps_per_s_wall", "host_speed",
                    "op_spans", "speed_trace", "setup_spans",
                    "buffer_bytes", "self_share", "calls", "incl_s")
            runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                         **{k: detail[k] for k in keep if k in detail}})
            print(f"{name} seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
                  f"digest {detail['quality']['digest']}", flush=True)
        if not runs:
            continue
        metrics = {m: summarise([r["metrics"][m] for r in runs]) for m in runs[0]["metrics"]}
        wall = {m: summarise([r[m] for r in runs])
                for m in ("agent_steps_per_s_wall", "host_speed") if m in runs[0]}
        out["workloads"][name] = {
            "metrics": metrics,
            "wall_clock": wall,
            "digests": {str(r["seed"]): r["quality"]["digest"] for r in runs},
            "runs": runs,
        }
        for m, s in {**metrics, **wall}.items():
            print(f"  {m:36s} median {s['median']:.6g} spread {s['spread']}")
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return status


def compare(first_path: str, second_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    first = json.loads(Path(first_path).read_text())["workloads"]
    second = json.loads(Path(second_path).read_text())["workloads"]
    status = 0
    for name in first:
        for metric, m in bounds.items():
            a, b = first[name]["metrics"][metric], second[name]["metrics"][metric]
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            spread_ok = metric == "setup_s" or max(a["spread"], b["spread"]) <= m["bound"]
            ok = spread_ok and worse <= m["bound"]
            status |= not ok
            print(f"{name:16s} {metric:18s} spread {a['spread']:.4f}/{b['spread']:.4f} "
                  f"worse {worse:+.4f} bound {m['bound']} {'ok' if ok else 'FAIL'}")
        same = first[name]["digests"] == second[name]["digests"]
        status |= not same
        print(f"{name:16s} digests {'identical' if same else 'DIFFER'}")
    return int(status)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("--out is required when recording")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
