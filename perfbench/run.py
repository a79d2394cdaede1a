"""nviflab benchmark: four seeded closed-loop workloads, measured end to end
or traced layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload ppo-desk --seed 0 --seconds 18 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 18

One run is one process with one thread: BLAS is pinned to one thread. A
run sets up the workload several times (``setup_s`` is the median), runs
warm-up operations, then measures operations for about ``--seconds``. The
last stdout line is the result object; the line before it holds the
details: seeded quality outputs and their digest, the tail operation time
with its percentile and sample count, the set-up repeats, and the wall-clock
figures beside the calibrated ones.

Times are in calibrated seconds (see ``calibrate.py``): a fixed reference
kernel is timed every 0.1 s all through the run, with the clock paused, and
each stretch of operation or set-up time is scaled by the host speed it
measured. This takes out most of the shared host's drifting CPU speed, which
otherwise spreads runs of the same code wider than the regression bounds.

With ``--trace 1`` the run instead replays a fixed number of operations
twice, plain and then with every layer's public functions wrapped, and
reports per-layer self times, counts and the tracing overhead; the fixed
count makes every count repeat exactly for a seed.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the program sources are missing or the arguments are invalid.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("ppo-desk", "eval-large", "pretrain-medium", "dqn-desk")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Pin BLAS to one thread before numpy loads: the run stays one OS
    thread, and no idle BLAS worker spins beside the Python thread on a
    small shared machine."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def tail(durations: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    import numpy as np
    n = len(durations)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return {"percentile": p, "value": float(np.percentile(durations, p)), "samples": n}
    return None


def rate(log, durations: list[float]) -> float:
    """Alive agent-steps per second of the given op durations."""
    return sum(op.agent_steps for op in log.ops) / sum(durations)


def wall(log) -> list[float]:
    return [op.end - op.start for op in log.ops]


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool):
    from calibrate import SpeedTrace
    from tracing import Clock, OpLog, Patcher, Tracer
    from workloads import WORKLOADS, digest, install_tracer, layer_metrics, train_compressor

    wl = WORKLOADS[name]
    min_ops, warm_ops, trace_ops = wl.sizes(tiny)
    clock = Clock()
    setup_log = OpLog(clock)
    tracer = Tracer(clock)
    traced_setup_s = 0.0
    setup_spans, state_digests = [], []
    state = None
    with SpeedTrace(clock) as speed:
        for _ in range(1 if trace or tiny else SETUP_REPEATS):
            state = None  # drop the previous repeat before building the next
            t0 = clock.now()
            ctx = wl.context(seed, tiny)
            comp = train_compressor(ctx)
            if trace:
                t1 = clock.now()
                with Patcher() as patcher:
                    install_tracer(patcher, tracer, setup_log)
                    state = wl.build(ctx, comp)
                traced_setup_s = clock.now() - t1
            else:
                state = wl.build(ctx, comp)
            setup_spans.append((t0, clock.now()))
            with clock.paused():
                state_digests.append(digest(wl.state_arrays(state)))
        setup_log.check(len(set(state_digests)) == 1, "set-up repeats built different state")

        warm = OpLog(clock)
        wl.run(state, warm_ops, warm)
        logs = [setup_log, warm]
        if trace:
            plain, traced = OpLog(clock), OpLog(clock)
            quality = wl.run(state, trace_ops, plain)
            with Patcher() as patcher:
                install_tracer(patcher, tracer, traced)
                traced_quality = wl.run(state, trace_ops, traced)
            traced.check(traced_quality == quality,
                         "traced pass produced other outputs than the plain pass", 0)
            logs += [plain, traced]
        else:
            op_s = warm.ops[-1].end - warm.ops[-1].start
            count = min_ops if tiny else max(min_ops, math.ceil(seconds / op_s))
            main = OpLog(clock)
            quality = wl.run(state, count, main, deadline=clock.now() + seconds)
            logs.append(main)

    calibrated = lambda log: [speed.calibrated(op.start, op.end) for op in log.ops]  # noqa: E731
    setup_times = [speed.calibrated(t0, t1) for t0, t1 in setup_spans]
    buffer_bytes = getattr(state, "buffer_bytes", 0)
    detail = {"workload": name, "seed": seed, "trace": int(trace), "tiny": tiny,
              "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
              "buffer_bytes": buffer_bytes,
              "setup_s_repeats": setup_times,
              "setup_s_wall_repeats": [t1 - t0 for t0, t1 in setup_spans],
              "host_speed": speed.host_speed(),
              "speed_samples": len(speed.refs)}
    if trace:
        metrics = layer_metrics(tracer, buffer_bytes, rate(plain, calibrated(plain)),
                                rate(traced, calibrated(traced)))
        traced_s = traced_setup_s + sum(wall(traced))
        detail["trace_ops"] = trace_ops
        detail["self_share"] = dict(sorted(
            ((k, v / traced_s) for k, v in tracer.self_s.items()), key=lambda kv: -kv[1]))
        detail["calls"] = dict(sorted(tracer.calls.items()))
        detail["incl_s"] = dict(sorted(tracer.incl.items()))
    else:
        durations = calibrated(main)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "agent_steps_per_s": (rate(main, durations), "1/s"),
            "op_s_p50": (statistics.median(durations), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail["ops"] = len(durations)
        detail["measured_s"] = sum(durations)
        detail["measured_wall_s"] = sum(wall(main))
        detail["agent_steps_per_s_wall"] = rate(main, wall(main))
        detail["op_s_tail"] = tail(durations)
        detail["op_spans"] = [(op.start, op.end, op.agent_steps) for op in main.ops]
        detail["setup_spans"] = setup_spans
        detail["speed_trace"] = [speed.times, speed.refs]
    attempted = sum(len(log.ops) for log in logs)
    failed = sum(op.failed for log in logs for op in log.ops)
    correct = failed == 0 and not any(log.setup_failed for log in logs)
    detail["quality"] = quality
    detail["failed_frac"] = failed / attempted
    detail["check_messages"] = [m for log in logs for m in log.messages]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, detail


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} quality={json.dumps(detail['quality'])}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:>16.6g} {m['unit']}")
        if "op_s_tail" in detail:
            print(f"  {'agent_steps_per_s_wall':36s} {detail['agent_steps_per_s_wall']:>16.6g}"
                  f" 1/s (wall clock, host speed {detail['host_speed']:.3g})")
            t = detail["op_s_tail"]
            print(f"  op_s_tail p{t['percentile']:g} {t['value']:.6g} s of {t['samples']} ops"
                  if t else "  op_s_tail: too few ops (< 10 beyond p75)")
        if not result["correct"] or proc.returncode != 0:
            print(f"  output checks failed: {detail['check_messages']}")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: desk presets and one operation per phase")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "nviflab" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
