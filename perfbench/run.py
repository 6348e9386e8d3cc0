"""Benchmark entry point: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --repeat 5 --seconds 10            # every workload
    python3 perfbench/run.py --repeat 5 --workload serve-live --trace 1

A run (``--trace 0``) measures

1. ``setup_s``: the median of several fresh-interpreter set-ups (after one
   untimed set-up that warms the page cache), each timed from process
   start until the program reports ready;
2. the timed phase, in a process of its own (``measure.py``): ``--seconds``
   seconds of throughput passes or serving rounds (batch workloads then run
   a fixed-size live-session probe),

checks every output, and prints as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
runs the same workload with span wrappers installed and prints the
per-layer metrics instead.  ``--repeat N`` runs the workload(s) N times
with seeds ``--seed .. --seed+N-1`` and prints the median and the
interquartile range (as a share of the median) of every metric.

The run keeps all of its program state (MDP solve cache, run store,
traces) under ``.bench_work/`` in the checkout; the checkout's
``.repro_cache/`` is never read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)

from hostspeed import HostSpeed  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "slots_per_s": "slots/s",
    "peak_rss_mb": "MB",
    "snapshot_p50_ms": "ms",
    "session_open_ms": "ms",
}
#: Timed fresh-interpreter set-ups per run (median reported).
SETUP_SAMPLES = 9


def measure_timeout(seconds: float) -> float:
    """Wall-clock ceiling on the timed phase's process.

    The phase measures for *seconds*; warm-ups, the canary and (traced
    ``serve-live``) two server start-ups come on top.
    """
    return 2.0 * seconds + 120.0


def child_env(solve_dir: str) -> Dict[str, str]:
    """Environment of every program process: source tree, isolated state."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_SOLVE_CACHE_DIR"] = solve_dir
    # One BLAS thread per process: the pool's two workers (or the server
    # and its client) already fill both cores of the reference host.
    for knob in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    env.pop("REPRO_RUN_STORE", None)
    env.pop("REPRO_RUN_STORE_DIR", None)
    return env


def time_setup(command: List[str], workdir: str, solve_dir: str, stop: bool) -> tuple:
    """``(start, ready)`` times of a process that prints one ready line.

    *stop* interrupts a process that keeps running once ready (the server).
    """
    os.makedirs(solve_dir)
    began = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=workdir, env=child_env(solve_dir), stdout=subprocess.PIPE, text=True
    )
    try:
        line = process.stdout.readline()
        ready = time.perf_counter()
        if not line.strip():
            raise RuntimeError(f"set-up exited without reporting ready: {command}")
    finally:
        if stop and process.poll() is None:
            process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()
    return began, ready


def measure_setup(workload: str, seed: int, workdir: str) -> float:
    """Median start-to-ready time of fresh set-ups, after one warm-up.

    Each is referenced to the host speed timed just before and after it
    (see ``hostspeed.py``).
    """
    if workload == "serve-live":
        import workloads as wl

        _, _, scenario_path = wl.serve_scenario(seed, workdir)
        command = [
            sys.executable, "-m", "repro.cli", "serve", "--scenario", scenario_path,
            "--policy", wl.JOINT[0], "--policy", wl.JOINT[1],
        ]
    else:
        command = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    stop = workload == "serve-live"
    time_setup(command, workdir, os.path.join(workdir, "setup-warm"), stop)
    host = HostSpeed()
    spans = []
    for index in range(SETUP_SAMPLES):
        host.sample()
        spans.append(time_setup(command, workdir, os.path.join(workdir, f"setup-{index}"), stop))
    host.sample()
    referenced = host.referenced(spans)
    print(
        f"# setup_s samples: referenced {[round(value, 3) for value in referenced]}; "
        f"raw {[round(end - start, 3) for start, end in spans]}",
        flush=True,
    )
    return statistics.median(referenced)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Optional[dict]:
    """One benchmark run; returns the result object (None if it could not run)."""
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        metrics: Dict[str, float] = {}
        if not trace:
            metrics["setup_s"] = measure_setup(workload, seed, workdir)
        command = [
            sys.executable, os.path.join(HERE, "measure.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", workdir,
        ]
        # A session of its own, so a timeout or an interrupt also stops the
        # phase's pool workers or server.
        process = subprocess.Popen(
            command, cwd=workdir, env=child_env(os.path.join(workdir, "solves")),
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, _ = process.communicate(timeout=measure_timeout(seconds))
        except BaseException as error:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            if not isinstance(error, subprocess.TimeoutExpired):
                raise
            print(f"# timed phase exceeded {measure_timeout(seconds):.0f} s", file=sys.stderr)
            return None
        lines = stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if process.returncode != 0 or not lines:
            print(f"# timed phase failed with exit code {process.returncode}", file=sys.stderr)
            return None
        outcome = json.loads(lines[-1])
        metrics.update(outcome["metrics"])
        units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        failed = outcome["failed"]
        missing = [name for name in END_TO_END_UNITS if not trace and name not in metrics]
        failed += len(missing)
        for name in missing:
            print(f"# metric missing: {name}", flush=True)
        return {
            "correct": failed == 0,
            "attempted": outcome["attempted"] + len(missing),
            "failed": failed,
            "metrics": {
                # A layer a workload does not reach reads 0.
                name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                for name, unit in units.items()
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def quartile_report(results: Dict[str, List[dict]]) -> None:
    """Median and IQR/median of every metric, per workload."""
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            mid = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / mid if mid else 0.0
            else:
                spread = 0.0
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:40s} {mid:14.4f} {unit:8s} iqr/median {spread:7.3f}")
    print(json.dumps({w: [r["metrics"] for r in runs] for w, runs in results.items()}))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (or --repeat all of them)."
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat", type=int, default=0, metavar="N",
        help="run each selected workload N times (seeds seed..seed+N-1) and "
        "print the median and IQR of every metric",
    )
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so every process started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.repeat:
        results: Dict[str, List[dict]] = {}
        for workload in selected:
            for index in range(args.repeat):
                result = run_once(workload, args.seed + index, args.seconds, args.trace)
                if result is None:
                    return 1
                results.setdefault(workload, []).append(result)
        quartile_report(results)
        return 0
    if args.workload == "all":
        parser.error("a single run needs --workload")
    result = run_once(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
