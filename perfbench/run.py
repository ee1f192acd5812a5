"""The repository's benchmark: one workload, one run, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

Workloads: ``paper_sweep``, ``lossy_campaign``, ``serve_mixed``,
``scenario_uav`` (see ``perfbench/README.md``).  With ``--trace 0`` it
prints the end-to-end metrics (``setup_s``, ``ops_per_s``, ``op_p50_s``,
``op_p90_s``, ``peak_rss_mb``) and ``error_rate``; with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Each run starts the workload in fresh processes: four that only set up
and exit, then one that sets up and runs the timed loop.  ``setup_s`` is
the median of the five set-up times, each from process start to the end
of the warm-up ops.  Op and set-up times are corrected for host-speed
drift (see ``calibrate.py``); set-up by the host speed the timed loop
measured a few seconds later.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from calibrate import NOMINAL_S, corrected

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "lossy_campaign", "serve_mixed", "scenario_uav")
PREFIX = "PERFBENCH "
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Hard limit on one worker process, far above a normal run.
WORKER_TIMEOUT_S = 150.0


class WorkerError(RuntimeError):
    pass


def run_worker(args, setup_only: bool):
    """Start one worker; returns (set-up seconds, result document)."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", args.workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if not line.startswith(PREFIX):
                continue
            doc = json.loads(line[len(PREFIX):])
            if doc.get("ready"):
                setup_s = time.perf_counter() - started
            else:
                result = doc
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise WorkerError(f"{args.workload} worker exited with code {code}")
    return setup_s, result


def end_to_end(setups, result):
    """The end-to-end metrics (host-speed corrected) and a raw summary."""
    ops = result["ops"]
    lat = corrected(ops, result["refs"])
    raw = [b - a for a, b in ops]
    speed = NOMINAL_S / statistics.median(result["refs"])
    n = len(lat)
    p90 = statistics.quantiles(lat, n=10)[-1] if n > 1 else lat[0]
    beyond = sum(1 for x in lat if x > p90)
    metrics = {
        "setup_s": (statistics.median(setups) * speed, "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (p90, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = (
        f"ops={n} beyond_p90={beyond} setups={len(setups)} "
        f"host_speed={speed:.3f}; uncorrected: "
        f"setup_s={statistics.median(setups):.4f} "
        f"ops_per_s={n / sum(raw):.4f} op_p50_s={statistics.median(raw):.4f}"
    )
    if beyond < 10:
        notes += " (p90 rests on fewer than 10 samples beyond it)"
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=("bench", "smoke"), default="bench",
        help="smoke: tiny inputs for the benchmark's own tests",
    )
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro in this checkout", file=sys.stderr)
        return 2
    args.workdir = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(args.workdir, exist_ok=True)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(run_worker(args, setup_only=True)[0])
        setup_s, result = run_worker(args, setup_only=False)
        setups.append(setup_s)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
        notes = f"traced ops={attempted}"
    else:
        metrics, notes = end_to_end(setups, result)
    error_rate = failed / attempted if attempted else 1.0

    print(f"workload {args.workload} seed {args.seed} size {args.size}: {notes}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<28} {error_rate:>14.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
