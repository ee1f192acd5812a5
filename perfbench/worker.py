"""One workload run in its own process (started by ``run.py``).

Protocol on standard output, one JSON document per line, each prefixed
with ``PERFBENCH``: ``{"ready": true}`` once set-up and warm-up are
done (the parent times set-up up to this line), then, unless the run is
``--setup-only``, the result document.  Everything else the program
prints is ignored by the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

PREFIX = "PERFBENCH "


def emit(doc) -> None:
    sys.stdout.write(PREFIX + json.dumps(doc) + "\n")
    sys.stdout.flush()


def pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU.

    The calibration kernel then times the very CPU the program runs on.
    Unpinned, the service's threads spread over both cores, and a
    neighbour's load on the other core slowed served jobs by up to 50 %
    while the kernel, alone on a free core, saw nothing.  Every workload
    runs one op at a time, so one CPU costs it little parallelism.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "smoke"), default="bench")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    pin_to_one_cpu()

    import repro  # noqa: F401 - part of set-up; fails fast without the source

    from workloads import WORKLOADS, peak_rss_mb

    workload = WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    try:
        workload.setup()
        workload.warmup()
        emit({"ready": True})
        if args.setup_only:
            return 0
        if args.trace:
            result = traced_run(workload, args)
        else:
            workload.loop(time.perf_counter() + args.seconds)
            result = {
                "ops": workload.ops,
                "refs": workload.refs,
                "peak_rss_mb": workload.rss_mb or peak_rss_mb(),
            }
        workload.verify()
    finally:
        workload.close()
    result["attempted"] = len(workload.ops)
    result["failed"] = len(workload.bad)
    emit(result)
    return 0


def traced_run(workload, args):
    """Half the time untraced, half traced; per-layer metrics from the
    traced half and the tracing overhead from the ratio of the two."""
    from repro.obs import MetricsRegistry, get_registry, set_registry

    from tracing import Tracer, layer_metrics, phase_seconds

    from calibrate import corrected

    half = args.seconds / 2.0
    workload.loop(time.perf_counter() + half)
    plain = corrected(workload.ops, workload.refs)
    plain_rate = len(plain) / sum(plain)
    raw = [b - a for a, b in workload.ops]
    # The untraced half's figures before the host-speed correction, and
    # what the correction and the settling between ops rest on.
    untraced = {
        "obs.raw_ops_per_s": (len(raw) / sum(raw), "1/s"),
        "obs.raw_op_p50_s": (statistics.median(raw), "s"),
        "obs.kernel_s": (statistics.median(workload.refs), "s"),
        "obs.settle_s": (sum(workload.settles) / len(workload.settles), "s/op"),
    }

    first = len(workload.ops)
    tracer = Tracer()
    # The kernel's own phase spans go to whatever registry is live; a
    # workload that installs one itself (the service) keeps it.
    registry = get_registry()
    previous = None
    if not registry.enabled:
        registry = MetricsRegistry()
        previous = set_registry(registry)
    before = registry.span_stats()
    tracer.install()
    workload.tracer = tracer
    try:
        workload.loop(time.perf_counter() + half)
    finally:
        workload.tracer = None
        tracer.unpatch()
        if previous is not None:
            set_registry(previous)
    phases = phase_seconds(before, registry.span_stats())
    traced_ops = workload.ops[first:]
    traced_rate = len(traced_ops) / sum(
        corrected(traced_ops, workload.refs[first:])
    )
    metrics = layer_metrics(
        tracer, traced_ops, phases, workload.extra_metrics(first)
    )
    metrics["obs.trace_overhead"] = (1.0 - traced_rate / plain_rate, "frac")
    metrics.update(untraced)
    out_dir = os.path.join(args.workdir, "spans")
    tracer.write(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.ndjson"))
    return {"layers": {k: list(v) for k, v in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
