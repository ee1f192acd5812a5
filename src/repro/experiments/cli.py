"""Command-line entry point: regenerate any figure or table of the paper.

Examples::

    repro-ccm fig3                      # tiers vs r (Fig. 3)
    repro-ccm tables --scale bench      # Fig. 4 + Tables I-IV, small scale
    repro-ccm tables --scale full       # the paper's n=10,000 × 100 trials
    repro-ccm theorem1                  # CCM == traditional equivalence
    repro-ccm ablations                 # indicator/checking/load/density
    repro-ccm all --scale default       # everything, default scale
    repro-ccm scenario run --trajectory uav --power-threshold -22
    repro-ccm scenario sweep --trials 3 # motion vs the static paper setup

``--scale`` presets: bench (n=2,000 × 3 trials), default (n=10,000 × 10
trials), full (the paper's n=10,000 × 100 trials).  ``--n-tags``,
``--trials`` and ``--ranges`` override any preset.

Campaigns are serial by default; ``--workers N`` fans the independent
trials of each sweep point out over N worker processes (``--backend``
selects process/thread/serial) with bit-identical aggregates, which makes
the ``full`` scale practical::

    repro-ccm tables --scale full --workers 8 --progress

``--progress`` prints a live trial counter to stderr.

Observability (see docs/observability.md): ``--metrics-out FILE`` records
counters/histograms/span timings for the whole command and writes them as
NDJSON; ``repro-ccm profile`` runs instrumented CCM sessions as a campaign
(one session unless ``--trials N``) and prints a sorted per-phase
self/cumulative time table; ``--trace-out`` writes trial 0's event trace::

    repro-ccm profile --n 2000 --frame 333
    repro-ccm profile --trials 8 --backend process --workers 2

``--json``/``--csv`` artifacts get a ``*.manifest.json`` provenance record
(seed, config, git revision, host, versions, peak RSS) written alongside.

Caching (see docs/caching.md): ``--cache`` memoizes every trial in the
content-addressed result store (``~/.cache/repro`` or ``--cache-dir``),
so re-running an identical campaign is served from disk with
bit-identical aggregates, and a killed campaign continues from where it
died with ``--resume``::

    repro-ccm tables --scale full --workers 8 --cache --progress
    # ... SIGKILL mid-run ...
    repro-ccm tables --scale full --workers 8 --resume --progress

The store itself is managed by the ``cache`` subcommand family::

    repro-ccm cache stats                  # entries / bytes / campaigns
    repro-ccm cache ls                     # one line per stored trial
    repro-ccm cache verify --sample 5      # re-run trials, compare bytes
    repro-ccm cache gc --max-size 500M --older-than 30d
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.core.session import ENGINE_NAMES
from repro.scenario.trajectory import TRAJECTORY_NAMES
from repro.sim.parallel import stderr_ticker
from repro.sim.plan import RunPlan, add_execution_arguments

from repro.experiments import (
    ablations,
    accuracy,
    analysis_vs_sim,
    estimators,
    extensions,
    fig3_tiers,
    master,
    paperconfig as cfg,
    robustness,
    scenario_motion,
    statefree,
    theorem1_equivalence,
)

SCALES = {
    "bench": cfg.BENCH_SCALE,
    "default": cfg.DEFAULT_SCALE,
    "full": cfg.FULL_SCALE,
}


def _resolve_scale(args: argparse.Namespace) -> cfg.ReproScale:
    scale = SCALES[args.scale]
    overrides = {}
    if args.n_tags is not None:
        overrides["n_tags"] = args.n_tags
    if args.trials is not None:
        overrides["n_trials"] = args.trials
    if args.ranges is not None:
        overrides["tag_ranges"] = tuple(args.ranges)
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    return replace(scale, **overrides) if overrides else scale


def _resolve_plan(args: argparse.Namespace) -> RunPlan:
    """The shared execution-flag group -> one :class:`RunPlan`.

    All flag semantics (``--resume`` implies ``--cache``, ``--no-cache``
    wins, ...) live in :meth:`RunPlan.from_args`; this wrapper only
    converts validation errors into CLI usage errors and announces a
    resume on stderr.
    """
    try:
        plan = RunPlan.from_args(args)
    except ValueError as exc:
        raise SystemExit(f"repro-ccm: error: {exc}")
    if plan.resume and plan.store is not None:
        print(f"[cache] resuming from {plan.store.root}", file=sys.stderr)
    return plan


def _resolve_progress(args: argparse.Namespace):
    """``--progress`` -> a stderr ticker sized to the campaign, or None."""
    if not args.progress:
        return None
    return stderr_ticker(_resolve_scale(args).n_trials)


def _emit(text: str, out: Optional[str]) -> None:
    print(text)
    if out:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(text + "\n\n")


def cmd_fig3(args: argparse.Namespace) -> None:
    result = fig3_tiers.run(
        _resolve_scale(args),
        plan=_resolve_plan(args),
        on_trial_done=_resolve_progress(args),
    )
    _emit(fig3_tiers.report(result), args.out)


def cmd_tables(args: argparse.Namespace) -> None:
    scale = _resolve_scale(args)
    ranges = scale.tag_ranges
    started = time.perf_counter()
    result = master.run(
        scale,
        tag_ranges=ranges,
        plan=_resolve_plan(args),
        on_trial_done=_resolve_progress(args),
    )
    elapsed = time.perf_counter() - started
    _emit(master.report(result), args.out)
    manifest_kwargs = dict(
        seed=scale.base_seed,
        config={
            "n_tags": scale.n_tags,
            "n_trials": scale.n_trials,
            "tag_ranges": list(ranges),
        },
        engine=args.engine,
        elapsed_s=elapsed,
    )
    if args.json:
        from repro.obs import write_manifest_alongside
        from repro.sim.results import save_sweep

        save_sweep(result.sweep, args.json)
        manifest = write_manifest_alongside(args.json, **manifest_kwargs)
        print(f"[sweep saved to {args.json}; manifest {manifest}]")
    if args.csv:
        from repro.obs import write_manifest_alongside
        from repro.sim.results import sweep_to_csv

        sweep_to_csv(result.sweep, path=args.csv)
        manifest = write_manifest_alongside(args.csv, **manifest_kwargs)
        print(f"[sweep flattened to {args.csv}; manifest {manifest}]")


def cmd_theorem1(args: argparse.Namespace) -> None:
    result = theorem1_equivalence.run()
    _emit(theorem1_equivalence.report(result), args.out)


def cmd_accuracy(args: argparse.Namespace) -> None:
    est = accuracy.run_estimation()
    _emit(accuracy.report_estimation(est), args.out)
    det = accuracy.run_detection()
    _emit(accuracy.report_detection(det), args.out)


def cmd_ablations(args: argparse.Namespace) -> None:
    _emit(
        ablations.report_indicator(ablations.run_indicator_ablation()), args.out
    )
    _emit(ablations.report_checking(ablations.run_checking_ablation()), args.out)
    _emit(ablations.report_load(ablations.run_load_sweep()), args.out)
    _emit(ablations.report_density(ablations.run_density_ablation()), args.out)


def cmd_analysis(args: argparse.Namespace) -> None:
    scale = _resolve_scale(args)
    rows = analysis_vs_sim.run(n_tags=scale.n_tags)
    _emit(analysis_vs_sim.report(rows), args.out)
    tier_rows = analysis_vs_sim.run_per_tier(n_tags=scale.n_tags)
    _emit(analysis_vs_sim.report_per_tier(tier_rows), args.out)


def cmd_extensions(args: argparse.Namespace) -> None:
    _emit(
        extensions.report_load_balance(extensions.run_load_balance()), args.out
    )
    _emit(
        extensions.report_multireader(extensions.run_multireader_demo()),
        args.out,
    )
    _emit(extensions.report_cicp(extensions.run_cicp_comparison()), args.out)


def cmd_statefree(args: argparse.Namespace) -> None:
    _emit(statefree.report(statefree.run()), args.out)


def cmd_robustness(args: argparse.Namespace) -> None:
    kwargs = {}
    if args.n_tags is not None:
        kwargs["n_tags"] = args.n_tags
    if args.trials is not None:
        kwargs["n_trials"] = args.trials
    if args.seed is not None:
        kwargs["base_seed"] = args.seed
    rows = robustness.run(
        plan=_resolve_plan(args),
        on_trial_done=_resolve_progress(args),
        **kwargs,
    )
    _emit(robustness.report(rows), args.out)


def cmd_estimators(args: argparse.Namespace) -> None:
    _emit(estimators.report(estimators.run()), args.out)


def cmd_scenario(args: argparse.Namespace) -> None:
    """Scenario subsystem: one mobile-reader timeline, or a motion sweep."""
    if args.scenario_command == "sweep":
        ticker = (
            stderr_ticker(len(args.trajectories) * args.trials)
            if args.progress
            else None
        )
        rows = scenario_motion.run(
            trajectories=tuple(args.trajectories),
            n_tags=args.n_tags,
            tag_range=args.range,
            frame_size=args.frame,
            n_operations=args.operations,
            op_gap_s=args.gap,
            speed_mps=args.speed,
            power_threshold_dbm=args.power_threshold,
            max_step_m=args.step,
            relocate_frac=args.relocate,
            loss=args.loss,
            n_trials=args.trials,
            base_seed=args.seed,
            plan=_resolve_plan(args),
            on_trial_done=ticker,
        )
        _emit(scenario_motion.report(rows), args.out)
        return

    from repro.scenario import run_scenario

    result = run_scenario(
        n_tags=args.n_tags,
        tag_range=args.range,
        frame_size=args.frame,
        participation=args.participation,
        n_operations=args.operations,
        op_gap_s=args.gap,
        trajectory=args.trajectory,
        speed_mps=args.speed,
        power_threshold_dbm=args.power_threshold,
        max_step_m=args.step,
        relocate_frac=args.relocate,
        loss=args.loss,
        seed=args.seed,
    )
    lines = [
        f"scenario: trajectory={args.trajectory} n={result.n_tags} "
        f"f={result.frame_size} operations={len(result.operations)} "
        f"duration={result.duration_s:.2f}s",
        f"{'op':>3} {'t_start':>9} {'t_end':>9} {'rounds':>6} "
        f"{'slots':>8} {'busy':>7} {'clean':>5} {'relinks':>7} "
        f"{'powered':>8}",
    ]
    for op in result.operations:
        lines.append(
            f"{op.index:>3} {op.t_start_s:>9.2f} {op.t_end_s:>9.2f} "
            f"{op.rounds:>6} {op.total_slots:>8} {op.busy_slots:>7} "
            f"{'yes' if op.terminated_cleanly else 'NO':>5} "
            f"{op.relinks:>7} {op.powered_fraction_mean:>8.3f}"
        )
    metrics = result.metrics()
    lines.append(
        "completion {completion_rate:.3f} | avg sent "
        "{avg_sent_bits:.1f} b | avg received {avg_received_bits:.1f} b "
        "| {energy_uj_per_tag:.1f} uJ/tag".format(**metrics)
    )
    _emit("\n".join(lines), args.out)
    if args.journal:
        result.journal.write(args.journal)
        print(f"[journal written to {args.journal}]")


def cmd_render(args: argparse.Namespace) -> None:
    """Render a saved sweep (tables --json) as Markdown tables."""
    if not args.json:
        raise SystemExit("render requires --json <saved sweep>")
    from repro.experiments.common import PROTOCOLS
    from repro.sim.results import load_sweep, markdown_table

    sweep_result = load_sweep(args.json)
    cols = sweep_result.values
    sections = []
    for metric, title in (
        ("slots", "Execution time (total slots)"),
        ("max_sent", "Maximum bits sent per tag"),
        ("max_received", "Maximum bits received per tag"),
        ("avg_sent", "Average bits sent per tag"),
        ("avg_received", "Average bits received per tag"),
    ):
        rows = {
            cfg.PROTOCOL_LABELS[p_]: sweep_result.series(f"{p_}_{metric}")
            for p_ in PROTOCOLS
            if f"{p_}_{metric}" in sweep_result.metric_names()
        }
        if rows:
            sections.append(markdown_table(title, cols, rows))
    _emit("\n\n".join(sections), args.out)


def cmd_map(args: argparse.Namespace) -> None:
    from repro.experiments.topomap import render_topology
    from repro.net.topology import PaperDeployment, paper_network

    scale = _resolve_scale(args)
    n = min(scale.n_tags, 4000)  # a map needs no more
    for r in scale.tag_ranges[:1] if len(scale.tag_ranges) == 9 else scale.tag_ranges:
        network = paper_network(
            r, n_tags=n, seed=scale.base_seed,
            deployment=PaperDeployment(n_tags=n),
        )
        _emit(f"deployment map, r = {r} m, n = {n}", args.out)
        _emit(render_topology(network), args.out)


def cmd_profile(args: argparse.Namespace) -> None:
    """Profile ``--trials`` CCM sessions -> per-phase time table (and the
    metrics, manifest and trace files whose paths are given).

    Every profile is a :class:`~repro.sim.parallel.Campaign` of
    :class:`~repro.experiments.common.SessionBatchTrial` on one fixed
    topology (``--trials`` defaults to a single session).  Under
    ``--backend process`` the per-phase numbers come from worker registry
    snapshots merged back into this process; ``--batch B`` stacks B
    trials into each batched session call (``campaign/session_batch``
    spans).
    ``--trace-out`` replays trial 0 after the timed campaign, so the event
    trace is that trial's session whatever the backend or batch.
    """
    from repro.experiments.common import SessionBatchTrial
    from repro.obs import (
        MetricsRegistry,
        RunManifest,
        TraceContext,
        metrics_to_ndjson,
        render_profile,
        use_registry,
        write_chrome_trace,
    )
    from repro.sim.parallel import Campaign, ExecutorConfig
    from repro.sim.runner import trial_seed
    from repro.sim.trace import SessionTracer

    n, f, r = args.n, args.frame, args.range
    seed = args.seed if args.seed is not None else 7
    trial = SessionBatchTrial(
        tag_range=r,
        n_tags=n,
        frame_size=f,
        participation=args.participation,
        loss=args.loss if args.loss is not None else 0.0,
        topology_seed=seed,
        engine=args.engine,
    )
    # Deploy outside the timed region; forked process workers inherit it.
    trial._resolve_network()
    try:
        plan = RunPlan(
            executor=ExecutorConfig(workers=args.workers, backend=args.backend),
            batch=args.batch,
            trace=TraceContext.new(),
        )
    except ValueError as exc:
        raise SystemExit(f"repro-ccm: error: {exc}")
    registry = MetricsRegistry(trace=plan.trace)
    if args.trace_json:
        registry.enable_timeline()
    with use_registry(registry):
        started = time.perf_counter()
        result = Campaign(trial, args.trials, seed, plan=plan).run()
        wall_s = time.perf_counter() - started
    if not result.n_ok:
        raise SystemExit(f"repro-ccm: error: {result.failures[0]}")
    rounds = result.aggregates["rounds"].mean
    slots = result.aggregates["slots"].mean
    loss_note = "" if args.loss is None else f" loss={args.loss:g}"
    print(
        f"profile: n={n} f={f} r={r:g} participation={args.participation:g} "
        f"trials={args.trials} backend={args.backend} workers={args.workers} "
        f"batch={plan.batch} engine={args.engine}{loss_note} seed={seed} "
        f"trace={plan.trace.trace_id}"
    )
    print(
        f"campaign: {result.n_ok}/{result.n_trials} trials ok, "
        f"{result.cache_hits} cache hits, mean {rounds:g} rounds / "
        f"{slots:g} slots, wall {wall_s:.4f}s"
    )
    print()
    print(render_profile(registry, wall_s=wall_s, sort=args.sort))
    stats = registry.span_stats()
    campaign_s = stats.get(("campaign",), (0, 0.0))[1]
    merged_s = sum(
        seconds
        for path, (_count, seconds) in stats.items()
        if len(path) == 2 and path[0] == "campaign"
    )
    if campaign_s > 0:
        # > 1.0x means workers overlapped (summed worker time exceeds
        # the campaign's wall time) — expected under --backend process.
        print(
            f"worker time: merged per-trial spans total {merged_s:.4f}s "
            f"({merged_s / campaign_s:.2f}x the campaign's "
            f"{campaign_s:.4f}s wall)"
        )
    if args.metrics_out:
        metrics_to_ndjson(registry, args.metrics_out)
        print(f"[metrics written to {args.metrics_out}]")
    if args.manifest_out:
        RunManifest.capture(
            seed=seed,
            config={
                "n_tags": n,
                "frame_size": f,
                "tag_range_m": r,
                "participation": args.participation,
                "n_trials": args.trials,
                "backend": args.backend,
                "workers": args.workers,
                "batch": plan.batch,
                **({"loss": args.loss} if args.loss is not None else {}),
            },
            engine=args.engine,
            elapsed_s=wall_s,
            trace_id=plan.trace.trace_id,
            extra={
                "n_ok": result.n_ok,
                "cache_hits": result.cache_hits,
                "rounds": rounds,
                "slots": slots,
            },
        ).write(args.manifest_out)
        print(f"[manifest written to {args.manifest_out}]")
    if args.trace_out:
        import pathlib

        tracer = SessionTracer()
        trial.session(trial_seed(seed, 0), tracer=tracer)
        pathlib.Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        tracer.to_ndjson(args.trace_out)
        print(f"[trial 0 trace written to {args.trace_out}]")
    if args.trace_json:
        events = write_chrome_trace(registry, args.trace_json)
        print(f"[chrome trace ({events} events) written to {args.trace_json}]")


# -- the cache subcommand family ----------------------------------------------


_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}
_AGE_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def _parse_size(text: str) -> int:
    """``500M`` / ``2G`` / ``1048576`` -> bytes."""
    raw = text.strip().lower().rstrip("b")
    factor = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        return int(float(raw) * factor)
    except ValueError:
        raise SystemExit(f"repro-ccm: error: bad size {text!r} (try 500M, 2G)")


def _parse_age(text: str) -> float:
    """``30d`` / ``12h`` / ``3600`` (seconds) -> seconds."""
    raw = text.strip().lower()
    factor = 1.0
    if raw and raw[-1] in _AGE_SUFFIXES:
        factor = _AGE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        return float(raw) * factor
    except ValueError:
        raise SystemExit(f"repro-ccm: error: bad age {text!r} (try 30d, 12h)")


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(n)} B"  # pragma: no cover - unreachable


def _cache_store(args: argparse.Namespace):
    from repro.store import ResultStore

    return ResultStore(args.cache_dir)


def cmd_cache_ls(args: argparse.Namespace) -> None:
    from repro.store import CampaignCheckpoint

    store = _cache_store(args)
    print(f"cache {store.root}")
    header = (
        f"{'key':<14}{'trial':<40}{'seed':>12}{'engine':>8}{'bytes':>9}"
    )
    rows = 0
    for entry in store.entries():
        if rows == 0:
            print(header)
        rows += 1
        fields = entry.key_fields
        trial_type = entry.trial_type.rsplit(".", 1)[-1]
        params = (fields.get("trial") or {}).get("params") or {}
        detail = ",".join(
            f"{k}={v}" for k, v in sorted(params.items()) if not isinstance(v, list)
        )
        print(
            f"{entry.key[:12]:<14}"
            f"{(trial_type + '(' + detail + ')')[:39]:<40}"
            f"{fields.get('seed', '?'):>12}"
            f"{str(fields.get('engine')):>8}"
            f"{entry.size_bytes:>9}"
        )
    if rows == 0:
        print("(no entries)")
    journals = store.journals()
    if journals:
        print(f"\ncampaigns ({len(journals)}):")
        for namespace, key in journals:
            state = CampaignCheckpoint(
                store.root, key, namespace=namespace
            ).load()
            status = "complete" if state.completed else "in progress"
            n = state.meta.get("n_trials", "?")
            label = (f"{namespace}/" if namespace else "") + key[:12]
            print(f"  {label}  {state.n_done}/{n} trials  [{status}]")


def cmd_cache_stats(args: argparse.Namespace) -> None:
    import json as _json

    store = _cache_store(args)
    stats = store.stats()
    if args.json:
        payload = _json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload)
            print(f"[cache stats written to {args.json}]")
        return
    print(f"cache {stats.root}")
    print(f"  entries:   {stats.n_entries}")
    print(f"  size:      {_human_bytes(stats.total_bytes)}")
    print(f"  campaigns: {stats.n_campaigns}")
    if stats.oldest_utc:
        print(f"  oldest:    {stats.oldest_utc}")
        print(f"  newest:    {stats.newest_utc}")
    for trial_type, count in sorted(stats.by_trial_type.items()):
        print(f"  {trial_type}: {count}")


def cmd_cache_verify(args: argparse.Namespace) -> None:
    store = _cache_store(args)
    outcomes = store.verify(sample=args.sample, seed=args.seed or 0)
    if not outcomes:
        print("cache verify: no entries to check")
        return
    bad = [o for o in outcomes if not o.ok]
    for outcome in outcomes:
        status = "ok" if outcome.ok else f"FAIL ({outcome.reason})"
        print(f"  {outcome.key[:12]}  {status}")
    print(
        f"cache verify: {len(outcomes) - len(bad)}/{len(outcomes)} "
        f"byte-identical"
    )
    if bad:
        raise SystemExit(1)


def cmd_cache_gc(args: argparse.Namespace) -> None:
    if args.max_size is None and args.older_than is None:
        raise SystemExit(
            "repro-ccm: error: cache gc needs --max-size and/or --older-than"
        )
    store = _cache_store(args)
    outcome = store.gc(
        max_size_bytes=_parse_size(args.max_size) if args.max_size else None,
        older_than_s=_parse_age(args.older_than) if args.older_than else None,
    )
    print(
        f"cache gc: removed {outcome['removed']} entries "
        f"({_human_bytes(outcome['freed_bytes'])}), kept {outcome['kept']}"
    )


# -- the service family (repro serve / submit / jobs) --------------------------


def cmd_serve(args: argparse.Namespace) -> None:
    """Run the long-running campaign service until SIGTERM."""
    import asyncio

    from repro.serve import ServiceApp
    from repro.store import ResultStore

    kwargs = {}
    if args.event_retention is not None:
        kwargs["event_retention"] = args.event_retention
    app = ServiceApp(
        ResultStore(args.cache_dir),
        host=args.host,
        port=args.port,
        max_queue=args.queue_size,
        job_workers=args.job_workers,
        **kwargs,
    )
    asyncio.run(app.serve_forever())


def _service_client(args: argparse.Namespace):
    from repro.serve.client import ServiceClient

    return ServiceClient(args.url)


def _sweep_job_spec(args: argparse.Namespace) -> dict:
    """The paper's master sweep as a ``repro-job-v1`` document.

    Built from the same scale/execution flags ``tables`` reads, with the
    same trial construction (:class:`~repro.experiments.common.PaperTrial`
    swept over ``tag_range``) — so a served job's aggregates are
    byte-identical to the direct ``tables --json`` output.
    """
    from repro.serve.jobs import JOB_SCHEMA
    from repro.experiments.common import PROTOCOLS

    scale = _resolve_scale(args)
    plan = _resolve_plan(args)
    return {
        "schema": JOB_SCHEMA,
        "kind": "sweep",
        "trial": {
            "type": "repro.experiments.common.PaperTrial",
            "params": {
                "tag_range": 0.0,  # swept; overridden per axis point
                "n_tags": scale.n_tags,
                "protocols": list(PROTOCOLS),
                "engine": plan.engine,
            },
        },
        "n_trials": scale.n_trials,
        "base_seed": scale.base_seed,
        "plan": plan.to_json(),
        "priority": args.priority,
        "parameter": "tag_range",
        # The axis label the saved sweep carries; the trial *field* being
        # swept stays "tag_range".  Matching sweep_tag_range keeps the
        # served document byte-identical to `tables --json`.
        "parameter_label": "tag_range_m",
        "values": list(scale.tag_ranges),
    }


def cmd_submit(args: argparse.Namespace) -> None:
    """Submit the master sweep to a running service."""
    from repro.serve.client import ServiceError

    from repro.obs import TraceContext

    client = _service_client(args)
    spec = _sweep_job_spec(args)
    # Stamp a trace context onto the plan document: the service threads
    # it through the campaign's spans, checkpoint journal and events, so
    # everything this submission caused is findable by one id
    # (`repro-ccm jobs show <id> --trace`).
    trace = TraceContext.new()
    spec["plan"]["trace"] = trace.to_dict()
    try:
        job = client.submit(spec)
    except ServiceError as exc:
        if exc.status == 429:
            raise SystemExit(f"repro-ccm: queue full, retry later ({exc.message})")
        raise SystemExit(f"repro-ccm: submit failed: {exc}")
    except (ConnectionError, OSError) as exc:
        raise SystemExit(f"repro-ccm: cannot reach {args.url}: {exc}")
    print(
        f"job {job['id']} {job['state']} "
        f"({job['trials_total']} trials, priority {spec['priority']}, "
        f"trace {job.get('trace_id') or trace.trace_id})"
    )
    if args.follow:
        for event in client.events(job["id"], timeout_s=None):
            if event["kind"] == "trial":
                data = event["data"]
                hit = " (cache hit)" if data.get("from_cache") else ""
                print(
                    f"  trial {data['trial_index']}: "
                    f"{data['done']}/{data['total']}{hit}",
                    file=sys.stderr,
                )
            else:
                print(f"  job -> {event['data']['state']}", file=sys.stderr)
    if not (args.wait or args.follow or args.json):
        return
    final = client.wait(job["id"])
    print(
        f"job {final['id']} {final['state']}: "
        f"{final['trials_done']}/{final['trials_total']} trials, "
        f"{final['cache_hits']} cache hits"
    )
    if final["state"] != "done":
        raise SystemExit(
            f"repro-ccm: job ended {final['state']}"
            + (f": {final['error']}" if final.get("error") else "")
        )
    if args.json:
        from repro.sim.results import save_sweep, sweep_from_dict

        save_sweep(sweep_from_dict(final["result"]), args.json)
        print(f"[sweep saved to {args.json}]")


def cmd_jobs(args: argparse.Namespace) -> None:
    """Inspect and manage jobs on a running service."""
    import json as _json

    from repro.serve.client import ServiceError

    client = _service_client(args)
    try:
        if args.jobs_command == "ls":
            records = client.jobs()
            if not records:
                print("(no jobs)")
                return
            print(
                f"{'id':<14}{'state':<13}{'trials':>12}{'hits':>7}  submitted"
            )
            for rec in records:
                print(
                    f"{rec['id']:<14}{rec['state']:<13}"
                    f"{rec['trials_done']}/{rec['trials_total']:<6}".rjust(12)
                    + f"{rec['cache_hits']:>7}  {rec['submitted_utc']}"
                )
        elif args.jobs_command == "show":
            record = client.job(args.id)
            if getattr(args, "trace", False):
                _show_job_trace(record)
            else:
                print(_json.dumps(record, indent=2, sort_keys=True))
        elif args.jobs_command == "watch":
            if getattr(args, "dash", False):
                _watch_job_dash(client, args)
            else:
                for event in client.events(
                    args.id, since=args.since, timeout_s=None
                ):
                    print(_json.dumps(event, sort_keys=True), flush=True)
        elif args.jobs_command == "cancel":
            record = client.cancel(args.id)
            print(f"job {record['id']} -> {record['state']}")
        elif args.jobs_command == "metrics":
            sys.stdout.write(client.metrics())
    except ServiceError as exc:
        raise SystemExit(f"repro-ccm: {exc}")
    except (ConnectionError, OSError) as exc:
        raise SystemExit(f"repro-ccm: cannot reach {args.url}: {exc}")


def _show_job_trace(record: dict) -> None:
    """Render one job's persisted telemetry as its span tree."""
    from repro.obs.dash import render_span_tree

    telemetry = record.get("telemetry") or {}
    spans = telemetry.get("spans") or []
    print(
        f"job {record['id']} {record['state']}: "
        f"{record['trials_done']}/{record['trials_total']} trials, "
        f"{record['cache_hits']} cache hits"
    )
    print(render_span_tree(spans, trace_id=record.get("trace_id")))
    if not spans:
        print(
            "(telemetry is captured when the job reaches a terminal "
            "state; try again once it finishes)"
        )


def _watch_job_dash(client, args: argparse.Namespace) -> None:
    """Live single-job dashboard over the NDJSON event stream."""
    import collections

    from repro.obs.dash import DashState, render_dashboard

    record = client.job(args.id)
    arrivals: "collections.deque[float]" = collections.deque(maxlen=32)
    hits = int(record.get("cache_hits", 0))

    def redraw() -> None:
        state = DashState(url=args.url, status="ok", jobs=[record])
        if len(arrivals) >= 2 and arrivals[-1] > arrivals[0]:
            state.trials_per_s = (len(arrivals) - 1) / (
                arrivals[-1] - arrivals[0]
            )
        sys.stdout.write(
            "\x1b[H\x1b[2J" + render_dashboard(state) + "\n"
        )
        sys.stdout.flush()

    redraw()
    for event in client.events(args.id, since=args.since, timeout_s=None):
        data = event.get("data", {})
        if event.get("kind") == "trial":
            record["trials_done"] = data.get(
                "done", record.get("trials_done", 0)
            )
            if data.get("from_cache"):
                hits += 1
                record["cache_hits"] = hits
            arrivals.append(time.monotonic())
        elif event.get("kind") == "job":
            record["state"] = data.get("state", record.get("state"))
        redraw()


def cmd_top(args: argparse.Namespace) -> None:
    """Live service dashboard: queue, jobs, rates, per-phase bars."""
    from repro.obs.dash import (
        DashState,
        parse_prometheus,
        render_dashboard,
        span_bars,
    )

    client = _service_client(args)
    previous = None  # (monotonic time, total trials done)
    while True:
        try:
            health = client.healthz()
            jobs = client.jobs()
            samples = parse_prometheus(client.metrics())
        except (ConnectionError, OSError) as exc:
            raise SystemExit(f"repro-ccm: cannot reach {args.url}: {exc}")
        state = DashState(
            url=args.url,
            status=str(health.get("status", "?")),
            jobs=jobs,
            phase_seconds=span_bars(samples),
        )
        now = time.monotonic()
        done = state.trials_done
        if previous is not None and now > previous[0]:
            state.trials_per_s = max(
                0.0, (done - previous[1]) / (now - previous[0])
            )
        previous = (now, done)
        frame = render_dashboard(state, color=not args.no_color)
        if args.once:
            print(frame)
            return
        sys.stdout.write("\x1b[H\x1b[2J" + frame + "\n")
        sys.stdout.flush()
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            print()
            return


def cmd_bench(args: argparse.Namespace) -> None:
    """History of perfbench runs: record, compare, report."""
    from repro.obs import bench_track

    try:
        if args.bench_command == "record":
            for path in args.runs:
                entry = bench_track.record_run(path, args.history)
                print(
                    f"recorded {bench_track.key_label(entry)} seed "
                    f"{entry['seed']}: {len(entry['metrics'])} metric(s), "
                    f"correct={str(entry['correct']).lower()}"
                )
            print(f"[history appended to {args.history}]")
            return
        entries = bench_track.load_history(args.history)
        if args.bench_command == "report":
            print(bench_track.render_report(entries, args.bench, args.last))
            return
        text, regressed = bench_track.render_compare(
            entries, bench_track.load_spec("BENCHMARK.json"), args.bench
        )
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"repro-ccm: error: {exc}")
    print(text)
    if regressed:
        print(
            "bench compare: regression(s) beyond the spec's bounds"
            + ("" if args.strict else " (soft gate; --strict to fail)"),
            file=sys.stderr,
        )
        if args.strict:
            raise SystemExit(1)


def cmd_all(args: argparse.Namespace) -> None:
    for fn in (
        cmd_fig3,
        cmd_tables,
        cmd_theorem1,
        cmd_accuracy,
        cmd_analysis,
        cmd_ablations,
        cmd_extensions,
        cmd_statefree,
        cmd_robustness,
        cmd_estimators,
    ):
        started = time.time()
        fn(args)
        print(f"[{fn.__name__} done in {time.time() - started:.1f}s]\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ccm",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scale", choices=sorted(SCALES), default="bench",
        help="experiment scale preset (default: bench)",
    )
    common.add_argument("--n-tags", type=int, default=None)
    common.add_argument("--trials", type=int, default=None)
    common.add_argument(
        "--ranges", type=float, nargs="+", default=None,
        help="inter-tag ranges (m) to sweep",
    )
    common.add_argument("--seed", type=int, default=None)
    # The one shared execution-options group: every subcommand mounts
    # exactly the same --workers/--backend/--batch/--engine/--progress/
    # --cache/--no-cache/--cache-dir/--resume flags, and
    # RunPlan.from_args is the single interpreter for all of them.
    add_execution_arguments(common)
    common.add_argument(
        "--out", type=str, default=None, help="append reports to this file"
    )
    common.add_argument(
        "--json", type=str, default=None,
        help="save the raw sweep (tables command) as JSON",
    )
    common.add_argument(
        "--csv", type=str, default=None,
        help="flatten the raw sweep (tables command) to CSV",
    )
    common.add_argument(
        "--metrics-out", type=str, default=None,
        help="record observability metrics for this command and write "
             "them as NDJSON to this file",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("fig3", cmd_fig3, "Fig. 3: tiers vs inter-tag range"),
        ("fig4", cmd_tables, "Fig. 4 (with Tables I-IV): execution time"),
        ("tables", cmd_tables, "Fig. 4 + Tables I-IV"),
        ("theorem1", cmd_theorem1, "Theorem 1 equivalence check"),
        ("accuracy", cmd_accuracy, "GMLE accuracy & TRP detection curves"),
        ("analysis", cmd_analysis, "Eqs. 3/11-13 vs simulation"),
        ("ablations", cmd_ablations, "design-choice ablations"),
        ("extensions", cmd_extensions, "load balance, multi-reader, CICP"),
        ("statefree", cmd_statefree, "stale routing state vs state-free CCM"),
        ("robustness", cmd_robustness, "CCM under lossy busy/idle sensing"),
        ("estimators", cmd_estimators, "GMLE vs LoF over CCM"),
        ("map", cmd_map, "ASCII tier map of a deployment"),
        ("render", cmd_render, "Markdown tables from a saved sweep JSON"),
        ("all", cmd_all, "run everything"),
    ):
        p = sub.add_parser(name, help=doc, parents=[common])
        p.set_defaults(func=fn)
    prof = sub.add_parser(
        "profile",
        help="profile CCM sessions through the campaign path: "
             "per-phase self/cumulative times",
    )
    prof.add_argument("--n", type=int, default=2000, help="number of tags")
    prof.add_argument(
        "--frame", type=int, default=333, help="frame size f (slots)"
    )
    prof.add_argument(
        "--range", type=float, default=6.0, dest="range",
        help="inter-tag range r (m)",
    )
    prof.add_argument(
        "--participation", type=float, default=1.0,
        help="fraction of tags picking a slot",
    )
    prof.add_argument(
        "--loss", type=float, default=None,
        help="profile over LossyChannel(loss) instead of the perfect "
             "channel (seeds the channel rng from --seed)",
    )
    prof.add_argument("--seed", type=int, default=None)
    prof.add_argument(
        "--engine", choices=ENGINE_NAMES, default="auto",
        help="session engine (default: auto)",
    )
    prof.add_argument(
        "--trials", type=int, default=1,
        help="sessions to profile, one campaign trial each (merged "
             "per-trial phase breakdowns; default: 1)",
    )
    prof.add_argument(
        "--workers", type=int, default=0,
        help="campaign worker count; 0 = auto (default: 0)",
    )
    prof.add_argument(
        "--backend", choices=("serial", "thread", "process"),
        default="serial",
        help="campaign executor backend (default: serial); "
             "'process' merges worker registry snapshots back",
    )
    prof.add_argument(
        "--batch", type=int, default=1,
        help="trials stacked per batched session call (default: 1)",
    )
    prof.add_argument(
        "--sort", choices=("self", "cum", "tree"), default="self",
        help="profile table order (default: self time)",
    )
    prof.add_argument(
        "--metrics-out", type=str, default=None,
        help="write the run's metrics as NDJSON to this path",
    )
    prof.add_argument(
        "--manifest-out", type=str, default=None,
        help="write the run manifest to this path",
    )
    prof.add_argument(
        "--trace-out", type=str, default=None,
        help="write trial 0's protocol event trace as NDJSON",
    )
    prof.add_argument(
        "--trace-json", type=str, default=None,
        help="write a Chrome trace_event JSON timeline (open in "
             "chrome://tracing or Perfetto)",
    )
    prof.set_defaults(func=cmd_profile, handles_metrics=True)
    cache = sub.add_parser(
        "cache",
        help="inspect and maintain the content-addressed result store",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_common = argparse.ArgumentParser(add_help=False)
    cache_common.add_argument(
        "--cache-dir", type=str, default=None,
        help="result store location (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )
    ls = cache_sub.add_parser(
        "ls", parents=[cache_common],
        help="list stored trial results and campaign journals",
    )
    ls.set_defaults(func=cmd_cache_ls)
    stats = cache_sub.add_parser(
        "stats", parents=[cache_common],
        help="entry count, size on disk, campaigns, per-trial-type counts",
    )
    stats.add_argument(
        "--json", type=str, default=None,
        help="write stats as JSON to this path ('-' for stdout)",
    )
    stats.set_defaults(func=cmd_cache_stats)
    verify = cache_sub.add_parser(
        "verify", parents=[cache_common],
        help="re-run stored trials and compare canonical metric bytes",
    )
    verify.add_argument(
        "--sample", type=int, default=None,
        help="verify a deterministic random subset of N entries "
             "(default: all)",
    )
    verify.add_argument(
        "--seed", type=int, default=0, help="sampling seed (default: 0)"
    )
    verify.set_defaults(func=cmd_cache_verify)
    gc = cache_sub.add_parser(
        "gc", parents=[cache_common],
        help="evict entries by age and/or total size (oldest first)",
    )
    gc.add_argument(
        "--max-size", type=str, default=None,
        help="keep the store under this size (e.g. 500M, 2G)",
    )
    gc.add_argument(
        "--older-than", type=str, default=None,
        help="drop entries older than this age (e.g. 30d, 12h, 3600s)",
    )
    gc.set_defaults(func=cmd_cache_gc)
    serve = sub.add_parser(
        "serve",
        help="run the long-running campaign service (job-queue HTTP API)",
    )
    serve.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8737,
        help="bind port; 0 picks an ephemeral port (default: 8737)",
    )
    serve.add_argument(
        "--cache-dir", type=str, default=None,
        help="shared result-store root (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=32,
        help="waiting jobs before submissions get 429 (default: 32)",
    )
    serve.add_argument(
        "--job-workers", type=int, default=1,
        help="jobs run concurrently (default: 1; campaigns parallelize "
             "internally via their plan's executor)",
    )
    serve.add_argument(
        "--event-retention", type=int, default=None,
        help="per-job in-memory event records kept for replay (default: "
             "100000); clients further behind get a truncated marker",
    )
    serve.set_defaults(func=cmd_serve)
    url_common = argparse.ArgumentParser(add_help=False)
    url_common.add_argument(
        "--url", type=str, default="http://127.0.0.1:8737",
        help="service base URL (default: http://127.0.0.1:8737)",
    )
    submit = sub.add_parser(
        "submit", parents=[common, url_common],
        help="submit the master sweep to a running service",
    )
    submit.add_argument(
        "--priority", type=int, default=0,
        help="queue priority; higher runs first (default: 0)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its summary",
    )
    submit.add_argument(
        "--follow", action="store_true",
        help="stream the job's trial events to stderr (implies --wait)",
    )
    submit.set_defaults(func=cmd_submit)
    jobs = sub.add_parser(
        "jobs", help="inspect and manage jobs on a running service"
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)
    jobs_ls = jobs_sub.add_parser(
        "ls", parents=[url_common], help="list all jobs"
    )
    jobs_ls.set_defaults(func=cmd_jobs)
    jobs_show = jobs_sub.add_parser(
        "show", parents=[url_common],
        help="one job's full record (status + aggregates)",
    )
    jobs_show.add_argument("id", type=str)
    jobs_show.add_argument(
        "--trace", action="store_true",
        help="render the job's telemetry as its job/campaign/trial/"
             "round span tree instead of raw JSON",
    )
    jobs_show.set_defaults(func=cmd_jobs)
    jobs_watch = jobs_sub.add_parser(
        "watch", parents=[url_common],
        help="stream a job's NDJSON events until it finishes",
    )
    jobs_watch.add_argument("id", type=str)
    jobs_watch.add_argument(
        "--since", type=int, default=0,
        help="replay from this event sequence number (default: 0)",
    )
    jobs_watch.add_argument(
        "--dash", action="store_true",
        help="render a live single-job dashboard instead of raw NDJSON",
    )
    jobs_watch.set_defaults(func=cmd_jobs)
    jobs_cancel = jobs_sub.add_parser(
        "cancel", parents=[url_common], help="cancel a queued or running job"
    )
    jobs_cancel.add_argument("id", type=str)
    jobs_cancel.set_defaults(func=cmd_jobs)
    jobs_metrics = jobs_sub.add_parser(
        "metrics", parents=[url_common],
        help="print the service's Prometheus metrics",
    )
    jobs_metrics.set_defaults(func=cmd_jobs)
    top = sub.add_parser(
        "top", parents=[url_common],
        help="live ANSI dashboard of a running service (queue, jobs, "
             "trials/sec, cache hit rate, per-phase bars)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period in seconds (default: 2.0)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (for scripts and CI)",
    )
    top.add_argument(
        "--no-color", action="store_true",
        help="plain text frames (no ANSI colours)",
    )
    top.set_defaults(func=cmd_top)
    bench = sub.add_parser(
        "bench",
        help="history of perfbench runs: record run outputs, compare the "
             "last two runs by BENCHMARK.json's bounds, report trends",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_common = argparse.ArgumentParser(add_help=False)
    bench_common.add_argument(
        "--history", type=str,
        default="benchmarks/output/BENCH_history.ndjson",
        help="history NDJSON path (default: "
             "benchmarks/output/BENCH_history.ndjson)",
    )
    bench_record = bench_sub.add_parser(
        "record", parents=[bench_common],
        help="append saved perfbench/run.py outputs as history lines",
    )
    bench_record.add_argument(
        "runs", nargs="+", help="saved standard output of perfbench/run.py",
    )
    bench_record.set_defaults(func=cmd_bench)
    bench_compare = bench_sub.add_parser(
        "compare", parents=[bench_common],
        help="newest vs previous run per workload, size and tracing, "
             "judged by BENCHMARK.json (read from the working directory)",
    )
    bench_compare.add_argument(
        "--bench", type=str, default=None, help="restrict to one workload",
    )
    bench_compare.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on flagged regressions (default: warn only)",
    )
    bench_compare.set_defaults(func=cmd_bench)
    bench_report = bench_sub.add_parser(
        "report", parents=[bench_common],
        help="metric trajectories across recorded runs",
    )
    bench_report.add_argument(
        "--bench", type=str, default=None, help="restrict to one workload",
    )
    bench_report.add_argument(
        "--last", type=int, default=6,
        help="show at most the last N runs per key (default: 6)",
    )
    bench_report.set_defaults(func=cmd_bench)
    scen = sub.add_parser(
        "scenario",
        help="mobile-reader scenarios: run one timeline, or sweep "
             "motion-vs-static (trajectories, power-cycling, mobility)",
    )
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)
    scen_common = argparse.ArgumentParser(add_help=False)
    scen_common.add_argument(
        "--n-tags", type=int, default=2000,
        help="tags in the deployment disk (default: 2000)",
    )
    scen_common.add_argument(
        "--range", type=float, default=6.0, dest="range",
        help="inter-tag range r (m) (default: 6.0)",
    )
    scen_common.add_argument(
        "--frame", type=int, default=1671,
        help="frame size f (slots) (default: 1671)",
    )
    scen_common.add_argument(
        "--operations", type=int, default=3,
        help="CCM operations on the timeline (default: 3)",
    )
    scen_common.add_argument(
        "--gap", type=float, default=30.0,
        help="idle seconds between operations (default: 30)",
    )
    scen_common.add_argument(
        "--speed", type=float, default=2.0,
        help="reader speed in m/s (default: 2.0)",
    )
    scen_common.add_argument(
        "--relocate", type=float, default=0.0,
        help="fraction of tags relocated uniformly between operations",
    )
    scen_common.add_argument(
        "--loss", type=float, default=0.0,
        help="per-bit channel loss probability (default: 0)",
    )
    scen_common.add_argument(
        "--out", type=str, default=None, help="append reports to this file"
    )
    scen_common.add_argument(
        "--metrics-out", type=str, default=None,
        help="record observability metrics for this command and write "
             "them as NDJSON to this file",
    )
    scen_run = scen_sub.add_parser(
        "run", parents=[scen_common],
        help="one scenario timeline; prints the per-operation table",
    )
    scen_run.add_argument(
        "--trajectory", choices=TRAJECTORY_NAMES, default="static",
        help="reader trajectory (default: static = the paper's setup)",
    )
    # --power-threshold/--step live per-subparser, not in scen_common:
    # run and sweep want different defaults, and argparse set_defaults()
    # would mutate the parent's shared actions for both.
    scen_run.add_argument(
        "--power-threshold", type=float, default=None,
        help="received-power threshold (dBm) below which a tag sleeps "
             "for the round (default: always powered)",
    )
    scen_run.add_argument(
        "--step", type=float, default=0.0,
        help="max per-tag displacement (m) between operations "
             "(default: 0 = stationary tags)",
    )
    scen_run.add_argument(
        "--participation", type=float, default=1.0,
        help="fraction of tags picking a slot each operation",
    )
    scen_run.add_argument(
        "--seed", type=int, default=0,
        help="scenario seed (repro-scenario-rng-v1; default: 0)",
    )
    scen_run.add_argument(
        "--journal", type=str, default=None,
        help="write the deterministic event journal as NDJSON here",
    )
    scen_run.set_defaults(func=cmd_scenario)
    scen_sweep = scen_sub.add_parser(
        "sweep", parents=[scen_common],
        help="motion-vs-static comparison across a trajectory family",
    )
    scen_sweep.add_argument(
        "--trajectory", dest="trajectories", nargs="+",
        choices=TRAJECTORY_NAMES, default=["static", "aisle", "uav"],
        help="trajectories to compare (default: static aisle uav)",
    )
    scen_sweep.add_argument(
        "--power-threshold", type=float, default=-22.0,
        help="received-power threshold (dBm) for the moving rows "
             "(default: -22; static always runs fully powered)",
    )
    scen_sweep.add_argument(
        "--step", type=float, default=1.0,
        help="max per-tag displacement (m) between operations for the "
             "moving rows (default: 1.0)",
    )
    scen_sweep.add_argument(
        "--trials", type=int, default=3,
        help="trials per trajectory (default: 3)",
    )
    scen_sweep.add_argument(
        "--seed", type=int, default=90_210,
        help="base seed for the trial family (default: 90210)",
    )
    # Scenario trials always run ScenarioSessionEngine: no --engine.
    add_execution_arguments(scen_sweep, engine=False)
    scen_sweep.set_defaults(func=cmd_scenario)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out and not getattr(args, "handles_metrics", False):
        from repro.obs import MetricsRegistry, metrics_to_ndjson, use_registry

        with use_registry(MetricsRegistry()) as registry:
            args.func(args)
        metrics_to_ndjson(registry, metrics_out)
        print(f"[metrics written to {metrics_out}]")
    else:
        args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
