"""Parallel campaign execution engine for Monte-Carlo trial fan-out.

The paper's evaluation averages every data point over 100 independent
deployments (Sec. VI-A); trials are independent by construction (derived
seeds, no shared state), which makes trial-level fan-out the natural
parallelism.  This module provides it:

* :class:`ExecutorConfig` — where and how trials run (``process`` /
  ``thread`` / ``serial`` backend, worker count, chunking, timeout,
  bounded retry, ``fail_fast``).
* :class:`Campaign` — the forward-facing object API: a trial function,
  a trial count, a base seed, and an executor; ``run()`` returns a
  :class:`CampaignResult` with aggregates *and* structured failures.
* :class:`TrialFailure` — a worker exception captured as data (type,
  message, traceback, attempts) instead of a crashed campaign.
* :func:`stderr_ticker` — a default progress callback for CLIs.

Determinism contract: every backend derives the per-trial seed stream
with :func:`repro.sim.runner.trial_seed` and aggregates per-trial
metrics in trial-index order, so serial and parallel runs of the same
campaign produce bit-identical :class:`~repro.sim.runner.TrialAggregate`
values.

Process-backend caveat: the trial function crosses a pickle boundary, so
it must be a module-level function or a picklable callable object (e.g.
:class:`repro.experiments.common.PaperTrial`) — not a closure.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import sys
import time
import traceback as _traceback
from concurrent import futures
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from repro.obs import metrics as obs_metrics
from repro.obs.spans import current_span_path, reset_span_stack
from repro.sim.plan import RunPlan
from repro.sim.runner import (
    MetricDict,
    TrialAggregate,
    TrialFn,
    aggregate_metrics,
    trial_seed,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.store.cache import ResultStore
    from repro.store.checkpoint import CampaignCheckpoint

#: Recognised values for :attr:`ExecutorConfig.backend`.
BACKENDS = ("process", "thread", "serial")

#: Progress callback signature: ``(trial_index, elapsed_s, metrics)``.
#: ``metrics`` is ``None`` when the trial ultimately failed.  Called from
#: the parent process as results arrive, possibly out of trial order.
#: Callbacks may accept a fourth positional argument ``from_cache``
#: (bool) — the campaign detects the arity and passes it when the
#: callback takes it, so three-argument callbacks keep working.
ProgressFn = Callable[[int, float, Optional[MetricDict]], None]


def _progress_arity(fn: Callable) -> int:
    """How many positional args a progress callback accepts (3 or 4)."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):  # builtins, C callables
        return 3
    positional = 0
    for param in sig.parameters.values():
        if param.kind == inspect.Parameter.VAR_POSITIONAL:
            return 4
        if param.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            positional += 1
    return 4 if positional >= 4 else 3


@dataclass(frozen=True)
class ExecutorConfig:
    """How a campaign's trials are executed.

    Parameters
    ----------
    workers:
        Worker count; ``0`` means auto (``os.cpu_count()``).  Ignored by
        the ``serial`` backend.
    backend:
        ``"process"`` (default — true parallelism, trial function must be
        picklable), ``"thread"`` (shared memory, useful when trials release
        the GIL or for testing), or ``"serial"`` (in-process loop that
        still provides failure capture, retries and progress).
    chunk_size:
        Trials submitted per worker task; raise it to amortise IPC when
        individual trials are very cheap.
    timeout_s:
        Overall wall-clock budget for the campaign's result harvest; on
        expiry pending work is cancelled and :class:`CampaignTimeout` is
        raised.  The pools raise at the deadline: process workers are
        killed.  A running thread cannot be stopped: its result is
        dropped, never stored, but until it returns it keeps its pool
        thread (interpreter exit waits for it) and still records spans
        and counters into whichever registry is live.  The ``serial``
        backend checks it between chunks (a running chunk is not
        interrupted).  ``None`` means no limit.
    max_retries:
        Bounded retries per failing trial.  Each retry re-derives the
        seed deterministically (attempt number enters the derivation), so
        retried campaigns remain reproducible.
    fail_fast:
        Abort the whole campaign on the first trial failure by raising
        :class:`CampaignError` instead of collecting the failure.
    """

    workers: int = 0
    backend: str = "process"
    chunk_size: int = 1
    timeout_s: Optional[float] = None
    max_retries: int = 0
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    @classmethod
    def serial(cls, **overrides) -> "ExecutorConfig":
        """The in-process backend (what the default plan runs on)."""
        overrides.setdefault("workers", 1)
        return cls(backend="serial", **overrides)

    def resolved_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        return max(1, os.cpu_count() or 1)


@dataclass
class TrialFailure:
    """One trial's terminal failure, captured as data.

    Carries everything needed to reproduce and diagnose the failure
    without re-running the campaign: the trial index, the seed of the
    *last* attempt, how many attempts were made, and the exception's
    type name, message and full traceback text (strings, so the record
    crosses process boundaries regardless of the exception class).
    """

    trial_index: int
    seed: int
    attempts: int
    error_type: str
    message: str
    traceback: str

    def __str__(self) -> str:
        return (
            f"trial {self.trial_index} failed after {self.attempts} "
            f"attempt(s) (last seed {self.seed}): "
            f"{self.error_type}: {self.message}"
        )


class CampaignError(RuntimeError):
    """A campaign ended with trial failures the caller did not tolerate.

    ``failures`` holds the structured records; ``aggregates`` holds the
    statistics of whatever trials did succeed (possibly empty).
    """

    def __init__(
        self,
        failures: Sequence[TrialFailure],
        aggregates: Optional[Dict[str, TrialAggregate]] = None,
    ):
        self.failures = list(failures)
        self.aggregates = aggregates or {}
        lines = [f"{len(self.failures)} trial(s) failed:"]
        lines += [f"  {f}" for f in self.failures[:5]]
        if len(self.failures) > 5:
            lines.append(f"  ... and {len(self.failures) - 5} more")
        super().__init__("\n".join(lines))


class CampaignTimeout(CampaignError):
    """The campaign exceeded :attr:`ExecutorConfig.timeout_s`."""

    def __init__(self, timeout_s: float, done: int, total: int):
        self.timeout_s = timeout_s
        self.done = done
        self.total = total
        RuntimeError.__init__(
            self,
            f"campaign timed out after {timeout_s}s "
            f"with {done}/{total} trials finished",
        )
        self.failures = []
        self.aggregates = {}


@dataclass
class CampaignResult:
    """Everything a finished campaign produced.

    ``per_trial`` is index-ordered with ``None`` holes where trials
    failed; ``aggregates`` covers the successful trials only and is
    empty if none succeeded.

    The observability fields: ``total_trial_wall_s`` sums the wall time
    every trial spent executing (all attempts, measured in the worker);
    ``retries`` counts re-attempts beyond each trial's first;
    ``worker_utilization`` is ``total_trial_wall_s / (elapsed_s ×
    workers)`` — the fraction of the worker pool's capacity the campaign
    actually kept busy (low values mean IPC/queueing dominate and fewer
    workers or bigger chunks would do as well).

    ``cache_hits`` counts trials served from the
    :class:`~repro.store.cache.ResultStore` instead of being computed
    (always 0 when the campaign ran without a store).
    """

    aggregates: Dict[str, TrialAggregate]
    failures: List[TrialFailure]
    n_trials: int
    elapsed_s: float
    per_trial: List[Optional[MetricDict]] = field(default_factory=list)
    total_trial_wall_s: float = 0.0
    retries: int = 0
    worker_utilization: Optional[float] = None
    cache_hits: int = 0

    @property
    def n_ok(self) -> int:
        return self.n_trials - len(self.failures)

    @property
    def n_computed(self) -> int:
        """Successful trials that were actually executed (ok − hits)."""
        return self.n_ok - self.cache_hits

    @property
    def ok(self) -> bool:
        return not self.failures


def stderr_ticker(
    n_trials: int,
    label: str = "campaign",
    stream: Optional[TextIO] = None,
    *,
    min_interval_s: float = 0.1,
    force: bool = False,
) -> ProgressFn:
    """A default progress callback: a one-line stderr counter.

    Counts trials as they finish and rewrites one ``\\r`` line, at most
    every ``min_interval_s`` seconds (so thousands of fast trials don't
    flood the terminal); when the campaign completes it prints a final
    summary line (``done: <ok> ok, <failed> failed, <elapsed>s``) and
    resets, so one ticker can be reused across the points of a sweep
    (each point runs the same trial count).  When a campaign serves
    trials from the result store the ticker separates them in both the
    live line and the summary — ``done: 90 ok (72 hit, 18 computed),
    0 failed, 1.2s`` — cache-free campaigns keep the historical text.

    When writing to the default ``sys.stderr`` and it is not a TTY
    (logs, CI), the ``\\r`` progress line is suppressed — only the final
    summary is emitted — unless ``force=True``.  An explicitly passed
    ``stream`` is always written to: the caller chose the destination.
    """
    out = stream if stream is not None else sys.stderr
    if force or stream is not None:
        show_progress = True
    else:
        try:
            show_progress = bool(out.isatty())
        except (AttributeError, ValueError):
            show_progress = False
    state = {"done": 0, "failed": 0, "hits": 0, "last_line": float("-inf")}

    def tick(
        trial_index: int,
        elapsed_s: float,
        metrics: Optional[MetricDict],
        from_cache: bool = False,
    ) -> None:
        state["done"] += 1
        if metrics is None:
            state["failed"] += 1
        elif from_cache:
            state["hits"] += 1
        final = state["done"] >= n_trials
        now = time.monotonic()
        if show_progress and (
            final or now - state["last_line"] >= min_interval_s
        ):
            state["last_line"] = now
            # Keep the live line's split consistent with CampaignResult
            # (and the final summary): hits vs actually computed trials.
            if state["hits"]:
                computed = state["done"] - state["failed"] - state["hits"]
                hit_note = f", {state['hits']} hit, {computed} computed"
            else:
                hit_note = ""
            out.write(
                f"\r[{label}] {state['done']}/{n_trials} trials "
                f"({elapsed_s:.1f}s{hit_note})"
            )
            if final:
                out.write("\n")
        if final:
            ok = state["done"] - state["failed"]
            if state["hits"]:
                ok_note = (
                    f"{ok} ok ({state['hits']} hit, "
                    f"{ok - state['hits']} computed)"
                )
            else:
                ok_note = f"{ok} ok"
            out.write(
                f"[{label}] done: {ok_note}, {state['failed']} failed, "
                f"{elapsed_s:.1f}s\n"
            )
            state["done"] = 0
            state["failed"] = 0
            state["hits"] = 0
            state["last_line"] = float("-inf")
        out.flush()

    return tick


# -- worker-side execution ----------------------------------------------------
#
# Everything submitted to a pool is a module-level function taking plain
# picklable arguments, and everything returned is plain data (metric dicts
# and TrialFailure records) — no live exception objects cross the boundary.


#: A worker's captured registry snapshot (``MetricsRegistry.to_dict()``
#: document) or ``None`` when capture was off for the task.
ObsSnapshot = Optional[Dict[str, Any]]

#: One harvested trial record: ``(trial_index, metrics, failure, wall_s,
#: attempts, obs_snapshot)``.
TrialRecord = Tuple[
    int, Optional[Dict[str, float]], Optional[TrialFailure], float, int,
    ObsSnapshot,
]


@contextmanager
def _captured(capture_obs) -> Iterator[Optional[obs_metrics.MetricsRegistry]]:
    """Record the body into a fresh worker-side registry on request.

    ``capture_obs`` is falsy (no capture: yields ``None`` and the body
    records into the live registry), ``True`` (aggregates only) or
    ``"timeline"`` (aggregates plus per-occurrence events for Chrome
    trace export — requested when the parent registry buffers a
    timeline).  The previous registry is restored on exit, so the caller
    can ship ``to_dict()`` of what was captured.
    """
    if not capture_obs:
        yield None
        return
    # A forked worker inherits the parent's thread-local span stack (the
    # open ``campaign`` span); clear it so captured paths are rooted at
    # the worker's own spans and prefixing happens exactly once — at merge.
    reset_span_stack()
    local = obs_metrics.MetricsRegistry()
    if capture_obs == "timeline":
        local.enable_timeline()
    previous = obs_metrics.set_registry(local)
    try:
        yield local
    finally:
        obs_metrics.set_registry(previous)


def _execute_trial(
    trial_fn: TrialFn,
    trial_index: int,
    base_seed: int,
    max_retries: int,
    capture_obs=False,
) -> Tuple[
    Optional[Dict[str, float]], Optional[TrialFailure], float, int,
    ObsSnapshot,
]:
    """Run one trial with bounded retries; never raises.

    Returns ``(metrics, failure, wall_s, attempts, obs_snapshot)``:
    ``(metrics, None, ...)`` on success or ``(None, TrialFailure, ...)``
    after the last attempt fails; ``wall_s`` is the wall time across
    *all* attempts, measured where the trial ran (so it crosses process
    boundaries as plain data).  Attempt ``a`` uses ``trial_seed(base_seed,
    trial_index, a)`` so retries are themselves deterministic and
    independent of the failing seed.

    With ``capture_obs`` set (process-backend workers), the trial runs
    under a fresh registry whose ``to_dict()`` snapshot is shipped back
    as the fifth element — the parent merges it so per-phase spans from
    inside the worker survive the process boundary.  The whole execution
    is wrapped in a ``trial`` span, so serial runs record
    ``campaign/trial/session/...`` and merged worker snapshots land on
    exactly the same paths.
    """
    with _captured(capture_obs) as local:
        obs = obs_metrics.OBS
        last: Optional[TrialFailure] = None
        metrics: Optional[Dict[str, float]] = None
        attempts = max_retries + 1
        started = time.perf_counter()
        with obs.span("trial"):
            for attempt in range(max_retries + 1):
                seed = trial_seed(base_seed, trial_index, attempt)
                try:
                    metrics = dict(trial_fn(trial_index, seed))
                except Exception as exc:  # noqa: BLE001 - isolation is the point
                    last = TrialFailure(
                        trial_index=trial_index,
                        seed=seed,
                        attempts=attempt + 1,
                        error_type=type(exc).__name__,
                        message=str(exc),
                        traceback=_traceback.format_exc(),
                    )
                else:
                    last = None
                    attempts = attempt + 1
                    break
        wall = time.perf_counter() - started
    snapshot = local.to_dict() if local is not None else None
    if last is not None:
        return None, last, wall, max_retries + 1, snapshot
    return metrics, None, wall, attempts, snapshot


def _run_chunk(
    trial_fn: TrialFn,
    indices: Sequence[int],
    base_seed: int,
    max_retries: int,
    capture_obs=False,
) -> List[TrialRecord]:
    """Worker task: execute a chunk of trial indices."""
    return [
        (k,) + _execute_trial(trial_fn, k, base_seed, max_retries, capture_obs)
        for k in indices
    ]


def _run_batch_chunk(
    trial_fn: TrialFn,
    indices: Sequence[int],
    base_seed: int,
    max_retries: int,
    capture_obs=False,
) -> List[TrialRecord]:
    """Worker task: run a group of trials through the trial's batched hook.

    ``trial_fn.run_batch(indices, seeds)`` advances all the trials in
    one batched kernel call and returns their metric dicts in order.
    The seeds are the same :func:`~repro.sim.runner.trial_seed` stream
    per-trial dispatch uses, and the ``repro-batch-rng-v1`` contract
    makes the batched results bit-identical to per-trial ones — which is
    why any batch failure can simply fall back to the per-trial path
    (recovering trial isolation and bounded retries without changing a
    single result).  Wall time is attributed evenly across the group.

    With ``capture_obs`` set, the batch runs under a fresh registry and
    its snapshot rides on the *first* record of the group (telemetry is
    batch-grained here — the kernel advances all trials together).  A
    failed batch's partial telemetry is dropped with it.
    """
    indices = list(indices)
    with _captured(capture_obs) as local:
        started = time.perf_counter()
        try:
            seeds = [trial_seed(base_seed, k) for k in indices]
            metrics_list = trial_fn.run_batch(indices, seeds)
            if len(metrics_list) != len(indices):
                raise ValueError(
                    f"run_batch returned {len(metrics_list)} results for "
                    f"{len(indices)} trials"
                )
        except Exception:  # noqa: BLE001 - fall back to isolated trials
            metrics_list = None
        share = (time.perf_counter() - started) / len(indices)
    if metrics_list is None:
        return _run_chunk(trial_fn, indices, base_seed, max_retries, capture_obs)
    records: List[TrialRecord] = [
        (k, dict(metrics), None, share, 1, None)
        for k, metrics in zip(indices, metrics_list)
    ]
    if local is not None and records:
        records[0] = records[0][:5] + (local.to_dict(),)
    return records


# -- the campaign -------------------------------------------------------------


@dataclass
class _CacheContext:
    """Everything a cached campaign resolved up front."""

    store: "ResultStore"
    keys: List[str]
    key_fields: List[Dict[str, Any]]
    checkpoint: "CampaignCheckpoint"
    provenance_base: Dict[str, Any]


@dataclass
class Campaign:
    """A reproducible batch of independent trials with one seed stream.

    The one way trials run (``run_trials`` and ``sweep`` build one per
    call): construct with a trial function ``(trial_index, seed) ->
    metric dict``, a trial count, a base seed, and optionally a
    :class:`~repro.sim.plan.RunPlan`; ``run()`` executes and returns a
    :class:`CampaignResult`.

    The pending trials are cut into chunks once — ``plan.batch`` groups
    through the trial's ``run_batch`` hook when it has one, otherwise
    ``chunk_size`` groups of isolated trials — and one dispatch runs
    them: the default plan (the ``serial`` backend) in order on the
    calling thread, ``plan.executor`` on a process or thread pool.  Every
    backend records the same ``campaign/trial/...`` span tree and
    ``campaign_*`` metrics, and aggregates are bit-identical across them.

    ``plan.store`` plugs in a :class:`~repro.store.cache.ResultStore` as
    a read-through/write-through memoization layer: before any trial is
    dispatched its content address (trial config + index + seed + engine
    + code fingerprint) is checked against the store, hits are served
    from disk (in trial-index order, ``from_cache=True`` to four-argument
    progress callbacks), and every computed first-attempt success is
    written back atomically.  Aggregates are bit-identical with the
    cache on, off, hot or cold — the cached floats round-trip exactly
    through canonical JSON.  The trial function must be *describable*
    (see :func:`repro.store.cache.trial_config_of`).  ``plan.resume``
    appends to the campaign's checkpoint journal instead of truncating
    it — the flag a restarted process sets after a crash or kill — and
    ``plan.checkpoint_namespace`` relocates the journal under a
    namespaced subdirectory so concurrent identical campaigns (e.g. two
    ``repro serve`` jobs) never share one journal file.
    """

    trial_fn: TrialFn
    n_trials: int
    base_seed: int = 0
    plan: Optional[RunPlan] = None
    on_trial_done: Optional[ProgressFn] = None

    def __post_init__(self) -> None:
        if self.plan is None:
            self.plan = RunPlan()

    def run(self) -> CampaignResult:
        if self.n_trials <= 0:
            raise ValueError("n_trials must be positive")
        cfg = self.plan.executor or ExecutorConfig.serial()
        obs = obs_metrics.OBS
        # Worker processes have their own (null) module registry, so their
        # spans/metrics would vanish with the worker; capture ships each
        # trial's registry snapshot back for merging.  Serial and thread
        # backends record into this process's live registry directly.
        capture: Any = False
        if obs.enabled and cfg.backend == "process":
            capture = "timeline" if getattr(obs, "timeline_enabled", False) else True
        started = time.perf_counter()
        per_trial: List[Optional[Dict[str, float]]] = [None] * self.n_trials
        failures: List[TrialFailure] = []
        totals = {"wall": 0.0, "retries": 0, "hits": 0}
        workers = 1 if cfg.backend == "serial" else cfg.resolved_workers()
        cache = self._prepare_cache()
        arity = (
            _progress_arity(self.on_trial_done)
            if self.on_trial_done is not None
            else 0
        )

        def record(
            k: int,
            metrics: Optional[Dict[str, float]],
            failure: Optional[TrialFailure],
            wall_s: float,
            attempts: int,
            from_cache: bool = False,
            snapshot: ObsSnapshot = None,
        ) -> None:
            per_trial[k] = metrics
            elapsed = time.perf_counter() - started
            if snapshot is not None:
                # Graft the worker's span tree under this thread's active
                # span path (the open ``campaign`` span — plus whatever
                # encloses it, e.g. a serve job's ``job`` span), exactly
                # where a serial run would have recorded it.
                obs.merge(snapshot, prefix=current_span_path())
            totals["wall"] += wall_s
            totals["retries"] += attempts - 1
            obs.inc(
                "campaign_trials_failed" if failure is not None
                else "campaign_trials_ok"
            )
            if from_cache:
                totals["hits"] += 1
                obs.inc("campaign_cache_hits_total")
            if attempts > 1:
                obs.inc("campaign_retries_total", attempts - 1)
            obs.observe("campaign_trial_wall_s", wall_s)
            # Queue wait: all chunks are submitted up front, so a trial's
            # wait-for-a-worker is its completion time minus its own wall
            # time (an upper bound when chunk_size > 1 lumps siblings).
            obs.observe("campaign_queue_wait_s", max(0.0, elapsed - wall_s))
            if failure is not None:
                failures.append(failure)
            if cache is not None:
                # Write-through: only first-attempt successes are
                # memoized — a retried success ran under a *retry* seed,
                # which is not the seed the content address names.
                if failure is None and not from_cache and attempts == 1:
                    cache.store.put(
                        cache.keys[k],
                        cache.key_fields[k],
                        metrics,
                        {**cache.provenance_base, "elapsed_s": wall_s},
                    )
                cache.checkpoint.record_trial(
                    k, cache.keys[k], ok=failure is None, cached=from_cache
                )
            if self.on_trial_done is not None:
                if arity >= 4:
                    self.on_trial_done(k, elapsed, metrics, from_cache)
                else:
                    self.on_trial_done(k, elapsed, metrics)
            if failure is not None and cfg.fail_fast:
                raise CampaignError([failure])

        try:
            with obs.span("campaign"):
                pending = list(range(self.n_trials))
                if cache is not None:
                    pending = []
                    for k in range(self.n_trials):
                        hit = cache.store.get(cache.keys[k])
                        if hit is not None:
                            record(k, hit, None, 0.0, 1, from_cache=True)
                        else:
                            obs.inc("campaign_cache_misses_total")
                            pending.append(k)
                if pending:
                    self._dispatch(cfg, record, pending, capture)
        except BaseException:
            # The journal stays on disk with every completed trial —
            # that is exactly what --resume reads after a crash.
            if cache is not None:
                cache.checkpoint.close()
            raise

        successes = [m for m in per_trial if m is not None]
        aggregates = aggregate_metrics(successes) if successes else {}
        failures.sort(key=lambda f: f.trial_index)
        elapsed_s = time.perf_counter() - started
        utilization = (
            totals["wall"] / (elapsed_s * workers) if elapsed_s > 0 else None
        )
        if utilization is not None:
            obs.set_gauge("campaign_worker_utilization", utilization)
        result = CampaignResult(
            aggregates=aggregates,
            failures=failures,
            n_trials=self.n_trials,
            elapsed_s=elapsed_s,
            per_trial=per_trial,
            total_trial_wall_s=totals["wall"],
            retries=totals["retries"],
            worker_utilization=utilization,
            cache_hits=totals["hits"],
        )
        if cache is not None:
            if not failures:
                from repro.store.canonical import digest

                agg_digest = digest(
                    {n: dataclasses.asdict(a) for n, a in aggregates.items()}
                )
                cache.checkpoint.complete(agg_digest, elapsed_s)
            cache.checkpoint.close()
        return result

    def _prepare_cache(self) -> Optional[_CacheContext]:
        if self.plan.store is None:
            if self.plan.resume:
                raise ValueError("resume=True requires a result store")
            return None
        from repro.store.cache import (
            ResultStore,
            trial_config_of,
            trial_key,
        )
        from repro.store.checkpoint import CampaignCheckpoint, campaign_key
        from repro.store.fingerprint import code_fingerprint

        config = trial_config_of(self.trial_fn)
        if config is None:
            raise ValueError(
                "trial function is not cacheable: use a dataclass trial "
                "(e.g. repro.experiments.common.PaperTrial) or give it a "
                "cache_config() method"
            )
        engine = getattr(self.trial_fn, "engine", None)
        fingerprint = code_fingerprint()
        keys: List[str] = []
        key_fields: List[Dict[str, Any]] = []
        for k in range(self.n_trials):
            fields_k = {
                "schema": "repro-trial-key-v1",
                "trial": config,
                "trial_index": k,
                "seed": trial_seed(self.base_seed, k),
                "engine": engine,
                "code_fingerprint": fingerprint,
            }
            key_fields.append(fields_k)
            keys.append(
                trial_key(
                    config, k, fields_k["seed"], engine, fingerprint
                )
            )
        ckpt = CampaignCheckpoint(
            self.plan.store.root,
            campaign_key(
                config, self.n_trials, self.base_seed, engine, fingerprint
            ),
            namespace=self.plan.checkpoint_namespace,
            trace_id=(
                self.plan.trace.trace_id
                if self.plan.trace is not None
                else None
            ),
        )
        ckpt.begin(
            {
                "trial": config,
                "n_trials": self.n_trials,
                "base_seed": self.base_seed,
                "engine": engine,
                "code_fingerprint": fingerprint,
            },
            resume=self.plan.resume,
        )
        obs_metrics.OBS.inc("campaign_cache_campaigns_total")
        return _CacheContext(
            store=self.plan.store,
            keys=keys,
            key_fields=key_fields,
            checkpoint=ckpt,
            provenance_base=ResultStore.default_provenance(engine=engine),
        )

    def _dispatch(
        self,
        cfg: ExecutorConfig,
        record: Callable[..., None],
        pending: List[int],
        capture_obs,
    ) -> None:
        """Cut ``pending`` into chunks and run them on ``cfg.backend``.

        ``plan.batch > 1`` on a trial with a ``run_batch`` hook makes each
        batch one chunk (``chunk_size`` is then ignored); otherwise
        chunks are ``chunk_size`` isolated trials.  The serial backend
        runs the chunks in order on this thread and checks ``timeout_s``
        between them (a running chunk is never interrupted); the pools
        submit them all up front, harvest as they complete, and on a
        timeout or any raise leave through :func:`_abandon_pool`.
        """
        worker: Callable[..., List[TrialRecord]] = _run_chunk
        size = cfg.chunk_size
        if self.plan.batch > 1 and callable(
            getattr(self.trial_fn, "run_batch", None)
        ):
            worker, size = _run_batch_chunk, self.plan.batch
        chunks = [pending[i : i + size] for i in range(0, len(pending), size)]
        args = (self.base_seed, cfg.max_retries, capture_obs)
        done = 0

        def harvest(records: List[TrialRecord]) -> None:
            nonlocal done
            for k, metrics, failure, wall_s, attempts, snap in records:
                record(k, metrics, failure, wall_s, attempts, snapshot=snap)
                done += 1

        if cfg.backend == "serial":
            started = time.perf_counter()
            for chunk in chunks:
                if (
                    cfg.timeout_s is not None
                    and time.perf_counter() - started > cfg.timeout_s
                ):
                    raise CampaignTimeout(cfg.timeout_s, done, len(pending))
                harvest(worker(self.trial_fn, chunk, *args))
            return
        # No ``with``: its exit joins the workers, which would hold a
        # timeout or fail-fast raise until every running chunk finished.
        if cfg.backend == "process":
            pool = futures.ProcessPoolExecutor(cfg.resolved_workers())
        else:
            pool = futures.ThreadPoolExecutor(
                cfg.resolved_workers(),
                initializer=reset_span_stack,
                initargs=(current_span_path(),),
            )
        try:
            submitted = [
                pool.submit(worker, self.trial_fn, chunk, *args)
                for chunk in chunks
            ]
            try:
                for fut in futures.as_completed(submitted, timeout=cfg.timeout_s):
                    harvest(fut.result())
            except futures.TimeoutError:
                raise CampaignTimeout(cfg.timeout_s, done, len(pending))
        except BaseException:
            _abandon_pool(pool)
            raise
        pool.shutdown()


def _abandon_pool(pool: futures.Executor) -> None:
    """Shut ``pool`` down now, without waiting for its running chunks.

    Process workers (the executor's worker map) are killed; the dead
    workers break the pool, whose manager thread then reaps them, so the
    waiting shutdown returns at once and no child outlives the raise.
    (Joining the workers here instead races that thread for the exit
    status, and a child it reaped second can still read as alive.)
    SIGKILL rather than SIGTERM: workers forked from a process that
    handles SIGTERM, such as ``repro serve``, inherit the handler and
    would ignore a terminate.  Threads cannot be stopped; a running one
    finishes in the background, and since results are recorded only by
    the harvesting thread, its late result is dropped unrecorded.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in procs:
        proc.kill()
    pool.shutdown(wait=bool(procs), cancel_futures=True)
