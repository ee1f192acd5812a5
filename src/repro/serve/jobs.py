"""Job specs and the bounded priority job queue behind ``repro serve``.

A *job* is one campaign or sweep submitted over the wire: a trial
description (importable type + params, exactly the shape the result
store's ``verify`` already reconstructs), a trial count, a base seed and
a ``repro-run-plan-v1`` execution plan, all as one ``repro-job-v1``
JSON document.  The :class:`JobManager` runs jobs through the ordinary
:class:`~repro.sim.parallel.Campaign` / :func:`~repro.sim.runner.sweep`
machinery — the *same* code path the CLI uses, which is what makes a
served sweep's aggregates byte-identical to a direct run — against one
shared hot :class:`~repro.store.cache.ResultStore`, so identical
submissions from different clients dedupe through the content-addressed
cache.

Mechanics:

* **Bounded priority queue.**  ``submit`` raises :class:`QueueFull` when
  ``max_queue`` jobs are already waiting (the HTTP layer turns that into
  429); waiting jobs drain highest ``priority`` first, FIFO within a
  priority.
* **Trial-boundary cancellation.**  A campaign has no preemption; the
  manager's 4-argument progress callback raises :class:`JobCancelled` /
  :class:`JobInterrupted` between trials.  Both subclass
  :class:`~repro.sim.parallel.CampaignError` so the pooled backends
  cancel their pending chunks instead of draining them, and the
  campaign's checkpoint journal is closed on the way out — which is
  exactly what resume reads.
* **Checkpoint namespaces.**  Every job journals under
  ``campaigns/jobs/<job-id>/``, so two concurrent submissions of the
  *identical* campaign never interleave in one journal file.
* **Crash-safe records.**  A job's record is written at submit and
  rewritten at its terminal state, each time atomically, to
  ``<store>/serve/jobs/<id>.bin`` — a ``repro-job-record-v1``
  document inside a ``repro-record-bin-v1`` container;
  :meth:`JobManager.recover` re-enqueues every job a previous process
  left unfinished (its record still reads ``queued``, or
  ``interrupted``), with ``resume=True`` — re-run
  trials hit the store, so a drained-and-restarted job reproduces its
  aggregates bit-identically.
"""

from __future__ import annotations

import datetime
import heapq
import importlib
import json
import pathlib
import threading
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs import metrics as obs_metrics
from repro.obs.export import EventLog
from repro.obs.trace import TraceContext
from repro.sim.parallel import Campaign, CampaignError
from repro.sim.plan import PLAN_SCHEMA, RunPlan
from repro.sim.results import sweep_to_dict
from repro.sim.runner import TrialFn, sweep
from repro.store.binary import (
    RECORD_TYPE_JOB,
    BinaryFormatError,
    encode_record,
    read_record_path,
)
from repro.store.cache import (
    TEMP_PREFIX,
    ResultStore,
    atomic_write,
)

__all__ = [
    "JOB_SCHEMA",
    "RECORD_SCHEMA",
    "JOB_STATES",
    "Job",
    "JobCancelled",
    "JobInterrupted",
    "JobManager",
    "JobSpec",
    "QueueFull",
    "UnknownJob",
]

#: Version tag of the job-submission wire schema.
JOB_SCHEMA = "repro-job-v1"

#: Version tag of the on-disk job record.
RECORD_SCHEMA = "repro-job-record-v1"

#: Every state a job can be in.  ``interrupted`` means a drain stopped
#: the job at a trial boundary — it resumes on restart; ``cancelled`` is
#: terminal.
JOB_STATES = (
    "queued", "running", "done", "failed", "cancelled", "interrupted",
)


class QueueFull(RuntimeError):
    """The job queue is at capacity; the submitter should back off."""


class UnknownJob(KeyError):
    """No job with the given id."""


class JobCancelled(CampaignError):
    """Raised inside a campaign when its job was cancelled.

    Subclasses :class:`~repro.sim.parallel.CampaignError` so the pooled
    executors cancel pending chunks instead of draining the whole
    campaign before the cancel takes effect.
    """

    def __init__(self, job_id: str):
        RuntimeError.__init__(self, f"job {job_id} cancelled")
        self.failures = []
        self.aggregates = {}


class JobInterrupted(CampaignError):
    """Raised inside a campaign when the service is draining (SIGTERM)."""

    def __init__(self, job_id: str):
        RuntimeError.__init__(self, f"job {job_id} interrupted by drain")
        self.failures = []
        self.aggregates = {}


@dataclass(frozen=True)
class JobSpec:
    """One submission, as a frozen value object.

    ``kind`` is ``"campaign"`` (one trial config, ``n_trials`` trials)
    or ``"sweep"`` (``parameter`` — a trial param field name — swept
    over ``values``, the trial params giving every *other* field;
    ``parameter_label`` optionally renames the axis in the result
    document, e.g. ``tag_range`` swept but labelled ``tag_range_m``).  ``trial`` is ``{"type":
    "<module>.<Class>", "params": {...}}`` — the class is imported and
    instantiated exactly the way ``repro cache verify`` reconstructs
    stored trials, so anything cacheable is submittable.  ``plan`` is a
    ``repro-run-plan-v1`` document; the service substitutes its own
    shared store for whatever the document names.
    """

    kind: str
    trial_type: str
    trial_params: Tuple[Tuple[str, Any], ...]
    n_trials: int
    base_seed: int = 0
    plan: Optional[Mapping[str, Any]] = None
    priority: int = 0
    parameter: Optional[str] = None
    parameter_label: Optional[str] = None
    values: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("campaign", "sweep"):
            raise ValueError(
                f"job kind must be 'campaign' or 'sweep', got {self.kind!r}"
            )
        if not self.trial_type or "." not in self.trial_type:
            raise ValueError(
                "trial.type must be a dotted '<module>.<Class>' path"
            )
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.kind == "sweep":
            if not self.parameter:
                raise ValueError("sweep jobs need a 'parameter' field")
            if not self.values:
                raise ValueError("sweep jobs need a non-empty 'values' list")

    # -- wire schema -----------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "schema": JOB_SCHEMA,
            "kind": self.kind,
            "trial": {
                "type": self.trial_type,
                "params": {k: v for k, v in self.trial_params},
            },
            "n_trials": self.n_trials,
            "base_seed": self.base_seed,
            "plan": dict(self.plan) if self.plan is not None else None,
            "priority": self.priority,
        }
        if self.kind == "sweep":
            doc["parameter"] = self.parameter
            if self.parameter_label is not None:
                doc["parameter_label"] = self.parameter_label
            doc["values"] = list(self.values)
        return doc

    @classmethod
    def from_json(cls, document: Union[str, Mapping[str, Any]]) -> "JobSpec":
        if isinstance(document, str):
            document = json.loads(document)
        if not isinstance(document, Mapping):
            raise ValueError(
                f"job document must be a JSON object, got "
                f"{type(document).__name__}"
            )
        data = dict(document)
        schema = data.pop("schema", JOB_SCHEMA)
        if schema != JOB_SCHEMA:
            raise ValueError(
                f"unsupported job schema {schema!r} (expected {JOB_SCHEMA!r})"
            )
        known = {
            "kind", "trial", "n_trials", "base_seed", "plan", "priority",
            "parameter", "parameter_label", "values",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown job field(s): {', '.join(sorted(unknown))}"
            )
        trial = data.get("trial")
        if not isinstance(trial, Mapping):
            raise ValueError("job needs a 'trial' object with type/params")
        params = trial.get("params") or {}
        if not isinstance(params, Mapping):
            raise ValueError("trial.params must be a JSON object")
        plan_doc = data.get("plan")
        if plan_doc is not None:
            if not isinstance(plan_doc, Mapping):
                raise ValueError("plan must be a JSON object or null")
            RunPlan.from_json(plan_doc, store=_SCHEMA_CHECK_STORE)
        values = data.get("values") or ()
        return cls(
            kind=str(data.get("kind", "")),
            trial_type=str(trial.get("type", "")),
            trial_params=tuple(sorted(params.items())),
            n_trials=int(data.get("n_trials", 0)),
            base_seed=int(data.get("base_seed", 0)),
            plan=dict(plan_doc) if plan_doc is not None else None,
            priority=int(data.get("priority", 0)),
            parameter=data.get("parameter"),
            parameter_label=data.get("parameter_label"),
            values=tuple(float(v) for v in values),
        )

    # -- trial reconstruction --------------------------------------------------

    def _trial_class(self) -> type:
        module_name, _, cls_name = self.trial_type.rpartition(".")
        try:
            cls = getattr(importlib.import_module(module_name), cls_name)
        except (ImportError, AttributeError) as exc:
            raise ValueError(
                f"cannot import trial type {self.trial_type!r}: {exc}"
            ) from exc
        if not isinstance(cls, type):
            raise ValueError(f"{self.trial_type!r} is not a class")
        return cls

    def _params(self) -> Dict[str, Any]:
        # JSON turned tuples into lists; frozen dataclass fields want
        # hashable values back (same rule as the store's verify path).
        return {
            k: tuple(v) if isinstance(v, list) else v
            for k, v in self.trial_params
        }

    def build_trial(self) -> TrialFn:
        """The campaign trial callable (``kind == "campaign"``)."""
        return self._trial_class()(**self._params())

    def build_trial_factory(self) -> Callable[[float], TrialFn]:
        """The sweep trial factory (``kind == "sweep"``).

        Each axis point instantiates the trial class with ``parameter``
        overridden by the point's value — the same trial the submitter
        would construct locally, so seeds and content addresses match a
        direct run exactly.
        """
        cls = self._trial_class()
        params = self._params()
        parameter = self.parameter

        def factory(value: float) -> TrialFn:
            return cls(**{**params, parameter: value})

        return factory

    @property
    def total_trials(self) -> int:
        if self.kind == "sweep":
            return self.n_trials * len(self.values)
        return self.n_trials


#: Sentinel store used only to exercise plan-schema validation at
#: submission time without opening a directory.
class _SchemaCheckStore:
    root = pathlib.Path("/nonexistent")


_SCHEMA_CHECK_STORE: Any = _SchemaCheckStore()


#: Default :class:`~repro.obs.export.EventLog` retention per job.
DEFAULT_EVENT_RETENTION = 100_000


@dataclass
class Job:
    """One submitted job's live state."""

    id: str
    spec: JobSpec
    state: str = "queued"
    submitted_utc: str = ""
    started_utc: Optional[str] = None
    finished_utc: Optional[str] = None
    trials_done: int = 0
    cache_hits: int = 0
    resume: bool = False
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    trace: Optional[TraceContext] = None
    telemetry: Optional[Dict[str, Any]] = None
    events: EventLog = field(
        default_factory=lambda: EventLog(maxlen=DEFAULT_EVENT_RETENTION)
    )
    cancel_requested: threading.Event = field(default_factory=threading.Event)

    @property
    def trace_id(self) -> Optional[str]:
        return self.trace.trace_id if self.trace is not None else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": RECORD_SCHEMA,
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_json(),
            "submitted_utc": self.submitted_utc,
            "started_utc": self.started_utc,
            "finished_utc": self.finished_utc,
            "trials_done": self.trials_done,
            "trials_total": self.spec.total_trials,
            "cache_hits": self.cache_hits,
            "resumed": self.resume,
            "result": self.result,
            "error": self.error,
            "trace_id": self.trace_id,
            "telemetry": self.telemetry,
        }


class JobManager:
    """The bounded priority job queue and its worker threads.

    One manager owns one shared :class:`ResultStore`; every job executes
    against it, so identical work — within one job, across jobs, across
    clients, across restarts — is served from the content-addressed
    cache.  ``workers`` campaigns run concurrently (default 1: campaigns
    parallelize internally via their plan's executor; more job workers
    trade per-job latency for cross-job interleaving).

    Telemetry: each job runs under its own
    :class:`~repro.obs.metrics.MetricsRegistry`; its snapshot is merged
    once, at the terminal state, into the registry installed when
    :meth:`start` ran (so ``/metrics`` totals keep accumulating) and
    persisted as ``telemetry`` on its terminal record — that is what
    ``repro jobs show <id> --trace`` renders.  The registry install is
    process-global, so per-job attribution is exact at the default
    ``workers=1``; with
    more job workers concurrent jobs may attribute each other's spans
    (server-wide totals stay correct either way).  ``event_retention``
    bounds each job's in-memory event log; clients that fall more than
    that many events behind get an explicit ``truncated`` marker from
    the events endpoint instead of a silent gap.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        *,
        max_queue: int = 32,
        workers: int = 1,
        event_retention: int = DEFAULT_EVENT_RETENTION,
    ):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if event_retention < 1:
            raise ValueError(
                f"event_retention must be >= 1, got {event_retention}"
            )
        self.store = store if store is not None else ResultStore()
        self.max_queue = max_queue
        self.event_retention = event_retention
        self.jobs_dir = self.store.jobs_dir
        self._jobs: Dict[str, Job] = {}
        self._heap: List[Tuple[int, int, str]] = []  # (-priority, seq, id)
        self._seq = 0
        self._queued = 0  # jobs in state "queued"; moves under _cond
        self._cond = threading.Condition()
        self._draining = False
        self._stopped = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-job-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        self._started = False
        #: where finished jobs' telemetry goes: the registry installed
        #: when :meth:`start` ran (``serve_forever`` installs the
        #: server's first)
        self._registry: obs_metrics.MetricsRegistry = obs_metrics.NULL_REGISTRY

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._registry = obs_metrics.get_registry()
            for thread in self._workers:
                thread.start()

    def recover(self) -> List[str]:
        """Re-enqueue every job a previous process left unfinished.

        Scans the on-disk records; jobs persisted as ``queued``,
        ``running`` (a record from an older server) or ``interrupted``
        are re-submitted with
        ``resume=True`` so their campaigns continue from the store and
        their namespaced checkpoint journals.  Returns the recovered ids
        (call before :meth:`start` to preserve priority order).
        """
        recovered: List[str] = []
        if not self.jobs_dir.is_dir():
            return recovered
        records = []
        for path in sorted(self.jobs_dir.glob("*.bin")):
            if path.name.startswith(TEMP_PREFIX):
                continue  # a writer killed before its rename
            try:
                record, _ = read_record_path(path)
            except (OSError, BinaryFormatError):
                continue  # torn write at the kill point: drop it
            if not isinstance(record, dict):
                continue
            if record.get("schema") != RECORD_SCHEMA:
                continue
            if record.get("state") not in ("queued", "running", "interrupted"):
                continue
            records.append(record)
        records.sort(key=lambda r: r.get("submitted_utc") or "")
        for record in records:
            try:
                spec = JobSpec.from_json(record["spec"])
            except (KeyError, ValueError):
                continue
            recorded_trace = record.get("trace_id")
            job = Job(
                id=str(record["id"]),
                spec=spec,
                submitted_utc=record.get("submitted_utc") or _utcnow(),
                resume=True,
                # The trace id survives drain → restart → resume: prefer
                # the persisted id, then the spec's plan, then a new one.
                trace=(
                    TraceContext(trace_id=str(recorded_trace))
                    if recorded_trace
                    else self._spec_trace(spec)
                ),
                events=EventLog(maxlen=self.event_retention),
            )
            self._persist(job)
            job.events.append(
                "job", state="queued", job_id=job.id, recovered=True,
                trace_id=job.trace_id,
            )
            with self._cond:
                self._jobs[job.id] = job
                self._push(job)
                self._cond.notify()
            recovered.append(job.id)
        return recovered

    def drain(self, timeout_s: Optional[float] = None) -> None:
        """Stop intake, interrupt running jobs at the next trial boundary,
        and wait for the workers to exit.

        Queued and interrupted jobs stay persisted on disk for
        :meth:`recover` in the next process.
        """
        with self._cond:
            self._draining = True
            self._stopped = True
            for job in self._jobs.values():
                if job.state == "running":
                    job.cancel_requested.set()
            self._cond.notify_all()
        for thread in self._workers:
            if thread.is_alive():
                thread.join(timeout=timeout_s)

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    # -- submission and queries ------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        job = Job(
            id=uuid.uuid4().hex[:12],
            spec=spec,
            submitted_utc=_utcnow(),
            trace=self._spec_trace(spec),
            events=EventLog(maxlen=self.event_retention),
        )
        with self._cond:
            if self._draining:
                raise QueueFull("service is draining; not accepting jobs")
            if self._queued >= self.max_queue:
                raise QueueFull(
                    f"job queue is full ({self._queued}/{self.max_queue} "
                    "waiting)"
                )
            # record and announce the job before the worker can see it:
            # otherwise a fast job's "running"/"done" events and record
            # can land before (or be overwritten by) the "queued" ones
            self._persist(job)
            job.events.append(
                "job", state="queued", job_id=job.id, priority=spec.priority,
                trace_id=job.trace_id,
            )
            self._jobs[job.id] = job
            self._push(job)
            self._cond.notify()
        return job

    @staticmethod
    def _spec_trace(spec: JobSpec) -> TraceContext:
        """The job's trace context: the submitter's, else a fresh one.

        ``repro submit`` stamps a trace onto the plan document; a job
        submitted without one still gets an id so every journal line,
        span and event it produces is correlatable.
        """
        plan = spec.plan
        if plan is not None:
            trace_doc = plan.get("trace")
            if isinstance(trace_doc, Mapping):
                try:
                    return TraceContext.from_dict(trace_doc)
                except (ValueError, TypeError):
                    pass
        return TraceContext.new()

    def get(self, job_id: str) -> Job:
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

    def list(self) -> List[Job]:
        with self._cond:
            jobs = list(self._jobs.values())
        return sorted(jobs, key=lambda j: (j.submitted_utc, j.id))

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job (terminal states are a no-op)."""
        job = self.get(job_id)
        transitioned = False
        with self._cond:
            if job.state in ("queued", "interrupted"):
                if job.state == "queued":
                    self._queued -= 1
                # the record is complete before its state turns terminal
                job.finished_utc = _utcnow()
                job.events.append(
                    "job", state="cancelled", job_id=job.id,
                    trace_id=job.trace_id,
                )
                job.state = "cancelled"
                transitioned = True
            elif job.state == "running":
                job.cancel_requested.set()
                # the worker transitions the state at the trial boundary
        if transitioned:
            self._persist(job)
            job.events.close()
        return job

    # -- execution -------------------------------------------------------------

    def _push(self, job: Job) -> None:
        self._queued += 1
        self._seq += 1
        heapq.heappush(self._heap, (-job.spec.priority, self._seq, job.id))

    def _next_job(self) -> Optional[Job]:
        """Block until a queued job or stop; pop highest priority first."""
        with self._cond:
            while True:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    job = self._jobs.get(job_id)
                    if job is not None and job.state == "queued":
                        self._queued -= 1
                        job.state = "running"
                        job.started_utc = _utcnow()
                        return job
                if self._stopped:
                    return None
                self._cond.wait()

    def _worker_loop(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            # the record on disk stays "queued" while the job runs:
            # recover() resumes that exactly as it would a "running" one
            job.events.append(
                "job", state="running", job_id=job.id, resumed=job.resume,
                trace_id=job.trace_id,
            )
            self._execute(job)

    def _execute(self, job: Job) -> None:
        # The job records into its own registry; its snapshot carries the
        # trace, lands on the terminal record as ``telemetry`` and is
        # merged once into the server's registry.  Restoring that
        # registry (not whatever was installed before) keeps every span
        # in exactly one registry when job workers overlap.
        job_registry = obs_metrics.MetricsRegistry(trace=job.trace)
        obs_metrics.set_registry(job_registry)
        try:
            with job_registry.span("job"):
                state = self._run_job(job)
        except JobInterrupted:
            state = "interrupted"
        except JobCancelled:
            state = "cancelled"
        except Exception as exc:  # noqa: BLE001 - job isolation is the point
            state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
        finally:
            obs_metrics.set_registry(self._registry)
        # A reader that sees the terminal state must also see the
        # telemetry, finish time and terminal event; the event stream
        # ends (close) only after the record on disk is terminal too.
        job.telemetry = job_registry.to_dict()
        self._registry.merge(job.telemetry)
        job.finished_utc = _utcnow()
        job.events.append(
            "job",
            state=state,
            job_id=job.id,
            trials_done=job.trials_done,
            cache_hits=job.cache_hits,
            error=job.error,
            trace_id=job.trace_id,
        )
        job.state = state
        self._persist(job)
        job.events.close()

    def _run_job(self, job: Job) -> str:
        """Run the job's campaign or sweep; returns its terminal state.

        Raises propagate to :meth:`_execute`, which owns the state.
        """
        spec = job.spec
        plan = RunPlan.from_json(
            spec.plan if spec.plan is not None else {"schema": PLAN_SCHEMA},
            store=self.store,
        ).replace(
            resume=job.resume,
            checkpoint_namespace=f"jobs/{job.id}",
            trace=job.trace,
        )
        total = spec.total_trials

        def on_trial_done(k, elapsed_s, metrics, from_cache=False):
            job.trials_done += 1
            if from_cache:
                job.cache_hits += 1
            job.events.append(
                "trial",
                trial_index=int(k),
                ok=metrics is not None,
                from_cache=bool(from_cache),
                done=job.trials_done,
                total=total,
                elapsed_s=round(float(elapsed_s), 6),
                trace_id=job.trace_id,
            )
            if job.cancel_requested.is_set():
                if self._draining:
                    raise JobInterrupted(job.id)
                raise JobCancelled(job.id)

        if spec.kind == "sweep":
            result = sweep(
                spec.parameter_label or spec.parameter,
                spec.values,
                spec.build_trial_factory(),
                n_trials=spec.n_trials,
                base_seed=spec.base_seed,
                on_trial_done=on_trial_done,
                plan=plan,
            )
            job.result = sweep_to_dict(result)
            return "done"
        campaign = Campaign(
            spec.build_trial(),
            spec.n_trials,
            spec.base_seed,
            plan=plan,
            on_trial_done=on_trial_done,
        )
        outcome = campaign.run()
        job.result = _campaign_to_dict(outcome)
        if not outcome.ok:
            job.error = (
                f"{len(outcome.failures)} trial(s) failed: "
                f"{outcome.failures[0]}"
            )
            return "failed"
        return "done"

    # -- persistence -----------------------------------------------------------

    def _persist(self, job: Job) -> None:
        """Atomically rewrite the job's on-disk record."""
        # allow_nan: job telemetry aggregates may legitimately carry
        # non-finite floats; this record is never content-addressed.
        atomic_write(
            self.jobs_dir / f"{job.id}.bin",
            encode_record(job.to_dict(), RECORD_TYPE_JOB, allow_nan=True),
        )


def _campaign_to_dict(result) -> Dict[str, Any]:
    """A ``CampaignResult`` as a JSON-able document."""
    return {
        "format": "repro-campaign-v1",
        "aggregates": {
            name: {
                "mean": agg.mean,
                "std": agg.std,
                "minimum": agg.minimum,
                "maximum": agg.maximum,
                "count": agg.count,
            }
            for name, agg in result.aggregates.items()
        },
        "n_trials": result.n_trials,
        "n_ok": result.n_ok,
        "cache_hits": result.cache_hits,
        "elapsed_s": result.elapsed_s,
        "failures": [
            {
                "trial_index": f.trial_index,
                "error_type": f.error_type,
                "message": f.message,
            }
            for f in result.failures
        ],
    }


def _utcnow() -> str:
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="microseconds")
        .replace("+00:00", "Z")
    )
