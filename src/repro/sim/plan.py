"""RunPlan: one object describing *how* a campaign executes.

The execution options of a campaign — which engine runs the sessions,
where trials run (:class:`~repro.sim.parallel.ExecutorConfig`), whether
results are memoized (:class:`~repro.store.cache.ResultStore`), whether
a killed run is being resumed, how many trials are stacked per batched
kernel task, and which observability sinks receive output — historically
travelled as separate keyword arguments duplicated across ``run_trials``,
``sweep``, :class:`~repro.sim.parallel.Campaign` and ~35 CLI
``add_argument`` calls.  This module consolidates them:

* :class:`RunPlan` — a frozen value object accepted as the single
  keyword-only ``plan=`` by all three campaign entry points.  Since the
  service release this is the *only* execution interface: the legacy
  per-keyword shim (``executor=``, ``store=``, ...) served its promised
  one release and is gone.
* :class:`ObsPlan` — the observability sinks (metrics/trace output
  paths, progress ticker) grouped under :attr:`RunPlan.obs`.
* :meth:`RunPlan.to_json` / :meth:`RunPlan.from_json` — the versioned
  ``repro-run-plan-v1`` wire schema shared by the CLI, checkpoint
  journals and the ``repro serve`` job API, built on the canonical-JSON
  serializer so a plan digests and round-trips deterministically.
* :func:`RunPlan.from_args` — a thin wrapper: it folds an ``argparse``
  namespace produced by :func:`add_execution_arguments` into a wire
  document and hands it to :meth:`RunPlan.from_json`, so CLI flags and
  HTTP job submissions go through one schema.
* :func:`add_execution_arguments` — the one shared parent-parser options
  group (``--workers/--backend/--batch/--cache/--resume/--engine/...``)
  every experiment subcommand mounts, so subcommands can no longer
  silently diverge in which execution flags they expose.

The plan describes execution only; it never changes *what* a trial
computes, so no RunPlan field enters the result-store content address
(except ``engine``, which already did).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - types only (import cycle guard)
    from repro.obs.trace import TraceContext
    from repro.sim.parallel import ExecutorConfig
    from repro.store.cache import ResultStore

__all__ = [
    "PLAN_SCHEMA",
    "ObsPlan",
    "RunPlan",
    "add_execution_arguments",
]

#: Field types of the typed parts of a ``repro-run-plan-v1`` document:
#: ``None`` is allowed only where the type tuple includes ``type(None)``.
_EXECUTOR_FIELDS = {
    "workers": (int,), "backend": (str,), "chunk_size": (int,),
    "timeout_s": (int, float, type(None)), "max_retries": (int,),
    "fail_fast": (bool,),
}
_OBS_FIELDS = {
    "metrics_out": (str, type(None)), "progress": (bool,),
}
_TOP_FIELDS = {"resume": (bool,), "batch": (int,)}


def _typed_fields(
    section: str, doc: Any, fields: Mapping[str, Tuple[type, ...]]
) -> Dict[str, Any]:
    """``doc``'s fields, each checked against its JSON type in ``fields``.

    Unknown keys and values of the wrong type raise ``ValueError`` naming
    the field; a JSON boolean is never accepted as a number nor a number
    as a boolean (``bool`` is an ``int`` subclass in Python).
    """
    if not isinstance(doc, Mapping):
        raise ValueError(f"{section} must be a JSON object or null")
    unknown = set(doc) - set(fields)
    if unknown:
        raise ValueError(
            f"unknown {section} field(s): {', '.join(sorted(unknown))}"
        )
    for name, value in doc.items():
        kinds = fields[name]
        if isinstance(value, bool) != (bool in kinds) or not isinstance(
            value, kinds
        ):
            names = "/".join(
                "null" if k is type(None) else k.__name__ for k in kinds
            )
            raise ValueError(f"{section}.{name} must be {names}, got {value!r}")
    return dict(doc)


#: Version tag of the RunPlan wire schema.  Bump when the document
#: layout changes incompatibly; :meth:`RunPlan.from_json` rejects
#: documents carrying any other tag.
PLAN_SCHEMA = "repro-run-plan-v1"


@dataclass(frozen=True)
class ObsPlan:
    """Observability sinks of one run: where non-result output goes.

    ``metrics_out`` is a file path (JSON metrics registry dump) or
    ``None`` for off; ``progress`` asks the driver to attach a progress
    ticker.  Grouped separately from the execution fields because sinks
    never affect results.
    """

    metrics_out: Optional[str] = None
    progress: bool = False


@dataclass(frozen=True)
class RunPlan:
    """How a campaign executes, as one frozen value object.

    Parameters
    ----------
    engine:
        Session engine name, one of
        :data:`repro.core.session.ENGINE_NAMES` (``"auto"`` default).
    executor:
        :class:`~repro.sim.parallel.ExecutorConfig` or ``None`` for the
        ``serial`` backend (trials run in order on the calling thread).
    store:
        :class:`~repro.store.cache.ResultStore` memoization layer, or
        ``None`` for no caching.
    resume:
        Continue a killed campaign (requires ``store``; checked when the
        campaign runs, matching the historical error site).
    batch:
        Trials stacked per batched-kernel worker task.  ``1`` (default)
        dispatches per-trial; ``B > 1`` groups B trial indices per task
        and hands them to the trial object's ``run_batch`` hook (trials
        without the hook fall back to per-trial dispatch — the flag is
        then inert, not an error).
    checkpoint_namespace:
        Optional subdirectory (``a/b`` path segments of
        ``[A-Za-z0-9._-]``) under the store's ``campaigns/`` directory
        for this run's checkpoint journal.  The ``repro serve`` job
        runner namespaces every job's journal (``jobs/<job-id>``) so two
        concurrent submissions of the identical campaign never append to
        the same journal file; object-store entries are shared either
        way — namespacing affects journals only, never content
        addresses.
    obs:
        :class:`ObsPlan` sink selection.
    trace:
        Optional :class:`~repro.obs.trace.TraceContext` correlating this
        run with whatever caused it (a ``repro submit``, a serve job).
        Stamped onto checkpoint journal lines, manifests and metrics
        snapshots; never enters content addresses (it describes the
        *run*, not the computation).
    """

    engine: str = "auto"
    executor: "Optional[ExecutorConfig]" = None
    store: "Optional[ResultStore]" = None
    resume: bool = False
    batch: int = 1
    checkpoint_namespace: Optional[str] = None
    obs: ObsPlan = field(default_factory=ObsPlan)
    trace: "Optional[TraceContext]" = None

    def __post_init__(self) -> None:
        if not isinstance(self.engine, str) or not self.engine:
            raise ValueError(f"engine must be a non-empty string, got {self.engine!r}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.checkpoint_namespace is not None:
            from repro.store.checkpoint import validate_namespace

            validate_namespace(self.checkpoint_namespace)

    def replace(self, **changes: Any) -> "RunPlan":
        """A copy with the given fields changed (frozen-dataclass sugar)."""
        return dataclasses.replace(self, **changes)

    # -- the repro-run-plan-v1 wire schema ------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """This plan as a ``repro-run-plan-v1`` document (a JSON-able dict).

        The document is canonical-JSON serializable (sorted keys, exact
        floats) so it can enter digests and travel over the ``repro
        serve`` wire.  A live :class:`~repro.store.cache.ResultStore`
        serializes as its root *path* (``{"root": "<dir>"}``);
        :meth:`from_json` reopens it.  Note the path is host-local —
        a service receiving a plan substitutes its own shared store.
        """
        executor = None
        if self.executor is not None:
            executor = dataclasses.asdict(self.executor)
        store = None
        if self.store is not None:
            store = {"root": str(self.store.root)}
        return {
            "schema": PLAN_SCHEMA,
            "engine": self.engine,
            "executor": executor,
            "store": store,
            "resume": self.resume,
            "batch": self.batch,
            "checkpoint_namespace": self.checkpoint_namespace,
            "obs": dataclasses.asdict(self.obs),
            "trace": None if self.trace is None else self.trace.to_dict(),
        }

    @classmethod
    def from_json(
        cls,
        document: Union[str, Mapping[str, Any]],
        *,
        store: "Optional[ResultStore]" = None,
    ) -> "RunPlan":
        """Build a plan from a ``repro-run-plan-v1`` document.

        ``document`` is the dict :meth:`to_json` produced (or its JSON
        text).  Missing keys take the plan defaults; unknown keys (also
        inside ``executor`` and ``obs``), values of the wrong JSON type
        (a string or number where a boolean belongs, a boolean where a
        number belongs) and a wrong ``schema`` tag raise ``ValueError``
        naming the field — the schema is versioned precisely so drift is
        loud.  A ``store`` of ``{"root": null}`` opens the default store
        location (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).

        ``store=`` overrides whatever the document says — the ``repro
        serve`` job runner uses it to substitute the service's shared
        store for the submitter's host-local path.
        """
        if isinstance(document, str):
            document = json.loads(document)
        if not isinstance(document, Mapping):
            raise ValueError(
                f"run-plan document must be a JSON object, got "
                f"{type(document).__name__}"
            )
        data = dict(document)
        schema = data.pop("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise ValueError(
                f"unsupported run-plan schema {schema!r} "
                f"(expected {PLAN_SCHEMA!r})"
            )
        known = {
            "engine", "executor", "store", "resume", "batch",
            "checkpoint_namespace", "obs", "trace",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown run-plan field(s): {', '.join(sorted(unknown))}"
            )
        top = _typed_fields(
            "run-plan",
            {k: data[k] for k in _TOP_FIELDS if data.get(k) is not None},
            _TOP_FIELDS,
        )
        executor = None
        executor_doc = data.get("executor")
        if executor_doc is not None:
            from repro.sim.parallel import ExecutorConfig

            fields = _typed_fields("executor", executor_doc, _EXECUTOR_FIELDS)
            if fields.get("timeout_s") is not None:
                fields["timeout_s"] = float(fields["timeout_s"])
            executor = ExecutorConfig(**fields)
        resume = top.get("resume", False)
        store_doc = data.get("store")
        if store is None and store_doc is not None:
            from repro.store.cache import ResultStore

            if not isinstance(store_doc, Mapping):
                raise ValueError("store must be a JSON object or null")
            store = ResultStore(store_doc.get("root"))
        if store is None:
            resume = False
        obs_doc = data.get("obs")
        obs = ObsPlan(
            **_typed_fields(
                "obs", {} if obs_doc is None else obs_doc, _OBS_FIELDS
            )
        )
        trace = None
        trace_doc = data.get("trace")
        if trace_doc is not None:
            from repro.obs.trace import TraceContext

            if not isinstance(trace_doc, Mapping):
                raise ValueError("trace must be a JSON object or null")
            trace = TraceContext.from_dict(trace_doc)
        namespace = data.get("checkpoint_namespace")
        return cls(
            engine=data.get("engine") or "auto",
            executor=executor,
            store=store,
            resume=resume,
            batch=top.get("batch", 1),
            checkpoint_namespace=(
                None if namespace is None else str(namespace)
            ),
            obs=obs,
            trace=trace,
        )

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunPlan":
        """Build a plan from an :func:`add_execution_arguments` namespace.

        A thin wrapper over :meth:`from_json`: the namespace folds into
        a ``repro-run-plan-v1`` document and the document constructs the
        plan, so CLI flags and wire submissions share one interpreter.
        Missing attributes take their defaults, so namespaces from
        parsers that mount only part of the group still work.  Flag
        semantics mirror the historical CLI plumbing exactly:

        * ``--workers`` unset -> no executor (the serial backend);
          otherwise a process/thread pool per ``--backend``.
        * ``--resume`` or ``--cache-dir`` imply ``--cache``;
          ``--no-cache`` wins over all of them.
        * invalid combinations raise ``ValueError`` (CLI drivers convert
          it to a usage error).
        """
        workers = getattr(args, "workers", None)
        executor = None
        if workers is not None:
            executor = {
                "workers": workers,
                "backend": getattr(args, "backend", "process"),
            }
        resume = bool(getattr(args, "resume", False))
        cache_dir = getattr(args, "cache_dir", None)
        enabled = bool(getattr(args, "cache", False)) or cache_dir is not None or resume
        store = None
        if enabled and not getattr(args, "no_cache", False):
            store = {"root": cache_dir}
        return cls.from_json(
            {
                "schema": PLAN_SCHEMA,
                "engine": getattr(args, "engine", None) or "auto",
                "executor": executor,
                "store": store,
                "resume": resume,
                "batch": int(getattr(args, "batch", None) or 1),
                "obs": {
                    "metrics_out": getattr(args, "metrics_out", None),
                    "progress": bool(getattr(args, "progress", False)),
                },
            }
        )


def add_execution_arguments(
    parser: argparse.ArgumentParser,
    *,
    engine: bool = True,
) -> argparse._ArgumentGroup:
    """Mount the shared execution-options group on ``parser``.

    Every experiment subcommand gets this exact group (via a parent
    parser), and :meth:`RunPlan.from_args` understands precisely these
    destinations — add a knob here and every subcommand grows it at
    once.  ``--engine`` offers :data:`repro.core.session.ENGINE_NAMES`;
    ``engine=False`` leaves it off for commands whose sessions always run
    one engine (``RunPlan.engine`` then stays ``"auto"``).
    """
    from repro.core.session import ENGINE_NAMES

    group = parser.add_argument_group("execution options")
    group.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="parallelize trials over N workers (0 = all cores); "
        "default: serial in-process",
    )
    group.add_argument(
        "--backend",
        choices=("process", "thread", "serial"),
        default="process",
        help="worker pool backend when --workers is given (default: process)",
    )
    group.add_argument(
        "--batch",
        type=int,
        default=1,
        metavar="B",
        help="trials stacked per batched-kernel task for batch-capable "
        "trials (default: 1 = per-trial dispatch)",
    )
    if engine:
        group.add_argument(
            "--engine",
            choices=ENGINE_NAMES,
            default="auto",
            help="session engine (default: auto)",
        )
    group.add_argument(
        "--progress",
        action="store_true",
        help="show a live trial-progress ticker on stderr",
    )
    group.add_argument(
        "--cache",
        action="store_true",
        help="memoize trial results in the result store",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result store even if --cache/--cache-dir/--resume "
        "is given",
    )
    group.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-store root (implies --cache; default: "
        "$REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed campaign from its checkpoint (implies --cache)",
    )
    return group
