"""``repro.obs`` — zero-dependency observability: metrics, spans, manifests.

The reproduction's performance story ("as fast as the hardware allows")
needs evidence, not vibes.  This package provides the four pieces every
execution path threads through:

* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — counters, gauges
  and fixed-bucket histograms, installed process-wide via
  :func:`use_registry`; the default :data:`~repro.obs.metrics.OBS` is a
  no-op registry so un-instrumented runs pay one attribute check.
* :class:`Span` (:mod:`repro.obs.spans`) — nesting wall-clock timers
  (session → round → data_frame / indicator / propagate / checking)
  with a self/cumulative profile renderer.
* :class:`EventLog` and exporters (:mod:`repro.obs.export`) — the one
  sequence-numbered event store (behind the session tracer, the
  scenario journal and a served job's ``/events`` stream), plus NDJSON
  and Prometheus-text metric dumps.
* :class:`RunManifest` (:mod:`repro.obs.manifest`) — the provenance
  record (seed, config, engine, git rev, host, versions, elapsed, peak
  RSS) written beside every results artifact.

Quick start::

    from repro.obs import use_registry, render_profile, metrics_to_ndjson

    with use_registry() as reg:
        run_session(net, picks, config=cfg)
    print(render_profile(reg))          # per-phase self/cum table
    metrics_to_ndjson(reg, "results/session.metrics.ndjson")

See ``docs/observability.md`` for metric names, the span tree, the
manifest schema and the NDJSON formats.
"""

from repro.obs.export import (
    EventLog,
    metrics_to_ndjson,
    render_prometheus,
)
from repro.obs.manifest import (
    RunManifest,
    git_revision,
    manifest_path_for,
    peak_rss_bytes,
    write_manifest_alongside,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    TimelineEvent,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.spans import (
    Span,
    SpanRow,
    current_span_path,
    profile_rows,
    render_profile,
)
from repro.obs.trace import (
    TraceContext,
    chrome_trace,
    new_span_id,
    new_trace_id,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "SNAPSHOT_SCHEMA",
    "TimelineEvent",
    "get_registry",
    "set_registry",
    "use_registry",
    "Span",
    "SpanRow",
    "current_span_path",
    "profile_rows",
    "render_profile",
    "TraceContext",
    "chrome_trace",
    "new_span_id",
    "new_trace_id",
    "write_chrome_trace",
    "EventLog",
    "metrics_to_ndjson",
    "render_prometheus",
    "RunManifest",
    "git_revision",
    "manifest_path_for",
    "peak_rss_bytes",
    "write_manifest_alongside",
]
