"""Cross-process telemetry: snapshots, merging, traces, dash, bench history.

Covers the observability pipeline end to end below the service layer:
``repro-metrics-snapshot-v1`` round-trips and merge semantics, the
registry tee, trace contexts and Chrome trace export, serial/process
bit-identity of merged campaign telemetry (including under the *spawn*
start method, via a subprocess), Prometheus label escaping conformance,
bounded event-log retention, the bench trajectory history, and the
dashboard renderers.  Service-layer trace propagation lives in
``test_serve.py``.
"""

from __future__ import annotations

import collections
import io
import json
import os
import pathlib
import pickle
import subprocess
import sys
import textwrap
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    TraceContext,
    chrome_trace,
    render_prometheus,
    use_registry,
)
from repro.obs.dash import (
    DashState,
    ansi_strip,
    parse_prometheus,
    render_dashboard,
    render_span_tree,
    span_bars,
)
from repro.obs.export import EventLog
from repro.obs import bench_track
from repro.sim.parallel import Campaign, ExecutorConfig, stderr_ticker
from repro.sim.plan import RunPlan


@dataclass(frozen=True)
class SpanTrial:
    """A deterministic trial that records spans and counters."""

    def __call__(self, trial_index: int, seed: int):
        from repro.obs import get_registry

        obs = get_registry()
        with obs.span("work"):
            with obs.span("inner"):
                obs.inc("trial_units", 3)
        obs.observe("trial_value", float(seed % 7), buckets=(1.0, 5.0, 10.0))
        return {"value": float(seed % 97)}


# -- snapshot round-trip and merge ---------------------------------------------


class TestSnapshot:
    def test_round_trip_preserves_everything(self):
        reg = MetricsRegistry(trace=TraceContext.new())
        reg.inc("c", 2)
        reg.set_gauge("g", 4.5)
        reg.observe("h", 0.3, buckets=(0.1, 1.0))
        with reg.span("a"):
            with reg.span("b"):
                pass
        doc = reg.to_dict()
        assert doc["schema"] == SNAPSHOT_SCHEMA
        clone = MetricsRegistry.from_dict(doc)
        assert clone.counters()["c"].value == 2
        assert clone.gauges()["g"].value == 4.5
        assert clone.histograms()["h"].count == 1
        assert set(clone.span_stats()) == {("a",), ("a", "b")}
        assert clone.trace.trace_id == reg.trace.trace_id

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry.from_dict({"schema": "metrics-v999"})

    def test_merge_semantics(self):
        a = MetricsRegistry()
        a.inc("c", 1)
        a.set_gauge("g", 1.0)
        a.observe("h", 0.05, buckets=(0.1, 1.0))
        b = MetricsRegistry()
        b.inc("c", 4)
        b.set_gauge("g", 9.0)
        b.observe("h", 0.5, buckets=(0.1, 1.0))
        with b.span("work"):
            pass
        a.merge(b.to_dict(), prefix=("trial",))
        assert a.counters()["c"].value == 5  # counters add
        assert a.gauges()["g"].value == 9.0  # gauges last-write
        assert a.histograms()["h"].count == 2  # histograms bucket-wise
        assert ("trial", "work") in a.span_stats()  # spans re-prefixed

    def test_merge_rejects_mismatched_histogram_layout(self):
        a = MetricsRegistry()
        a.observe("h", 0.5, buckets=(0.1, 1.0))
        b = MetricsRegistry()
        b.observe("h", 0.5, buckets=(0.25, 2.0))
        with pytest.raises(ValueError):
            a.merge(b.to_dict())


# -- trace context and Chrome export -------------------------------------------


class TestTraceContext:
    def test_round_trip_and_child(self):
        trace = TraceContext.new()
        assert len(trace.trace_id) == 32
        child = trace.child()
        assert child.trace_id == trace.trace_id
        clone = TraceContext.from_dict(trace.to_dict())
        assert clone == trace

    def test_empty_trace_id_rejected(self):
        with pytest.raises(ValueError):
            TraceContext(trace_id="")

    def test_chrome_trace_exports_timeline(self):
        reg = MetricsRegistry(trace=TraceContext.new())
        reg.enable_timeline()
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        doc = chrome_trace(reg)
        events = doc["traceEvents"]
        assert len(events) == 2
        assert {e["ph"] for e in events} == {"X"}
        names = {e["name"] for e in events}
        assert names == {"outer", "inner"}
        assert all(e["ts"] >= 0 for e in events)  # rebased per pid
        assert doc["otherData"]["trace_id"] == reg.trace.trace_id


# -- campaign telemetry: serial vs process bit-identity ------------------------


class TestCampaignMergeIdentity:
    def _run(self, backend: str) -> MetricsRegistry:
        reg = MetricsRegistry()
        plan = RunPlan(
            executor=ExecutorConfig(workers=2, backend=backend)
        )
        with use_registry(reg):
            result = Campaign(SpanTrial(), 6, 11, plan=plan).run()
        assert result.n_ok == 6
        return reg

    def test_process_merge_matches_serial(self):
        serial = self._run("serial")
        process = self._run("process")
        # identical span trees with identical counts
        serial_counts = {
            path: count for path, (count, _s) in serial.span_stats().items()
        }
        process_counts = {
            path: count for path, (count, _s) in process.span_stats().items()
        }
        assert serial_counts == process_counts
        assert ("campaign", "trial", "work", "inner") in process_counts
        # identical counters and histogram shapes
        assert (
            serial.counters()["trial_units"].value
            == process.counters()["trial_units"].value
            == 18
        )
        serial_h = serial.histograms()["trial_value"]
        process_h = process.histograms()["trial_value"]
        assert serial_h.counts == process_h.counts
        assert serial_h.sum == process_h.sum

    def test_spawn_start_method_merges_identically(self, tmp_path):
        """Worker snapshots survive the spawn pickle boundary.

        Spawn re-imports ``__main__``, so the check must run from a real
        script file in a subprocess, not from this test process.
        """
        script = tmp_path / "spawn_check.py"
        script.write_text(textwrap.dedent(
            """
            import multiprocessing
            import sys

            from repro.obs import MetricsRegistry, use_registry
            from repro.sim.parallel import Campaign, ExecutorConfig
            from repro.sim.plan import RunPlan
            from test_telemetry import SpanTrial


            def run(backend):
                reg = MetricsRegistry()
                plan = RunPlan(
                    executor=ExecutorConfig(workers=2, backend=backend)
                )
                with use_registry(reg):
                    Campaign(SpanTrial(), 4, 5, plan=plan).run()
                return reg


            if __name__ == "__main__":
                multiprocessing.set_start_method("spawn", force=True)
                serial = run("serial")
                process = run("process")
                s = {p: c for p, (c, _) in serial.span_stats().items()}
                w = {p: c for p, (c, _) in process.span_stats().items()}
                assert s == w, (s, w)
                assert (
                    serial.counters()["trial_units"].value
                    == process.counters()["trial_units"].value
                )
                print("SPAWN-OK")
            """
        ))
        env = dict(os.environ)
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.abspath(os.path.join(here, "..", "src"))
        env["PYTHONPATH"] = os.pathsep.join(
            [src, here]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "SPAWN-OK" in proc.stdout

    def test_ticker_live_line_splits_hits_and_computed(self):
        stream = io.StringIO()
        tick = stderr_ticker(3, stream=stream)
        tick(0, 0.1, {"v": 1.0}, from_cache=True)
        tick(1, 0.2, {"v": 1.0})
        tick(2, 0.3, {"v": 1.0}, from_cache=True)
        out = stream.getvalue()
        # the live \r line splits the same way the final summary does
        live = [line for line in out.split("\r") if "3/3" in line][0]
        assert "2 hit, 1 computed" in live
        assert "2 hit, 1 computed" in out.splitlines()[-1]


# -- Prometheus escaping conformance -------------------------------------------


class TestPrometheusEscaping:
    def test_label_values_escape_and_round_trip(self):
        reg = MetricsRegistry()
        nasty = 'pha"se\\one\nend'
        with reg.span(nasty):
            pass
        text = render_prometheus(reg)
        line = next(
            ln for ln in text.splitlines()
            if ln.startswith("span_seconds_total")
        )
        # conformance: the three escapes of the text exposition format
        assert '\\"' in line
        assert "\\\\" in line
        assert "\\n" in line and "\n" not in line
        # and the parser restores the original path exactly
        samples = parse_prometheus(text)
        paths = [
            s.label("path") for s in samples if s.name == "span_calls_total"
        ]
        assert paths == [nasty]


# -- bounded event retention ---------------------------------------------------


class TestEventRetention:
    def test_window_reports_truncation(self):
        log = EventLog(maxlen=3)
        for i in range(7):
            log.append("trial", trial_index=i)
        assert log.first_seq == 4
        assert log.dropped == 4
        records, truncated = log.window(0)
        assert truncated is True
        assert [r["seq"] for r in records] == [4, 5, 6]
        records, truncated = log.window(4)
        assert truncated is False

    def test_window_without_overflow_is_not_truncated(self):
        log = EventLog(maxlen=10)
        log.append("trial")
        records, truncated = log.window(0)
        assert truncated is False
        assert len(records) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        maxlen=st.one_of(st.none(), st.integers(1, 12)),
        appends=st.integers(0, 30),
        seq=st.integers(-3, 35),
    )
    def test_window_equals_the_filter(self, maxlen, appends, seq):
        # the offset slice must agree with scanning every retained record
        log = EventLog(maxlen=maxlen)
        every = [log.append("trial", i, index=i) for i in range(appends)]
        retained = every if maxlen is None else every[-maxlen:]
        expected = [r for r in retained if r["seq"] >= seq]
        dropped = appends - len(retained)
        records, truncated = log.window(seq)
        assert records == expected
        assert truncated == (dropped > 0 and seq < log.first_seq)
        assert log.dropped == dropped
        assert log.first_seq == appends - len(retained)
        assert log.wait(seq, timeout_s=0) == expected

    def test_payload_may_use_the_argument_names(self):
        log = EventLog()
        record = log.append("job", 2, kind="payload", round_index=7)
        assert record == {
            "seq": 0, "kind": "job", "round": 2,
            "data": {"kind": "payload", "round_index": 7},
        }

    def test_pickle_rebuilds_the_lock(self):
        log = EventLog(maxlen=2)
        for i in range(3):
            log.append("trial", i)
        log.close()
        back = pickle.loads(pickle.dumps(log))
        assert back.window(0) == log.window(0)
        assert (back.first_seq, back.dropped, back.closed) == (1, 1, True)
        with pytest.raises(RuntimeError, match="closed"):
            back.append("trial")
        live = pickle.loads(pickle.dumps(EventLog(maxlen=2)))
        for i in range(3):
            live.append("trial", i)
        assert [r["seq"] for r in live.window(0)[0]] == [1, 2]


# -- bench trajectory history --------------------------------------------------

REPO = pathlib.Path(__file__).resolve().parent.parent
SPEC = bench_track.load_spec(REPO / "BENCHMARK.json")


def perfbench_stdout(
    workload="serve_mixed", traced=False, correct=True, attempted=50,
    failed=0, **metrics,
):
    """Synthetic ``perfbench/run.py`` output in either header form."""
    if traced:
        notes = f"traced ops={attempted}"
    else:
        notes = (
            f"ops={attempted} beyond_p90=5 setups=5 host_speed=0.713; "
            "uncorrected: setup_s=0.8870 ops_per_s=21.9 op_p50_s=0.0445"
        )
    values = metrics or {"setup_s": 0.6, "ops_per_s": 30.0}
    return "\n".join(
        [f"workload {workload} seed 1 size smoke: {notes}"]
        + [f"  {name:<28} {value:>14.6g} s" for name, value in values.items()]
        + [json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {
                name: {"value": value, "unit": "s"}
                for name, value in values.items()
            },
        })]
    ) + "\n"


def record_runs(tmp_path, *outputs):
    history = tmp_path / "history.ndjson"
    for i, text in enumerate(outputs):
        run = tmp_path / f"run{i}.txt"
        run.write_text(text)
        bench_track.record_run(run, history)
    return bench_track.load_history(history)


class TestBenchTrack:
    def test_record_and_load_round_trip(self, tmp_path):
        entries = record_runs(
            tmp_path,
            perfbench_stdout(),
            perfbench_stdout(traced=True, **{"core.session_s": 0.01}),
        )
        plain, traced = entries
        assert plain["schema"] == bench_track.HISTORY_SCHEMA
        assert (plain["workload"], plain["seed"], plain["size"]) == (
            "serve_mixed", 1, "smoke"
        )
        assert plain["traced"] is False and plain["host_speed"] == 0.713
        assert plain["metrics"] == {"setup_s": 0.6, "ops_per_s": 30.0}
        assert (plain["correct"], plain["attempted"], plain["failed"]) == (
            True, 50, 0
        )
        assert traced["traced"] is True and traced["host_speed"] is None
        assert traced["metrics"] == {"core.session_s": 0.01}
        assert bench_track.key_label(traced) == "serve_mixed size smoke traced"

    def test_schema_validation_rejects_bad_lines(self, tmp_path):
        good = record_runs(tmp_path, perfbench_stdout())[0]
        history = tmp_path / "history.ndjson"
        for bad in (
            {**good, "schema": "repro-bench-history-v1"},
            {**good, "surprise": True},
            {**good, "seed": "1"},
            {**good, "attempted": True},
            {**good, "metrics": {}},
            {**good, "metrics": {"ops_per_s": "fast"}},
        ):
            history.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
            with pytest.raises(ValueError, match=r"history.ndjson:2: "):
                bench_track.load_history(history)
        run = tmp_path / "broken.txt"
        run.write_text("no header here\n{}\n")
        with pytest.raises(ValueError, match="header"):
            bench_track.record_run(run, history)
        run.write_text(perfbench_stdout().rsplit("\n", 2)[0] + "\n")
        with pytest.raises(ValueError, match="broken.txt"):
            bench_track.record_run(run, history)  # no verdict line

    def test_compare_flags_regressions_beyond_noise(self, tmp_path):
        """The noise band is each metric's own bound: ops_per_s down 30%
        regresses (higher is better); setup_s down 30% improves."""
        entries = record_runs(
            tmp_path,
            perfbench_stdout(setup_s=1.0, ops_per_s=30.0),
            perfbench_stdout(setup_s=0.7, ops_per_s=21.0),
        )
        text, regressed = bench_track.render_compare(entries, SPEC)
        assert regressed is True
        assert "ops_per_s" in text and "bound 20% higher: REGRESSION" in text
        assert "bound 25% lower: ok" in text  # setup_s
        entries = record_runs(
            tmp_path,
            perfbench_stdout(setup_s=1.0, ops_per_s=30.0),
            perfbench_stdout(setup_s=0.7, ops_per_s=30.0),
        )
        assert bench_track.render_compare(entries, SPEC)[1] is False

    def test_compare_within_noise_is_quiet(self, tmp_path):
        entries = record_runs(
            tmp_path,
            perfbench_stdout(setup_s=1.0, ops_per_s=30.0),
            perfbench_stdout(setup_s=1.1, ops_per_s=27.0),
        )
        text, regressed = bench_track.render_compare(entries, SPEC)
        assert regressed is False
        assert "REGRESSION" not in text and "+10%" in text

    def test_compare_flags_incorrect_runs_and_failed_share(self, tmp_path):
        entries = record_runs(
            tmp_path, perfbench_stdout(), perfbench_stdout(correct=False)
        )
        text, regressed = bench_track.render_compare(entries, SPEC)
        assert regressed is True and "not correct" in text
        entries = record_runs(
            tmp_path,
            perfbench_stdout(attempted=50, failed=1),
            perfbench_stdout(attempted=50, failed=2),
        )
        text, regressed = bench_track.render_compare(entries, SPEC)
        assert regressed is True and "failed 1/50 -> 2/50" in text
        entries = record_runs(
            tmp_path,
            perfbench_stdout(attempted=50, failed=2),
            perfbench_stdout(attempted=100, failed=2),
        )
        assert bench_track.render_compare(entries, SPEC)[1] is False

    def test_bounds_come_from_the_spec(self, tmp_path):
        entries = record_runs(
            tmp_path,
            perfbench_stdout(ops_per_s=30.0),
            perfbench_stdout(ops_per_s=21.0),
        )
        doc = json.loads((REPO / "BENCHMARK.json").read_text())
        for metric in doc["end_to_end"]:
            metric["bound"] = 0.5
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(doc))
        assert bench_track.render_compare(entries, SPEC)[1] is True
        text, regressed = bench_track.render_compare(
            entries, bench_track.load_spec(wide)
        )
        assert regressed is False and "bound 50% higher: ok" in text

    def test_per_layer_metrics_are_shown_not_judged(self, tmp_path):
        entries = record_runs(
            tmp_path,
            perfbench_stdout(traced=True, **{"core.session_s": 0.01}),
            perfbench_stdout(traced=True, **{"core.session_s": 0.05}),
        )
        text, regressed = bench_track.render_compare(entries, SPEC)
        assert regressed is False
        assert "core.session_s" in text and "+400%" in text

    def test_one_run_key_has_nothing_to_compare(self, tmp_path):
        entries = record_runs(
            tmp_path,
            perfbench_stdout(),
            perfbench_stdout(workload="paper_sweep"),
            perfbench_stdout(),
        )
        text, regressed = bench_track.render_compare(entries, SPEC)
        assert regressed is False
        assert "paper_sweep size smoke: one run, nothing to compare" in text
        assert "within" not in text
        only = bench_track.render_compare(entries, SPEC, "paper_sweep")[0]
        assert "serve_mixed" not in only

    def test_report_renders_trajectories(self, tmp_path):
        entries = record_runs(
            tmp_path,
            perfbench_stdout(ops_per_s=30.0),
            perfbench_stdout(ops_per_s=27.0),
            perfbench_stdout(traced=True, **{"core.session_s": 0.01}),
        )
        text = bench_track.render_report(entries)
        assert "bench serve_mixed size smoke (2 run(s))" in text
        assert "bench serve_mixed size smoke traced (1 run(s))" in text
        def ops_row(report):
            # the git_rev row holds a commit hash, so look at one row only
            (row,) = [
                line.split()[1:] for line in report.splitlines()
                if line.split()[:1] == ["ops_per_s"]
            ]
            return row

        assert ops_row(text) == ["30", "27"]
        assert ops_row(bench_track.render_report(entries, last=1)) == ["27"]
        assert bench_track.render_report([]) == "(no bench history)"

    def test_cli_record_compare_report(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.cli import main

        monkeypatch.chdir(REPO)
        history = str(tmp_path / "history.ndjson")
        runs = []
        for i, ops in enumerate((30.0, 21.0)):
            run = tmp_path / f"run{i}.txt"
            run.write_text(perfbench_stdout(ops_per_s=ops))
            runs.append(str(run))
        main(["bench", "record", "--history", history, *runs])
        main(["bench", "compare", "--history", history])
        with pytest.raises(SystemExit) as exc:
            main(["bench", "compare", "--history", history, "--strict"])
        assert exc.value.code == 1
        main(["bench", "report", "--history", history, "--last", "1"])
        out = capsys.readouterr().out
        assert "recorded serve_mixed size smoke seed 1" in out
        assert "REGRESSION" in out and "bench serve_mixed" in out
        for gone in ("--noise", "--name"):
            with pytest.raises(SystemExit):
                main(["bench", "compare", "--history", history, gone, "x"])

    def test_committed_history_validates(self):
        """The committed history holds untraced bench-size runs, the same
        number for every benchmark workload: each re-measurement records
        one run of each."""
        entries = bench_track.load_history(
            REPO / "benchmarks" / "output" / "BENCH_history.ndjson"
        )
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        runs = collections.Counter(e["workload"] for e in entries)
        assert sorted(runs) == sorted(w["name"] for w in spec["workloads"])
        assert len(set(runs.values())) == 1
        assert all(
            e["size"] == "bench" and not e["traced"] and e["correct"]
            for e in entries
        )


# -- dashboard renderers -------------------------------------------------------


class TestDash:
    def test_parse_prometheus_values_and_labels(self):
        text = (
            "# TYPE x counter\n"
            "x 4.0\n"
            'span_seconds_total{path="a/b"} 1.5\n'
            'h_bucket{le="+Inf"} 7\n'
            "y +Inf\n"
        )
        samples = parse_prometheus(text)
        by_name = {s.name: s for s in samples}
        assert by_name["x"].value == 4.0
        assert by_name["span_seconds_total"].label("path") == "a/b"
        assert by_name["h_bucket"].label("le") == "+Inf"
        assert by_name["h_bucket"].value == 7.0
        assert by_name["y"].value == float("inf")

    def test_span_bars_orders_by_seconds(self):
        samples = parse_prometheus(
            'span_seconds_total{path="slow"} 2.0\n'
            'span_seconds_total{path="fast"} 0.5\n'
        )
        assert [p for p, _ in span_bars(samples)] == ["slow", "fast"]

    def test_render_span_tree_connects_roots(self):
        spans = [
            {"path": ["job", "campaign", "trial"], "count": 4, "seconds": 2.0},
            {"path": ["job"], "count": 1, "seconds": 3.0},
        ]
        text = render_span_tree(spans, trace_id="abc123")
        lines = text.splitlines()
        assert lines[0] == "trace abc123"
        assert "job" in lines[1]
        assert "└─ campaign" in text  # synthesized intermediate node
        assert "└─ trial" in text
        assert "4×" in text

    def test_render_dashboard_frame(self):
        state = DashState(
            url="http://x",
            status="ok",
            jobs=[{
                "id": "j1", "state": "running", "trials_done": 3,
                "trials_total": 10, "cache_hits": 1,
            }],
            trials_per_s=2.5,
            phase_seconds=[("job/campaign", 1.25)],
        )
        frame = ansi_strip(render_dashboard(state))
        assert "repro top" in frame
        assert "j1" in frame and "3/10" in frame
        assert "2.5 trials/s" in frame
        assert "job/campaign" in frame
        colourless = render_dashboard(state, color=False)
        assert "\x1b[" not in colourless
