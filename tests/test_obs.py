"""Tests for repro.obs — metrics, spans, exporters, manifests."""

import json
import threading

import pytest

from repro.core.session import CCMConfig, run_session, slot_matrix
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    manifest_path_for,
    metrics as obs_metrics,
    metrics_to_ndjson,
    profile_rows,
    render_profile,
    render_prometheus,
    use_registry,
    write_manifest_alongside,
)
from repro.protocols.transport import frame_picks


class TestMetricPrimitives:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        reg.inc("hits")
        reg.inc("hits", 4)
        assert reg.counter("hits").value == 5.0

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("hits", -1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 3)
        reg.set_gauge("depth", 7)
        assert reg.gauge("depth").value == 7.0

    def test_histogram_buckets_and_summary(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            hist.observe(v)
        assert hist.counts == [1, 2, 1]  # <=0.1, <=1.0, +inf
        assert hist.count == 4
        assert hist.minimum == 0.05 and hist.maximum == 5.0
        assert hist.mean == pytest.approx(6.05 / 4)

    def test_histogram_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(1.0, 0.1))

    def test_same_name_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")


class TestRegistrySwap:
    def test_default_is_noop_null_registry(self):
        obs = obs_metrics.get_registry()
        assert not obs.enabled
        obs.inc("ignored")
        obs.observe("ignored", 1.0)
        with obs.span("ignored"):
            pass
        assert obs_metrics.get_registry().span_stats() == {}

    def test_use_registry_installs_and_restores(self):
        before = obs_metrics.get_registry()
        with use_registry() as reg:
            assert obs_metrics.get_registry() is reg
            obs_metrics.OBS.inc("seen")
        assert obs_metrics.get_registry() is before
        assert reg.counter("seen").value == 1.0

    def test_use_registry_restores_on_exception(self):
        before = obs_metrics.get_registry()
        with pytest.raises(RuntimeError):
            with use_registry():
                raise RuntimeError("boom")
        assert obs_metrics.get_registry() is before


class TestSpans:
    def test_nesting_records_paths(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            with reg.span("inner"):
                pass
            with reg.span("inner"):
                pass
        stats = reg.span_stats()
        assert stats[("outer",)][0] == 1
        assert stats[("outer", "inner")][0] == 2

    def test_exception_sweeps_abandoned_children(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("outer"):
                span = reg.span("leaked")
                span.__enter__()  # never exited
                raise RuntimeError("boom")
        # The stack is clean: a later root span nests at depth 1.
        with reg.span("after"):
            pass
        assert ("after",) in reg.span_stats()

    def test_self_time_sums_to_parent_cumulative(self):
        reg = MetricsRegistry()
        with reg.span("parent"):
            with reg.span("a"):
                pass
            with reg.span("b"):
                pass
        rows = {r.path: r for r in profile_rows(reg)}
        parent = rows[("parent",)]
        child_sum = (
            rows[("parent", "a")].cumulative_s + rows[("parent", "b")].cumulative_s
        )
        assert parent.self_s == pytest.approx(
            parent.cumulative_s - child_sum, abs=1e-9
        )

    def test_threads_get_independent_stacks(self):
        reg = MetricsRegistry()

        def work():
            with reg.span("worker"):
                pass

        with reg.span("main"):
            t = threading.Thread(target=work)
            t.start()
            t.join()
        stats = reg.span_stats()
        assert ("worker",) in stats  # not nested under main's stack
        assert ("main", "worker") not in stats

    def test_render_profile_orders_and_covers(self):
        reg = MetricsRegistry()
        with reg.span("root"):
            with reg.span("leaf"):
                pass
        text = render_profile(reg, wall_s=1.0, sort="tree")
        assert "root" in text and "leaf" in text
        assert "coverage:" in text
        assert render_profile(MetricsRegistry()) == "(no spans recorded)"


class TestExporters:
    def _populated(self):
        reg = MetricsRegistry()
        reg.inc("ccm_rounds_total", 3)
        reg.set_gauge("last_rounds", 3)
        reg.observe("seconds", 0.02)
        with reg.span("session"):
            pass
        return reg

    def test_ndjson_lines_parse_and_sort(self, tmp_path):
        reg = self._populated()
        path = tmp_path / "deep" / "metrics.ndjson"
        text = metrics_to_ndjson(reg, path)
        assert path.read_text() == text
        records = [json.loads(line) for line in text.splitlines()]
        assert [r["type"] for r in records] == [
            "counter", "gauge", "histogram", "span",
        ]
        assert records[0] == {
            "name": "ccm_rounds_total", "type": "counter", "value": 3.0
        }
        assert records[3]["path"] == "session"

    def test_ndjson_full_text_is_pinned(self):
        # Span lines sort by their "/"-joined path, not by the path tuple:
        # ("a", "b") precedes ("a-x",) as a tuple but "a-x" < "a/b".
        reg = MetricsRegistry()
        reg.inc("zeta_total", 2)
        reg.inc("alpha_total")
        reg.set_gauge("util", 0.5)
        reg.observe("wall_s", 0.25, buckets=(0.1, 1.0))
        reg.observe("wall_s", 2.0, buckets=(0.1, 1.0))
        reg.histogram("idle_s", (1.0,))
        reg.record_span(("a", "b"), 0.5)
        reg.record_span(("a",), 1.0)
        reg.record_span(("a-x",), 0.25)
        reg.record_span(("a", "b"), 0.25)
        reg.record_span(("a", "b", "c"), 0.125)
        assert metrics_to_ndjson(reg) == (
            '{"name": "alpha_total", "type": "counter", "value": 1.0}\n'
            '{"name": "zeta_total", "type": "counter", "value": 2.0}\n'
            '{"name": "util", "type": "gauge", "value": 0.5}\n'
            '{"buckets": [1.0], "count": 0, "counts": [0, 0], "max": null, '
            '"min": null, "name": "idle_s", "sum": 0.0, "type": "histogram"}\n'
            '{"buckets": [0.1, 1.0], "count": 2, "counts": [0, 1, 1], '
            '"max": 2.0, "min": 0.25, "name": "wall_s", "sum": 2.25, '
            '"type": "histogram"}\n'
            '{"count": 1, "path": "a", "seconds": 1.0, "type": "span"}\n'
            '{"count": 1, "path": "a-x", "seconds": 0.25, "type": "span"}\n'
            '{"count": 2, "path": "a/b", "seconds": 0.75, "type": "span"}\n'
            '{"count": 1, "path": "a/b/c", "seconds": 0.125, "type": "span"}\n'
        )

    def test_empty_registry_ndjson(self):
        assert metrics_to_ndjson(MetricsRegistry()) == ""

    def test_prometheus_format(self):
        text = render_prometheus(self._populated())
        assert "# TYPE ccm_rounds_total counter" in text
        assert "ccm_rounds_total 3.0" in text
        assert '_bucket{le="+Inf"} 1' in text
        assert "seconds_sum 0.02" in text
        assert 'span_seconds_total{path="session"}' in text

    def test_prometheus_cumulative_buckets(self):
        reg = MetricsRegistry()
        reg.observe("v", 0.05, buckets=(0.1, 1.0))
        reg.observe("v", 0.5, buckets=(0.1, 1.0))
        text = render_prometheus(reg)
        assert 'v_bucket{le="0.1"} 1' in text
        assert 'v_bucket{le="1.0"} 2' in text
        assert 'v_bucket{le="+Inf"} 2' in text


class TestRunManifest:
    def test_capture_and_roundtrip(self, tmp_path):
        manifest = RunManifest.capture(
            seed=99, config={"n": 10}, engine="packed", elapsed_s=1.5,
            extra={"note": "test"},
        )
        assert manifest.python_version
        assert manifest.created_utc.endswith("Z")
        path = tmp_path / "run.manifest.json"
        manifest.write(path)
        back = RunManifest.from_json(path.read_text())
        assert back == manifest
        assert json.loads(path.read_text())["format"] == "repro-run-manifest-v1"

    def test_from_json_rejects_other_formats(self):
        with pytest.raises(ValueError):
            RunManifest.from_json('{"format": "something-else"}')

    def test_manifest_path_for(self):
        assert str(manifest_path_for("results/sweep.json")).endswith(
            "results/sweep.manifest.json"
        )

    def test_write_manifest_alongside(self, tmp_path):
        artifact = tmp_path / "sweep.csv"
        artifact.write_text("x\n")
        path = write_manifest_alongside(artifact, seed=1, engine="bigint")
        assert path == tmp_path / "sweep.manifest.json"
        assert RunManifest.from_json(path.read_text()).engine == "bigint"

    def test_git_revision_in_checkout(self):
        manifest = RunManifest.capture()
        # The test suite runs inside the repo checkout.
        assert manifest.git_rev is None or len(manifest.git_rev) == 40


class TestGitRevisionLookup:
    """``git_revision()`` asks git once per process; ``cwd=`` every call."""

    @pytest.fixture
    def git_calls(self, monkeypatch):
        import subprocess

        from repro.obs import manifest

        calls = []
        run = subprocess.run

        def fake_run(argv, *args, cwd=None, **kwargs):
            if argv[0] != "git":  # e.g. platform's `uname -p`
                return run(argv, *args, cwd=cwd, **kwargs)
            calls.append(cwd)
            return subprocess.CompletedProcess(
                argv, 0, stdout=f"{'a' if cwd is None else 'b'}" * 40 + "\n"
            )

        monkeypatch.setattr(manifest.subprocess, "run", fake_run)
        manifest._process_revision.cache_clear()
        yield calls
        manifest._process_revision.cache_clear()

    def test_default_provenance_runs_git_once_per_process(self, git_calls):
        from repro.store import ResultStore

        for engine in ("packed", "bigint", None):
            record = ResultStore.default_provenance(engine=engine)
            assert record["git_rev"] == "a" * 40
        assert RunManifest.capture().git_rev == "a" * 40
        assert git_calls == [None]

    def test_cwd_asks_git_every_call(self, git_calls, tmp_path):
        from repro.obs import git_revision

        assert git_revision(cwd=tmp_path) == "b" * 40
        assert git_revision(cwd=tmp_path) == "b" * 40
        assert git_calls == [str(tmp_path), str(tmp_path)]

    def test_cwd_outside_a_checkout_is_none(self, tmp_path):
        from repro.obs import git_revision

        if git_revision(cwd=tmp_path.anchor) is not None:
            pytest.skip("the filesystem root is inside a git checkout")
        assert git_revision(cwd=tmp_path) is None

    def test_provenance_keeps_its_fields(self):
        from repro.store import ResultStore

        record = ResultStore.default_provenance(
            engine="packed", elapsed_s=0.5, extra={"note": 1}
        )
        assert set(record) == {
            "created_utc", "git_rev", "host", "python_version", "engine",
            "elapsed_s", "note",
        }


class TestInstrumentedSession:
    @pytest.mark.parametrize("engine", ["bigint", "packed"])
    def test_session_records_phases_and_counters(self, small_network, engine):
        picks = frame_picks(small_network.tag_ids, 64, 1.0, seed=1)
        with use_registry() as reg:
            result = run_session(
                small_network, picks, config=CCMConfig(frame_size=64),
                engine=engine,
            )
        counters = reg.to_dict()["counters"]
        assert counters["ccm_sessions_total"] == 1.0
        assert counters["ccm_rounds_total"] == float(result.rounds)
        assert counters["ccm_session_slots_total"] == float(result.total_slots)
        stats = reg.span_stats()
        assert stats[("session",)][0] == 1
        assert stats[("session", "round")][0] == result.rounds
        for phase in ("data_frame", "indicator", "checking"):
            assert ("session", "round", phase) in stats
        assert reg.gauge("ccm_last_session_rounds").value == float(result.rounds)

    #: The kernel's per-round span paths under ``session``: perfbench
    #: derives the ``core.phase.*`` metrics from these names.
    PHASES = (
        ("data_frame",), ("indicator",), ("propagate",), ("checking",),
    )

    @pytest.mark.parametrize(
        "run", ["slot_major", "tag_major_lossy", "tag_major_forced", "hooked"]
    )
    def test_layout_span_tree(self, small_network, monkeypatch, run):
        """The exact ``session/...`` span paths, and the call count of
        each, for the bitset step (``slot_major``), the CSR step on a
        lossy channel (``tag_major_lossy``) and on a perfect one forced
        past the bitset bound (``tag_major_forced``), and a hooked
        scenario session: one tree for all.  The ``tag_major`` ids name
        the layout these runs took before the CSR step replaced it."""
        import numpy as np

        import repro.core.batch as batch_mod
        from repro.net.channel import LossyChannel
        from repro.scenario import (
            LinkBudget,
            ScenarioConfig,
            ScenarioSessionEngine,
            make_trajectory,
        )

        f = 64
        picks = frame_picks(small_network.tag_ids, f, 1.0, seed=1)
        config = CCMConfig(frame_size=f)
        phases = self.PHASES
        if run == "tag_major_forced":
            monkeypatch.setattr(batch_mod, "SLOT_MAJOR_MAX_ADJ_BYTES", 0)
        with use_registry() as reg:
            if run == "hooked":
                engine = ScenarioSessionEngine(
                    ScenarioConfig(
                        trajectory=make_trajectory(
                            "uav", field_radius=30.0, speed_mps=20.0
                        ),
                        link_budget=LinkBudget(threshold_dbm=-200.0),
                    )
                )
                slots = slot_matrix(small_network.n_tags, f, picks[:, None])
                with reg.span("session"):
                    result = engine.run(small_network, slots, config)
                assert engine.last_run_info["relinks"] > 0
                phases = self.PHASES + (("scenario_motion",),)
            elif run == "tag_major_lossy":
                result = run_session(
                    small_network, picks, config=config,
                    channel=LossyChannel(0.2), rng=np.random.default_rng(5),
                )
            else:
                result = run_session(small_network, picks, config=config)
        assert result.rounds >= 2
        want = {("session",): 1, ("session", "setup"): 1}
        want[("session", "round")] = result.rounds
        for phase in phases:
            want[("session", "round") + phase] = result.rounds
        got = {path: c for path, (c, _) in reg.span_stats().items()}
        assert got == want

    def test_engines_agree_on_protocol_counters(self, small_network):
        picks = frame_picks(small_network.tag_ids, 64, 1.0, seed=1)
        values = {}
        for engine in ("bigint", "packed"):
            with use_registry() as reg:
                run_session(
                    small_network, picks, config=CCMConfig(frame_size=64),
                    engine=engine,
                )
            counters = reg.to_dict()["counters"]
            values[engine] = {
                k: v for k, v in counters.items()
                if k.startswith("ccm_") and k != "ccm_session_seconds"
            }
        assert values["bigint"] == values["packed"]

    @staticmethod
    def _round_counters(reg):
        """The per-round protocol counters (both dispatch paths post them;
        session- and batch-call counters differ by design)."""
        counters = reg.to_dict()["counters"]
        return {
            k: counters.get(k, 0.0)
            for k in (
                "ccm_rounds_total",
                "ccm_data_frame_slots_total",
                "ccm_indicator_slots_total",
                "ccm_checking_slots_total",
            )
        }

    @pytest.mark.parametrize("loss", [0.0, 0.2])
    def test_batched_campaign_counters_match_per_trial(self, loss):
        from repro.experiments.common import SessionBatchTrial
        from repro.sim.parallel import Campaign, ExecutorConfig
        from repro.sim.plan import RunPlan

        trial = SessionBatchTrial(
            tag_range=6.0, n_tags=250, frame_size=64, participation=0.7,
            loss=loss, topology_seed=3,
        )
        counters = {}
        for batch in (1, 8):
            with use_registry() as reg:
                result = Campaign(
                    trial, 8, 29,
                    plan=RunPlan(
                        batch=batch, executor=ExecutorConfig.serial()
                    ),
                ).run()
            assert result.ok
            counters[batch] = self._round_counters(reg)
        assert counters[1] == counters[8]
        assert counters[8]["ccm_rounds_total"] >= 8.0

    @pytest.mark.parametrize("loss", [0.0, 0.2])
    def test_hooked_scenario_trace_matches_bigint(self, small_network, loss):
        """The scenario hook engaged (a power budget every tag meets)
        emits the bigint oracle's tracer NDJSON."""
        import numpy as np

        from repro.net.channel import LossyChannel, PerfectChannel
        from repro.scenario import (
            LinkBudget,
            ScenarioConfig,
            ScenarioSessionEngine,
        )
        from repro.sim.trace import SessionTracer

        f = 64
        picks = frame_picks(small_network.tag_ids, f, 1.0, seed=1)
        budget = LinkBudget(threshold_dbm=-200.0)
        assert budget.powered_mask(small_network.reader_distance).all()

        def inner():
            return LossyChannel(loss) if loss > 0.0 else PerfectChannel()

        scenario = ScenarioSessionEngine(ScenarioConfig(link_budget=budget))
        tracers = {"scenario": SessionTracer(), "bigint": SessionTracer()}
        slots = slot_matrix(small_network.n_tags, f, picks[:, None])
        ours = scenario.run(
            small_network, slots, CCMConfig(frame_size=f), channel=inner(),
            rng=np.random.default_rng(5), tracer=tracers["scenario"],
        )
        assert scenario.last_run_info["powered_fraction_mean"] == 1.0
        theirs = run_session(
            small_network, picks[:, None], config=CCMConfig(frame_size=f),
            channel=inner(), rng=np.random.default_rng(5),
            tracer=tracers["bigint"], engine="bigint",
        )
        ndjson = tracers["bigint"].to_ndjson()
        assert ndjson and tracers["scenario"].to_ndjson() == ndjson
        assert ours.round_stats == theirs.round_stats
        assert (
            ours.ledger.bits_received.tobytes()
            == theirs.ledger.bits_received.tobytes()
        )

    def test_disabled_session_records_nothing(self, small_network):
        picks = frame_picks(small_network.tag_ids, 64, 1.0, seed=1)
        run_session(small_network, picks, config=CCMConfig(frame_size=64))
        assert obs_metrics.get_registry().span_stats() == {}
