"""The campaign service: job specs, queue semantics, HTTP lifecycle.

Most tests run a real :class:`~repro.serve.ServiceApp` on an ephemeral
port (the event loop in a background thread, the client over real
sockets) — the full submit → run → stream → complete path, plus the
queue-full 429, priority ordering, trial-boundary cancellation, drain
and restart-resume, and shared-store dedupe the service promises.  The
SIGTERM test exercises the actual ``repro serve`` process via
``kill -TERM``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.serve import (
    JobManager,
    JobSpec,
    QueueFull,
    ServiceApp,
    ServiceClient,
    ServiceError,
    UnknownJob,
)
from repro.serve.jobs import JOB_SCHEMA
from repro.sim.plan import PLAN_SCHEMA
from repro.store import ResultStore, read_record_path


def job_record(jobs_dir, job_id):
    """The persisted job record (a repro-record-bin-v1 container)."""
    record, _ = read_record_path(jobs_dir / f"{job_id}.bin")
    return record


@dataclass(frozen=True)
class TinyTrial:
    """A fast deterministic trial, cacheable by dataclass config."""

    offset: float = 0.0

    def __call__(self, trial_index: int, seed: int):
        return {"value": float(seed % 97) + self.offset, "k": float(trial_index)}


@dataclass(frozen=True)
class SlowTrial:
    """A trial that takes real wall time, for cancellation/drain tests."""

    sleep_s: float = 0.05
    offset: float = 0.0

    def __call__(self, trial_index: int, seed: int):
        time.sleep(self.sleep_s)
        return {"value": float(seed % 97) + self.offset}


def tiny_spec(n_trials=5, base_seed=3, *, kind="campaign", offset=0.0, **extra):
    doc = {
        "schema": JOB_SCHEMA,
        "kind": kind,
        "trial": {
            "type": f"{__name__}.TinyTrial",
            "params": {"offset": offset},
        },
        "n_trials": n_trials,
        "base_seed": base_seed,
        "plan": {"schema": PLAN_SCHEMA},
    }
    doc.update(extra)
    return doc


def slow_spec(n_trials=40, sleep_s=0.05, **extra):
    doc = tiny_spec(n_trials=n_trials, **extra)
    doc["trial"] = {
        "type": f"{__name__}.SlowTrial",
        "params": {"sleep_s": sleep_s},
    }
    return doc


def deterministic(result_doc):
    """A campaign result minus its run-dependent fields (timing, hits)."""
    return {
        k: v for k, v in result_doc.items()
        if k not in ("elapsed_s", "cache_hits")
    }


# -- JobSpec wire schema -------------------------------------------------------


class TestJobSpec:
    def test_round_trips(self):
        spec = JobSpec.from_json(tiny_spec(priority=3))
        assert spec.kind == "campaign"
        assert spec.priority == 3
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_sweep_round_trips(self):
        doc = tiny_spec(
            kind="sweep", parameter="offset",
            parameter_label="offset_units", values=[1.0, 2.0],
        )
        spec = JobSpec.from_json(doc)
        assert spec.values == (1.0, 2.0)
        assert spec.total_trials == 10
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_wrong_schema_rejected(self):
        doc = tiny_spec()
        doc["schema"] = "repro-job-v0"
        with pytest.raises(ValueError, match="schema"):
            JobSpec.from_json(doc)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="surprise"):
            JobSpec.from_json({**tiny_spec(), "surprise": 1})

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec.from_json(tiny_spec(kind="mystery"))

    def test_sweep_needs_parameter_and_values(self):
        with pytest.raises(ValueError, match="parameter"):
            JobSpec.from_json(tiny_spec(kind="sweep", values=[1.0]))
        with pytest.raises(ValueError, match="values"):
            JobSpec.from_json(tiny_spec(kind="sweep", parameter="offset"))

    def test_bad_plan_rejected_at_submission(self):
        doc = tiny_spec()
        doc["plan"] = {"schema": PLAN_SCHEMA, "warp": 9}
        with pytest.raises(ValueError, match="warp"):
            JobSpec.from_json(doc)

    def test_build_trial(self):
        spec = JobSpec.from_json(tiny_spec(offset=2.0))
        trial = spec.build_trial()
        assert isinstance(trial, TinyTrial)
        assert trial.offset == 2.0

    def test_build_trial_factory_overrides_parameter(self):
        spec = JobSpec.from_json(
            tiny_spec(kind="sweep", parameter="offset", values=[5.0])
        )
        assert spec.build_trial_factory()(5.0).offset == 5.0

    def test_unimportable_trial_type(self):
        spec = JobSpec.from_json(
            {**tiny_spec(), "trial": {"type": "no.such.Thing", "params": {}}}
        )
        with pytest.raises(ValueError, match="cannot import"):
            spec.build_trial()


# -- JobManager (no HTTP) ------------------------------------------------------


class TestJobManager:
    def test_queue_full_raises(self, tmp_path):
        manager = JobManager(ResultStore(tmp_path), max_queue=2)
        # never started: everything stays queued
        manager.submit(JobSpec.from_json(tiny_spec()))
        manager.submit(JobSpec.from_json(tiny_spec(base_seed=4)))
        with pytest.raises(QueueFull):
            manager.submit(JobSpec.from_json(tiny_spec(base_seed=5)))

    def test_queue_bound_is_exact_after_many_finished_jobs(self, tmp_path):
        manager = JobManager(ResultStore(tmp_path), max_queue=3)
        # never started: run each job on this thread, as the worker would
        for seed in range(10):
            manager.submit(JobSpec.from_json(tiny_spec(base_seed=seed)))
            job = manager._next_job()
            manager._execute(job)
            assert job.state == "done"
        waiting = [
            manager.submit(JobSpec.from_json(tiny_spec(base_seed=20 + i)))
            for i in range(3)
        ]
        with pytest.raises(QueueFull, match=r"3/3"):
            manager.submit(JobSpec.from_json(tiny_spec(base_seed=30)))
        # a cancelled queued job frees exactly one slot
        manager.cancel(waiting[1].id)
        manager.submit(JobSpec.from_json(tiny_spec(base_seed=31)))
        with pytest.raises(QueueFull):
            manager.submit(JobSpec.from_json(tiny_spec(base_seed=32)))
        # so does a job the worker takes; a second cancel frees nothing
        manager.cancel(waiting[1].id)
        assert manager._next_job().id == waiting[0].id
        manager.submit(JobSpec.from_json(tiny_spec(base_seed=33)))
        with pytest.raises(QueueFull):
            manager.submit(JobSpec.from_json(tiny_spec(base_seed=34)))
        assert manager._queued == sum(
            1 for j in manager.list() if j.state == "queued"
        ) == 3

    def test_timed_out_job_fails_and_frees_its_worker(self, tmp_path):
        """A process-backend job past its plan's ``timeout_s`` fails with
        ``CampaignTimeout`` at the deadline, leaves no worker process
        behind, and the next queued job runs on the same job worker."""
        import multiprocessing

        manager = JobManager(ResultStore(tmp_path), max_queue=4)
        hung = slow_spec(n_trials=2, sleep_s=5.0)
        hung["plan"] = {
            "schema": PLAN_SCHEMA,
            "executor": {"workers": 2, "backend": "process", "timeout_s": 0.3},
        }
        first = manager.submit(JobSpec.from_json(hung))
        second = manager.submit(JobSpec.from_json(tiny_spec()))
        started = time.perf_counter()
        manager._execute(manager._next_job())
        assert time.perf_counter() - started < 1.5
        assert first.state == "failed"
        assert first.error.startswith("CampaignTimeout")
        assert multiprocessing.active_children() == []
        manager._execute(manager._next_job())
        assert second.state == "done"

    def test_queue_depth_survives_concurrent_submit_and_cancel(self, tmp_path):
        manager = JobManager(ResultStore(tmp_path), max_queue=1000)
        manager.start()
        errors = []

        def client(offset):
            try:
                for i in range(10):
                    job = manager.submit(
                        JobSpec.from_json(tiny_spec(n_trials=1, base_seed=offset + i))
                    )
                    if i % 2:
                        manager.cancel(job.id)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(100 * t,)) for t in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        deadline = time.monotonic() + 60
        while any(j.state in ("queued", "running") for j in manager.list()):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        manager.drain()
        assert len(manager.list()) == 60
        assert manager._queued == 0

    def test_server_registry_gets_each_job_span_once(self, tmp_path, monkeypatch):
        """A job records into its own registry; the installed server
        registry (as ``serve_forever`` installs it) receives the job's
        snapshot once, when the job ends: every span is recorded once."""
        from repro.obs import MetricsRegistry, use_registry

        recorded = []
        record_span = MetricsRegistry.record_span

        def spy(self, path, *args, **kwargs):
            recorded.append(path)
            record_span(self, path, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, "record_span", spy)
        spec = tiny_spec(n_trials=2)
        spec["trial"] = {
            "type": "repro.experiments.common.SessionBatchTrial",
            "params": {"tag_range": 6.0, "n_tags": 80, "frame_size": 32},
        }
        manager = JobManager(ResultStore(tmp_path))
        with use_registry(MetricsRegistry()) as server:
            manager.start()
            job = manager.submit(JobSpec.from_json(spec))
            deadline = time.monotonic() + 60
            while job.state in ("queued", "running"):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            manager.drain()
        assert job.state == "done"
        counters = {name: c.value for name, c in server.counters().items()}
        assert counters == job.telemetry["counters"]
        assert counters["ccm_sessions_total"] == 2
        spans = {tuple(r["path"]): r["count"] for r in job.telemetry["spans"]}
        assert {p: c for p, (c, _) in server.span_stats().items()} == spans
        assert spans[("job",)] == 1
        assert len(recorded) == sum(spans.values())

    def test_record_is_written_at_submit_and_terminal_state(
        self, tmp_path, monkeypatch
    ):
        manager = JobManager(ResultStore(tmp_path))
        written = []
        persist = manager._persist

        def spy(job):
            written.append(job.state)
            persist(job)

        monkeypatch.setattr(manager, "_persist", spy)
        manager.start()
        job = manager.submit(JobSpec.from_json(tiny_spec()))
        deadline = time.monotonic() + 30
        while not job.events.closed:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        manager.drain()
        assert written == ["queued", "done"]
        assert job_record(manager.jobs_dir, job.id) == job.to_dict()
        temps = [p.name for p in manager.jobs_dir.iterdir() if p.name.startswith(".")]
        assert temps == []

    def test_recover_skips_a_writers_temp_file(self, tmp_path):
        store = ResultStore(tmp_path)
        job = JobManager(store).submit(JobSpec.from_json(tiny_spec()))
        record = store.jobs_dir / f"{job.id}.bin"
        # a second writer killed between its write and its rename
        (store.jobs_dir / ".tmp-123-456.bin").write_bytes(record.read_bytes())
        assert JobManager(store).recover() == [job.id]

    def test_priority_order(self, tmp_path):
        manager = JobManager(ResultStore(tmp_path), max_queue=10)
        low = manager.submit(JobSpec.from_json(tiny_spec(priority=0)))
        high = manager.submit(
            JobSpec.from_json(tiny_spec(base_seed=4, priority=9))
        )
        mid = manager.submit(
            JobSpec.from_json(tiny_spec(base_seed=5, priority=5))
        )
        order = [manager._next_job().id for _ in range(3)]
        assert order == [high.id, mid.id, low.id]

    def test_fifo_within_priority(self, tmp_path):
        manager = JobManager(ResultStore(tmp_path), max_queue=10)
        first = manager.submit(JobSpec.from_json(tiny_spec()))
        second = manager.submit(JobSpec.from_json(tiny_spec(base_seed=4)))
        assert [manager._next_job().id for _ in range(2)] == [
            first.id, second.id,
        ]

    def test_cancel_queued(self, tmp_path):
        manager = JobManager(ResultStore(tmp_path))
        job = manager.submit(JobSpec.from_json(tiny_spec()))
        assert manager.cancel(job.id).state == "cancelled"
        record = job_record(manager.jobs_dir, job.id)
        assert record["state"] == "cancelled"

    def test_unknown_job(self, tmp_path):
        with pytest.raises(UnknownJob):
            JobManager(ResultStore(tmp_path)).get("nope")

    def test_run_and_persist(self, tmp_path):
        manager = JobManager(ResultStore(tmp_path))
        manager.start()
        job = manager.submit(JobSpec.from_json(tiny_spec()))
        deadline = time.monotonic() + 30
        while job.state not in ("done", "failed"):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert job.state == "done"
        assert job.trials_done == 5
        assert job.result["format"] == "repro-campaign-v1"
        assert job.result["aggregates"]["value"]["count"] == 5
        record = job_record(manager.jobs_dir, job.id)
        assert record["state"] == "done"
        assert record["result"] == job.result
        manager.drain()

    def test_queued_event_precedes_a_fast_worker(self, tmp_path, monkeypatch):
        # a slow submit-side write gives the worker time to finish the
        # whole job; the "queued" event and record must still come first
        manager = JobManager(ResultStore(tmp_path))
        persist = manager._persist
        submitter = threading.get_ident()

        def slow_persist(job):
            if threading.get_ident() == submitter:
                time.sleep(0.5)
            persist(job)

        monkeypatch.setattr(manager, "_persist", slow_persist)
        manager.start()
        job = manager.submit(JobSpec.from_json(tiny_spec()))
        deadline = time.monotonic() + 30
        while job.state not in ("done", "failed"):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        manager.drain()
        events, _ = job.events.window(0)
        states = [e["data"]["state"] for e in events if e["kind"] == "job"]
        assert states == ["queued", "running", "done"]
        assert [e["kind"] for e in events].count("trial") == 5
        assert job_record(manager.jobs_dir, job.id)["state"] == "done"

    def test_terminal_state_comes_with_a_complete_record(
        self, tmp_path, monkeypatch
    ):
        # a slow telemetry snapshot gives a poller time to look between
        # the steps that finish a job; once the state reads terminal the
        # record and the event log must already be complete
        from repro.obs.metrics import MetricsRegistry

        to_dict = MetricsRegistry.to_dict

        def slow_to_dict(registry):
            time.sleep(0.5)
            return to_dict(registry)

        monkeypatch.setattr(MetricsRegistry, "to_dict", slow_to_dict)
        manager = JobManager(ResultStore(tmp_path))
        manager.start()
        job = manager.submit(JobSpec.from_json(tiny_spec()))
        deadline = time.monotonic() + 30
        while job.state not in ("done", "failed"):
            assert time.monotonic() < deadline
            time.sleep(0.001)
        record = job.to_dict()
        events, _ = job.events.window(0)
        manager.drain()
        assert record["state"] == "done"
        assert record["telemetry"] is not None
        assert record["finished_utc"] is not None
        assert events[-1]["kind"] == "job"
        assert events[-1]["data"]["state"] == "done"
        assert job.events.closed
        assert job_record(manager.jobs_dir, job.id) == job.to_dict()

    def test_identical_jobs_dedupe_through_store(self, tmp_path):
        manager = JobManager(ResultStore(tmp_path))
        manager.start()
        first = manager.submit(JobSpec.from_json(tiny_spec(n_trials=20)))
        second = manager.submit(JobSpec.from_json(tiny_spec(n_trials=20)))
        deadline = time.monotonic() + 30
        while not (first.state == "done" and second.state == "done"):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert first.cache_hits == 0
        # acceptance bar is >= 95%; in practice it is 100%
        assert second.cache_hits >= 19
        assert deterministic(second.result) == deterministic(first.result)
        manager.drain()

    def test_namespaced_journals_never_collide(self, tmp_path):
        store = ResultStore(tmp_path)
        manager = JobManager(store)
        manager.start()
        a = manager.submit(JobSpec.from_json(tiny_spec()))
        b = manager.submit(JobSpec.from_json(tiny_spec()))
        deadline = time.monotonic() + 30
        while not (a.state == "done" and b.state == "done"):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        journals = list((store.campaigns_dir / "jobs").rglob("*.binj"))
        # identical campaigns (same campaign key), two distinct journals
        assert len(journals) == 2
        assert {p.parent.name for p in journals} == {a.id, b.id}
        manager.drain()


# -- the HTTP service ----------------------------------------------------------


@pytest.fixture
def service(tmp_path):
    """A live ServiceApp on an ephemeral port, torn down by drain."""
    store = ResultStore(tmp_path / "store")
    app = ServiceApp(store, port=0, max_queue=3, job_workers=1)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    port = asyncio.run_coroutine_threadsafe(app.start(), loop).result(10)
    yield SimpleNamespace(
        app=app,
        store=store,
        port=port,
        client=ServiceClient(f"http://127.0.0.1:{port}"),
        loop=loop,
    )
    asyncio.run_coroutine_threadsafe(app.shutdown(), loop).result(60)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(5)
    loop.close()


class TestService:
    def test_healthz(self, service):
        health = service.client.healthz()
        assert health["status"] == "ok"
        assert health["draining"] is False

    def test_submit_run_stream_complete(self, service):
        job = service.client.submit(tiny_spec())
        assert job["state"] in ("queued", "running")
        assert job["trials_total"] == 5
        events = list(service.client.events(job["id"], timeout_s=30))
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "job"
        assert kinds.count("trial") == 5
        assert events[-1]["kind"] == "job"
        assert events[-1]["data"]["state"] == "done"
        # events are sequence-numbered for resumable replay
        assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)
        final = service.client.wait(job["id"], timeout_s=30)
        assert final["state"] == "done"
        assert final["result"]["aggregates"]["value"]["count"] == 5

    def test_json_bodies_are_compact(self, service):
        """JSON responses are sorted-key compact JSON plus a newline (the
        indented form costs ~5x the encode time on the event loop)."""
        import http.client

        job = service.client.submit(tiny_spec())
        record = service.client.wait(job["id"], timeout_s=30)
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
        try:
            conn.request("GET", f"/v1/jobs/{job['id']}")
            resp = conn.getresponse()
            body = resp.read().decode("utf-8")
        finally:
            conn.close()
        assert resp.status == 200
        assert resp.getheader("Content-Type") == "application/json"
        assert body == (
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        )

    def test_response_encode_compact(self):
        from repro.serve.http import Response

        payload, ctype = Response(body={"b": [1, 2], "a": {"y": 1.5}}).encode()
        assert payload == b'{"a":{"y":1.5},"b":[1,2]}\n'
        assert ctype == "application/json"

    def test_event_replay_from_seq(self, service):
        job = service.client.submit(tiny_spec())
        service.client.wait(job["id"], timeout_s=30)
        all_events = list(service.client.events(job["id"], timeout_s=10))
        tail = list(
            service.client.events(
                job["id"], since=all_events[2]["seq"], timeout_s=10
            )
        )
        assert tail == all_events[2:]

    def test_queue_full_gives_429(self, service):
        # one slow job occupies the worker; fill the 3-deep queue behind it
        running = service.client.submit(slow_spec(n_trials=200, sleep_s=0.05))
        deadline = time.monotonic() + 10
        while service.client.job(running["id"])["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        for seed in (11, 12, 13):
            service.client.submit(slow_spec(base_seed=seed))
        with pytest.raises(ServiceError) as err:
            service.client.submit(slow_spec(base_seed=14))
        assert err.value.status == 429
        service.client.cancel(running["id"])
        for record in service.client.jobs():
            service.client.cancel(record["id"])

    def test_priority_runs_first(self, service):
        blocker = service.client.submit(slow_spec(n_trials=100, sleep_s=0.05))
        deadline = time.monotonic() + 10
        while service.client.job(blocker["id"])["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        low = service.client.submit(tiny_spec(base_seed=21, priority=0))
        high = service.client.submit(tiny_spec(base_seed=22, priority=7))
        service.client.cancel(blocker["id"])
        high_final = service.client.wait(high["id"], timeout_s=30)
        low_final = service.client.wait(low["id"], timeout_s=30)
        assert high_final["started_utc"] < low_final["started_utc"]

    def test_cancel_mid_campaign(self, service):
        job = service.client.submit(slow_spec(n_trials=200, sleep_s=0.05))
        deadline = time.monotonic() + 10
        while service.client.job(job["id"])["trials_done"] < 2:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        service.client.cancel(job["id"])
        final = service.client.wait(job["id"], timeout_s=30)
        assert final["state"] == "cancelled"
        assert 0 < final["trials_done"] < 200

    def test_sweep_job_over_http(self, service):
        job = service.client.submit(
            tiny_spec(
                kind="sweep", n_trials=3, parameter="offset",
                parameter_label="offset_units", values=[1.0, 2.0],
            )
        )
        final = service.client.wait(job["id"], timeout_s=30)
        assert final["state"] == "done"
        doc = final["result"]
        assert doc["format"] == "repro-sweep-v1"
        assert doc["parameter"] == "offset_units"
        assert doc["values"] == [1.0, 2.0]
        # each sweep point aggregated all three of its trials
        assert [point["value"]["count"] for point in doc["aggregates"]] == [3, 3]
        assert final["trials_done"] == 6

    def test_second_identical_submission_hits_store(self, service):
        first = service.client.submit(tiny_spec(n_trials=20))
        service.client.wait(first["id"], timeout_s=30)
        second = service.client.submit(tiny_spec(n_trials=20))
        final = service.client.wait(second["id"], timeout_s=30)
        assert final["cache_hits"] >= 19  # >= 95% of 20
        assert deterministic(final["result"]) == deterministic(
            service.client.job(first["id"])["result"]
        )

    def test_bad_spec_gives_400(self, service):
        with pytest.raises(ServiceError) as err:
            service.client.submit({"schema": JOB_SCHEMA, "kind": "mystery"})
        assert err.value.status == 400

    def test_misspelled_executor_key_gives_400(self, service):
        spec = tiny_spec()
        spec["plan"]["executor"] = {"wokers": 2}
        with pytest.raises(ServiceError) as err:
            service.client.submit(spec)
        assert err.value.status == 400
        assert "wokers" in str(err.value)
        assert service.client.jobs() == []

    def test_unknown_job_gives_404(self, service):
        with pytest.raises(ServiceError) as err:
            service.client.job("doesnotexist")
        assert err.value.status == 404

    def test_unknown_route_gives_404(self, service):
        with pytest.raises(ServiceError) as err:
            service.client._request("GET", "/v2/anything")
        assert err.value.status == 404

    def test_metrics_endpoint(self, service):
        job = service.client.submit(tiny_spec())
        service.client.wait(job["id"], timeout_s=30)
        text = service.client.metrics()
        assert isinstance(text, str)  # Prometheus text (possibly empty:
        # the fixture drives app.start() directly, so no registry is
        # installed; serve_forever() installs one — see the SIGTERM test)


class TestTelemetryOverHttp:
    def test_trace_id_round_trips_submit_to_span_tree(self, service):
        """One trace id: submitted in the plan, recoverable as a span tree."""
        from repro.obs import TraceContext

        trace = TraceContext.new()
        spec = tiny_spec()
        spec["plan"]["trace"] = trace.to_dict()
        job = service.client.submit(spec)
        assert job["trace_id"] == trace.trace_id
        final = service.client.wait(job["id"], timeout_s=30)
        assert final["trace_id"] == trace.trace_id
        # every event record is stamped with the same trace id
        events = list(service.client.events(job["id"], timeout_s=10))
        assert events
        assert all(e["data"]["trace_id"] == trace.trace_id for e in events)
        # the persisted telemetry snapshot reconstructs the span tree
        telemetry = final["telemetry"]
        assert telemetry["schema"] == "repro-metrics-snapshot-v1"
        assert telemetry["trace"]["trace_id"] == trace.trace_id
        paths = {tuple(row["path"]) for row in telemetry["spans"]}
        assert ("job",) in paths
        assert ("job", "campaign", "trial") in paths

    def test_server_mints_trace_when_client_sends_none(self, service):
        job = service.client.submit(tiny_spec())
        final = service.client.wait(job["id"], timeout_s=30)
        assert len(final["trace_id"]) == 32

    def test_event_stream_marks_truncation(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        app = ServiceApp(
            store, port=0, max_queue=3, job_workers=1, event_retention=3
        )
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        port = asyncio.run_coroutine_threadsafe(app.start(), loop).result(10)
        client = ServiceClient(f"http://127.0.0.1:{port}")
        try:
            job = client.submit(tiny_spec(n_trials=8))
            client.wait(job["id"], timeout_s=30)
            events = list(client.events(job["id"], timeout_s=10))
            # 8 trials + job transitions overflow a 3-deep log: the replay
            # opens with an explicit truncation marker, then the survivors
            assert events[0]["kind"] == "truncated"
            assert events[0]["requested_since"] == 0
            assert events[0]["dropped"] > 0
            survivors = events[1:]
            assert len(survivors) == 3
            assert [e["seq"] for e in survivors] == sorted(
                e["seq"] for e in survivors
            )
            # asking from the surviving window is not marked truncated
            tail = list(
                client.events(
                    job["id"], since=survivors[0]["seq"], timeout_s=10
                )
            )
            assert tail == survivors
        finally:
            asyncio.run_coroutine_threadsafe(app.shutdown(), loop).result(60)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(5)
            loop.close()


class TestDrainAndResume:
    def test_drain_interrupts_and_restart_resumes_bit_identical(self, tmp_path):
        store_root = tmp_path / "store"

        def run_service(app):
            loop = asyncio.new_event_loop()
            thread = threading.Thread(target=loop.run_forever, daemon=True)
            thread.start()
            port = asyncio.run_coroutine_threadsafe(app.start(), loop).result(10)
            return loop, thread, ServiceClient(f"http://127.0.0.1:{port}")

        def stop_service(app, loop, thread):
            asyncio.run_coroutine_threadsafe(app.shutdown(), loop).result(60)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(5)
            loop.close()

        # reference result: the same spec run to completion elsewhere
        ref_manager = JobManager(ResultStore(tmp_path / "ref"))
        ref_manager.start()
        ref_job = ref_manager.submit(
            JobSpec.from_json(slow_spec(n_trials=12, sleep_s=0.05))
        )
        deadline = time.monotonic() + 60
        while ref_job.state != "done":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        ref_manager.drain()

        app1 = ServiceApp(ResultStore(store_root), port=0)
        loop1, thread1, client1 = run_service(app1)
        job = client1.submit(slow_spec(n_trials=12, sleep_s=0.05))
        deadline = time.monotonic() + 30
        while client1.job(job["id"])["trials_done"] < 3:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        stop_service(app1, loop1, thread1)  # graceful drain mid-campaign

        record = job_record(store_root / "serve" / "jobs", job["id"])
        assert record["state"] == "interrupted"
        assert 0 < record["trials_done"] < 12
        trace_id = record["trace_id"]
        assert trace_id  # minted at submit, persisted with the interrupt
        # the namespaced checkpoint journal survived the drain, and its
        # events carry the job's trace id
        from repro.store.binary import load_journal

        journal_dir = store_root / "campaigns" / "jobs" / job["id"]
        journals = list(journal_dir.glob("*.binj"))
        assert journals
        journal_events = load_journal(journals[0])[0]
        trial_events = [e for e in journal_events if e.get("kind") == "trial"]
        assert trial_events
        assert all(e["trace_id"] == trace_id for e in trial_events)

        app2 = ServiceApp(ResultStore(store_root), port=0)
        loop2, thread2, client2 = run_service(app2)
        final = client2.wait(job["id"], timeout_s=60)
        assert final["state"] == "done"
        assert final["resumed"] is True
        assert final["cache_hits"] > 0  # completed trials came from the store
        # the trace identity survives the restart-recover-resume cycle
        assert final["trace_id"] == trace_id
        paths = {tuple(row["path"]) for row in final["telemetry"]["spans"]}
        assert ("job",) in paths
        # bit-identical aggregates vs an uninterrupted run of the same spec
        assert deterministic(final["result"]) == deterministic(ref_job.result)
        stop_service(app2, loop2, thread2)


@pytest.mark.slow
class TestSigterm:
    def test_kill_term_mid_campaign_then_restart(self, tmp_path):
        """The real `repro serve` process: SIGTERM drain + resume."""
        trial_mod = tmp_path / "slowmod.py"
        trial_mod.write_text(
            "import time\n"
            "from dataclasses import dataclass\n\n\n"
            "@dataclass(frozen=True)\n"
            "class SlowTrial:\n"
            "    sleep_s: float = 0.2\n\n"
            "    def __call__(self, trial_index, seed):\n"
            "        time.sleep(self.sleep_s)\n"
            "        return {'value': float(seed % 97)}\n"
        )
        store_root = tmp_path / "store"
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(repo_src), str(tmp_path)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )

        def start_server():
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.experiments.cli", "serve",
                    "--port", "0", "--cache-dir", str(store_root),
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            while True:
                line = proc.stdout.readline()
                assert line, "server exited before listening"
                if "listening on http://" in line:
                    break
            port = int(line.rsplit(":", 1)[1].split()[0])
            return proc, ServiceClient(f"http://127.0.0.1:{port}")

        proc, client = start_server()
        try:
            spec = {
                "schema": JOB_SCHEMA,
                "kind": "campaign",
                "trial": {"type": "slowmod.SlowTrial",
                          "params": {"sleep_s": 0.2}},
                "n_trials": 50,
                "base_seed": 9,
                "plan": {"schema": PLAN_SCHEMA},
            }
            job = client.submit(spec)
            deadline = time.monotonic() + 30
            while client.job(job["id"])["trials_done"] < 2:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
            assert proc.returncode == 0  # graceful drain, clean exit
        finally:
            if proc.poll() is None:
                proc.kill()

        record = job_record(store_root / "serve" / "jobs", job["id"])
        assert record["state"] == "interrupted"
        interrupted_done = record["trials_done"]
        assert 0 < interrupted_done < 50

        proc, client = start_server()
        try:
            final = client.wait(job["id"], timeout_s=120)
            assert final["state"] == "done"
            assert final["resumed"] is True
            assert final["cache_hits"] >= interrupted_done - 1
            assert final["result"]["aggregates"]["value"]["count"] == 50
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
            assert proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
