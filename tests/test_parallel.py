"""Tests for repro.sim.parallel — the parallel campaign engine.

Trial callables used with the process backend live at module level so
they survive the pickle boundary; the determinism tests assert
field-for-field aggregate equality across every backend, which is the
engine's core contract.
"""

import dataclasses
import io
import sys

import pytest

import repro
import repro.sim as sim
from repro.sim.parallel import (
    Campaign,
    CampaignError,
    CampaignResult,
    CampaignTimeout,
    ExecutorConfig,
    TrialFailure,
    stderr_ticker,
)
from repro.sim.plan import RunPlan
from repro.sim.runner import run_trials, sweep, trial_seed


def noisy_trial(trial_index, seed):
    """A cheap deterministic trial with seed- and index-dependent metrics."""
    return {
        "value": float(seed % 1009),
        "index": float(trial_index),
        "mix": float((seed * (trial_index + 1)) % 4013),
    }


@dataclasses.dataclass(frozen=True)
class FailingAt:
    """Raises on the listed trial indices (picklable, deterministic)."""

    bad_indices: tuple

    def __call__(self, trial_index, seed):
        if trial_index in self.bad_indices:
            raise RuntimeError(f"deployment {trial_index} exploded")
        return noisy_trial(trial_index, seed)


def sleeping_trial(trial_index, seed):
    """A hung trial: sleeps far past any campaign timeout in the tests."""
    import time

    time.sleep(5.0)
    return {"x": 1.0}


class HungUntilReleased:
    """A cacheable thread-backend trial that blocks until ``release`` is set."""

    def __init__(self):
        import threading

        self.release = threading.Event()
        self.finished = []

    def cache_config(self):
        return {"kind": "hung_until_released"}

    def __call__(self, trial_index, seed):
        self.release.wait(5.0)
        self.finished.append(trial_index)
        return {"x": 1.0}


@dataclasses.dataclass(frozen=True)
class FlakyOnFirstSeed:
    """Fails only when handed the attempt-0 seed for ``bad_index``.

    Retries re-derive the seed, so the retried attempt succeeds — a
    deterministic stand-in for a transiently bad deployment.
    """

    bad_index: int
    base_seed: int

    def __call__(self, trial_index, seed):
        if (
            trial_index == self.bad_index
            and seed == trial_seed(self.base_seed, trial_index)
        ):
            raise ValueError("flaky first attempt")
        return noisy_trial(trial_index, seed)


def assert_aggregates_identical(a, b):
    """Field-for-field (bit-identical) equality of two aggregate dicts."""
    assert sorted(a) == sorted(b)
    for name in a:
        left, right = a[name], b[name]
        for fld in ("name", "mean", "std", "minimum", "maximum", "count"):
            assert getattr(left, fld) == getattr(right, fld), (
                f"{name}.{fld}: {getattr(left, fld)!r} != {getattr(right, fld)!r}"
            )


class TestExecutorConfig:
    def test_defaults(self):
        cfg = ExecutorConfig()
        assert cfg.backend == "process"
        assert cfg.resolved_workers() >= 1

    def test_serial_constructor(self):
        assert ExecutorConfig.serial().backend == "serial"

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(backend="gpu")

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(workers=-1)
        with pytest.raises(ValueError):
            ExecutorConfig(chunk_size=0)
        with pytest.raises(ValueError):
            ExecutorConfig(timeout_s=0.0)
        with pytest.raises(ValueError):
            ExecutorConfig(max_retries=-1)

    def test_explicit_workers_resolved(self):
        assert ExecutorConfig(workers=3).resolved_workers() == 3


class TestDeterminism:
    """Serial and parallel paths must produce bit-identical aggregates."""

    N, SEED = 20, 1234

    def test_process_backend_matches_serial(self):
        serial = run_trials(noisy_trial, self.N, self.SEED)
        parallel = run_trials(
            noisy_trial, self.N, self.SEED,
            plan=RunPlan(executor=ExecutorConfig(workers=2, backend="process")),
        )
        assert_aggregates_identical(serial, parallel)

    def test_thread_backend_matches_serial(self):
        serial = run_trials(noisy_trial, self.N, self.SEED)
        threaded = run_trials(
            noisy_trial, self.N, self.SEED,
            plan=RunPlan(executor=ExecutorConfig(workers=4, backend="thread")),
        )
        assert_aggregates_identical(serial, threaded)

    def test_serial_backend_matches_inline(self):
        inline = run_trials(noisy_trial, self.N, self.SEED)
        engine = run_trials(
            noisy_trial, self.N, self.SEED,
            plan=RunPlan(executor=ExecutorConfig.serial()),
        )
        assert_aggregates_identical(inline, engine)

    def test_chunking_does_not_change_results(self):
        serial = run_trials(noisy_trial, self.N, self.SEED)
        chunked = run_trials(
            noisy_trial, self.N, self.SEED,
            plan=RunPlan(executor=ExecutorConfig(workers=2, backend="thread", chunk_size=7)),
        )
        assert_aggregates_identical(serial, chunked)

    def test_campaign_object_matches_run_trials(self):
        serial = run_trials(noisy_trial, self.N, self.SEED)
        result = Campaign(noisy_trial, self.N, self.SEED).run()
        assert isinstance(result, CampaignResult)
        assert result.ok and result.n_ok == self.N
        assert_aggregates_identical(serial, result.aggregates)

    def test_sweep_with_executor_matches_serial(self):
        factory = lambda v: noisy_trial  # noqa: E731 - axis value unused
        serial = sweep("v", [1.0, 2.0], factory, n_trials=5, base_seed=3)
        threaded = sweep(
            "v", [1.0, 2.0], factory, n_trials=5, base_seed=3,
            plan=RunPlan(executor=ExecutorConfig(workers=2, backend="thread")),
        )
        assert serial.values == threaded.values
        for a, b in zip(serial.aggregates, threaded.aggregates):
            assert_aggregates_identical(a, b)


class TestFailureIsolation:
    def test_failure_captured_and_rest_aggregated(self):
        result = Campaign(
            FailingAt(bad_indices=(3,)), 10, 7,
            plan=RunPlan(executor=ExecutorConfig.serial()),
        ).run()
        assert not result.ok
        assert result.n_ok == 9
        assert result.per_trial[3] is None
        [failure] = result.failures
        assert isinstance(failure, TrialFailure)
        assert failure.trial_index == 3
        assert failure.attempts == 1
        assert failure.error_type == "RuntimeError"
        assert "deployment 3 exploded" in failure.message
        assert "RuntimeError" in failure.traceback
        assert failure.seed == trial_seed(7, 3)
        # The surviving trials still aggregate every metric.
        assert result.aggregates["value"].count == 9

    def test_failure_captured_across_process_boundary(self):
        result = Campaign(
            FailingAt(bad_indices=(1, 4)), 6, 0,
            plan=RunPlan(executor=ExecutorConfig(workers=2, backend="process")),
        ).run()
        assert [f.trial_index for f in result.failures] == [1, 4]
        assert result.n_ok == 4
        assert result.aggregates["value"].count == 4

    def test_fail_fast_aborts(self):
        with pytest.raises(CampaignError) as excinfo:
            Campaign(
                FailingAt(bad_indices=(2,)), 10, 0,
                plan=RunPlan(executor=ExecutorConfig.serial(fail_fast=True)),
            ).run()
        assert excinfo.value.failures[0].trial_index == 2

    def test_default_plan_failure_raises_campaign_error(self):
        with pytest.raises(CampaignError, match="trial 2 failed") as excinfo:
            run_trials(FailingAt(bad_indices=(2,)), 4, 0)
        [failure] = excinfo.value.failures
        assert failure.trial_index == 2
        assert "deployment 2 exploded" in failure.message
        assert excinfo.value.aggregates["value"].count == 3

    def test_run_trials_wrapper_raises_on_failure(self):
        with pytest.raises(CampaignError) as excinfo:
            run_trials(
                FailingAt(bad_indices=(0,)), 4, 0,
                plan=RunPlan(executor=ExecutorConfig.serial()),
            )
        err = excinfo.value
        assert len(err.failures) == 1
        # Partial aggregates still ride along for diagnostics.
        assert err.aggregates["value"].count == 3

    def test_all_failed_gives_empty_aggregates(self):
        result = Campaign(
            FailingAt(bad_indices=tuple(range(3))), 3, 0,
            plan=RunPlan(executor=ExecutorConfig.serial()),
        ).run()
        assert result.aggregates == {}
        assert result.n_ok == 0


class TestRetry:
    def test_retry_rederives_seed_and_recovers(self):
        trial = FlakyOnFirstSeed(bad_index=2, base_seed=5)
        no_retry = Campaign(
            trial, 6, 5, plan=RunPlan(executor=ExecutorConfig.serial())
        ).run()
        assert [f.trial_index for f in no_retry.failures] == [2]

        retried = Campaign(
            trial, 6, 5,
            plan=RunPlan(executor=ExecutorConfig.serial(max_retries=1)),
        ).run()
        assert retried.ok
        assert retried.per_trial[2]["value"] == float(
            trial_seed(5, 2, attempt=1) % 1009
        )

    def test_retry_seeds_are_distinct_and_deterministic(self):
        seeds = {trial_seed(9, 4, attempt=a) for a in range(4)}
        assert len(seeds) == 4
        assert trial_seed(9, 4, attempt=2) == trial_seed(9, 4, attempt=2)


class TestProgress:
    def test_callback_sees_every_trial(self):
        seen = []

        def on_done(k, elapsed, metrics):
            seen.append((k, metrics is not None))
            assert elapsed >= 0.0

        Campaign(
            FailingAt(bad_indices=(1,)), 5, 0,
            plan=RunPlan(executor=ExecutorConfig(workers=2, backend="thread")),
            on_trial_done=on_done,
        ).run()
        assert sorted(k for k, _ in seen) == [0, 1, 2, 3, 4]
        assert dict(seen)[1] is False

    def test_stderr_ticker_counts_and_resets(self):
        stream = io.StringIO()
        tick = stderr_ticker(2, stream=stream)
        tick(0, 0.1, {})
        tick(1, 0.2, {})
        out = stream.getvalue()
        assert "1/2" in out and "2/2" in out
        # Progress newline at completion plus the final summary line.
        assert out.count("\n") == 2
        assert "done: 2 ok, 0 failed" in out
        tick(0, 0.3, {})  # second campaign reuses the same ticker
        assert "1/2" in stream.getvalue()[len(out):]

    def test_stderr_ticker_rate_limits_progress(self):
        stream = io.StringIO()
        tick = stderr_ticker(100, stream=stream, min_interval_s=3600.0)
        for k in range(99):
            tick(k, 0.01 * k, {})
        # Only the first progress line made it through the rate limit.
        assert stream.getvalue().count("\r") == 1
        tick(99, 1.0, {})  # the final tick always draws and summarises
        out = stream.getvalue()
        assert "100/100" in out
        assert "done: 100 ok, 0 failed" in out

    def test_stderr_ticker_counts_failures_in_summary(self):
        stream = io.StringIO()
        tick = stderr_ticker(3, stream=stream)
        tick(0, 0.1, {})
        tick(1, 0.2, None)  # failed trial
        tick(2, 0.3, {})
        assert "done: 2 ok, 1 failed" in stream.getvalue()

    def test_stderr_ticker_suppresses_progress_on_non_tty(self, monkeypatch):
        stream = io.StringIO()  # StringIO.isatty() is False
        monkeypatch.setattr(sys, "stderr", stream)
        tick = stderr_ticker(2)
        tick(0, 0.1, {})
        tick(1, 0.2, {})
        out = stream.getvalue()
        assert "\r" not in out  # no progress line off-TTY...
        assert "done: 2 ok, 0 failed" in out  # ...but the summary stays

    def test_stderr_ticker_force_overrides_tty_check(self, monkeypatch):
        stream = io.StringIO()
        monkeypatch.setattr(sys, "stderr", stream)
        tick = stderr_ticker(1, force=True)
        tick(0, 0.1, {})
        assert "\r" in stream.getvalue()


class TestCampaignObservability:
    def test_result_carries_wall_and_utilization(self):
        result = Campaign(noisy_trial, 4, 0).run()
        assert result.total_trial_wall_s > 0.0
        assert result.retries == 0
        assert result.worker_utilization is not None
        # Serial: trial wall time cannot exceed campaign elapsed time.
        assert 0.0 < result.worker_utilization <= 1.0

    def test_retries_counted(self):
        result = Campaign(
            FlakyOnFirstSeed(bad_index=1, base_seed=0), 3, 0,
            plan=RunPlan(executor=ExecutorConfig(workers=1, backend="serial", max_retries=2)),
        ).run()
        assert not result.failures
        assert result.retries >= 1

    def test_campaign_metrics_recorded(self):
        from repro.obs import use_registry

        with use_registry() as reg:
            Campaign(FailingAt(bad_indices=(1,)), 4, 0).run()
        counters = reg.to_dict()["counters"]
        assert counters["campaign_trials_ok"] == 3.0
        assert counters["campaign_trials_failed"] == 1.0
        hist = reg.histogram("campaign_trial_wall_s")
        assert hist.count == 4
        assert reg.span_stats()[("campaign",)][0] == 1
        assert 0.0 < reg.gauge("campaign_worker_utilization").value <= 1.0


class TestOneCampaignPath:
    """A default-plan ``run_trials`` is a campaign like any other."""

    def _recorded(self, **kwargs):
        from repro.obs import use_registry

        with use_registry() as reg:
            with reg.span("sweep_point"):
                aggs = run_trials(noisy_trial, 3, 11, **kwargs)
        return aggs, reg

    def test_default_plan_records_campaign_tree(self):
        aggs, reg = self._recorded()
        assert reg.span_stats()[("sweep_point", "campaign")][0] == 1
        assert reg.span_stats()[("sweep_point", "campaign", "trial")][0] == 3
        assert reg.counter("campaign_trials_ok").value == 3.0
        assert aggs["value"].count == 3

    def test_callback_does_not_change_the_span_tree(self):
        plain_aggs, plain = self._recorded()
        seen = []
        aggs, ticked = self._recorded(
            on_trial_done=lambda k, elapsed, metrics: seen.append(k)
        )
        assert sorted(seen) == [0, 1, 2]
        assert set(ticked.span_stats()) == set(plain.span_stats())
        assert set(ticked.counters()) == set(plain.counters())
        assert_aggregates_identical(plain_aggs, aggs)


class TestTimeout:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_timeout_raises_campaign_timeout(self, backend):
        def slow(trial_index, seed):
            import time

            time.sleep(0.5)
            return {"x": 1.0}

        with pytest.raises(CampaignTimeout) as excinfo:
            Campaign(
                slow, 4, 0,
                plan=RunPlan(executor=ExecutorConfig(
                    workers=2, backend=backend, timeout_s=0.05
                )),
            ).run()
        # The serial backend checks between chunks: the first trial ran.
        assert excinfo.value.done < excinfo.value.total == 4

    def test_process_pool_raises_at_the_deadline_and_kills_workers(self):
        import multiprocessing
        import time

        started = time.perf_counter()
        with pytest.raises(CampaignTimeout) as excinfo:
            Campaign(
                sleeping_trial, 4, 0,
                plan=RunPlan(executor=ExecutorConfig(
                    workers=2, backend="process", timeout_s=0.3
                )),
            ).run()
        assert time.perf_counter() - started < 0.6
        assert excinfo.value.done == 0
        assert multiprocessing.active_children() == []

    def test_thread_pool_raises_at_the_deadline_and_drops_late_results(
        self, tmp_path
    ):
        import time

        from repro.store import ResultStore

        hung = HungUntilReleased()
        store = ResultStore(tmp_path / "store")
        started = time.perf_counter()
        try:
            with pytest.raises(CampaignTimeout):
                Campaign(
                    hung, 4, 0,
                    plan=RunPlan(
                        executor=ExecutorConfig(
                            workers=2, backend="thread", timeout_s=0.3
                        ),
                        store=store,
                    ),
                ).run()
            assert time.perf_counter() - started < 0.6
        finally:
            hung.release.set()
        deadline = time.perf_counter() + 5.0
        while len(hung.finished) < 2 and time.perf_counter() < deadline:
            time.sleep(0.01)
        # The two running trials finished after the raise; nothing
        # harvested them, so the store holds no record of either.
        assert sorted(hung.finished) == [0, 1]
        assert store.stats().n_entries == 0

    def test_fail_fast_does_not_wait_for_running_trials(self):
        import threading
        import time

        release = threading.Event()

        def trial(trial_index, seed):
            if trial_index == 0:
                raise RuntimeError("boom")
            release.wait(5.0)
            return {"x": 1.0}

        started = time.perf_counter()
        try:
            with pytest.raises(CampaignError):
                Campaign(
                    trial, 2, 0,
                    plan=RunPlan(executor=ExecutorConfig(
                        workers=2, backend="thread", fail_fast=True
                    )),
                ).run()
            assert time.perf_counter() - started < 0.6
        finally:
            release.set()


class TestExports:
    def test_sim_exports_campaign_api(self):
        for name in (
            "Campaign", "CampaignError", "CampaignResult", "CampaignTimeout",
            "ExecutorConfig", "TrialFailure",
            "stderr_ticker", "trial_seed", "TrialFn", "MetricDict",
        ):
            assert name in sim.__all__
            assert hasattr(sim, name)
        assert not hasattr(sim, "run_trials_parallel")

    def test_top_level_exports_campaign_api(self):
        for name in ("Campaign", "ExecutorConfig", "TrialFailure"):
            assert name in repro.__all__
            assert hasattr(repro, name)
        assert "run_trials_parallel" not in repro.__all__


class TestCLIParallel:
    """`--workers` must not change any reported number."""

    ARGS = ["tables", "--n-tags", "300", "--trials", "2", "--ranges", "4", "6"]

    def test_tables_parallel_output_matches_serial(self, capsys):
        from repro.experiments.cli import main

        assert main(self.ARGS) == 0
        serial_out = capsys.readouterr().out
        assert main(self.ARGS + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert "Table IV" in serial_out

    def test_workers_flags_parsed(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            ["tables", "--workers", "4", "--backend", "thread", "--progress"]
        )
        assert args.workers == 4
        assert args.backend == "thread"
        assert args.progress is True
