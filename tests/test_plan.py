"""RunPlan: the unified execution-options object and its wire schema.

Covers the plan value object itself (validation, ``replace``,
``from_args`` round-trips through the shared CLI argument group), the
``repro-run-plan-v1`` wire schema (``to_json``/``from_json`` round-trip,
strict unknown-key/schema rejection, service-side store substitution)
and the contract of the three campaign entry points: ``plan=`` is the
*only* execution interface — the legacy per-keyword spellings are gone
and now raise ``TypeError``.
"""

from __future__ import annotations

import pytest

import repro.sim as sim
from repro.sim.parallel import Campaign, ExecutorConfig
from repro.sim.plan import (
    PLAN_SCHEMA,
    ObsPlan,
    RunPlan,
    add_execution_arguments,
)
from repro.sim.runner import run_trials, sweep


def counting_trial(trial_index, seed):
    return {"value": float(seed % 997), "index": float(trial_index)}


def assert_same_aggregates(a, b):
    assert sorted(a) == sorted(b)
    for name in a:
        for fld in ("mean", "std", "minimum", "maximum", "count"):
            assert getattr(a[name], fld) == getattr(b[name], fld)


class TestRunPlanObject:
    def test_defaults(self):
        plan = RunPlan()
        assert plan.engine == "auto"
        assert plan.executor is None
        assert plan.store is None
        assert plan.resume is False
        assert plan.batch == 1
        assert plan.obs == ObsPlan()

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunPlan().engine = "packed"

    def test_batch_validated(self):
        with pytest.raises(ValueError, match="batch"):
            RunPlan(batch=0)
        with pytest.raises(ValueError, match="batch"):
            RunPlan(batch=-3)

    def test_engine_validated(self):
        with pytest.raises(ValueError, match="engine"):
            RunPlan(engine="")
        with pytest.raises(ValueError, match="engine"):
            RunPlan(engine=None)

    def test_replace(self):
        plan = RunPlan().replace(engine="packed", batch=8)
        assert plan.engine == "packed"
        assert plan.batch == 8
        assert RunPlan().engine == "auto"  # original untouched

    def test_exported_from_sim(self):
        for name in ("RunPlan", "ObsPlan", "add_execution_arguments"):
            assert name in sim.__all__
            assert hasattr(sim, name)


class TestFromArgs:
    def _parse(self, argv):
        import argparse

        parser = argparse.ArgumentParser()
        add_execution_arguments(parser)
        return parser.parse_args(argv)

    def test_default_namespace_gives_default_plan(self):
        plan = RunPlan.from_args(self._parse([]))
        assert plan == RunPlan()

    def test_workers_and_backend(self):
        plan = RunPlan.from_args(
            self._parse(["--workers", "3", "--backend", "thread"])
        )
        assert plan.executor == ExecutorConfig(workers=3, backend="thread")

    def test_no_workers_means_no_executor(self):
        plan = RunPlan.from_args(self._parse(["--backend", "thread"]))
        assert plan.executor is None

    def test_batch_and_engine(self):
        plan = RunPlan.from_args(
            self._parse(["--batch", "25", "--engine", "packed"])
        )
        assert plan.batch == 25
        assert plan.engine == "packed"

    def test_cache_dir_implies_cache(self, tmp_path):
        plan = RunPlan.from_args(self._parse(["--cache-dir", str(tmp_path)]))
        assert plan.store is not None
        assert str(plan.store.root) == str(tmp_path)

    def test_resume_implies_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        plan = RunPlan.from_args(self._parse(["--resume"]))
        assert plan.resume is True
        assert plan.store is not None

    def test_no_cache_wins(self, tmp_path):
        plan = RunPlan.from_args(
            self._parse(
                ["--cache", "--cache-dir", str(tmp_path), "--resume",
                 "--no-cache"]
            )
        )
        assert plan.store is None
        assert plan.resume is False

    def test_progress_lands_in_obs(self):
        plan = RunPlan.from_args(self._parse(["--progress"]))
        assert plan.obs.progress is True

    def test_partial_namespace_works(self):
        import argparse

        ns = argparse.Namespace(workers=2)
        plan = RunPlan.from_args(ns)
        assert plan.executor == ExecutorConfig(workers=2, backend="process")
        assert plan.batch == 1

    def test_every_cli_subcommand_mounts_the_group(self):
        from repro.experiments.cli import build_parser

        parser = build_parser()
        for cmd in (
            "fig3", "fig4", "tables", "theorem1", "accuracy", "analysis",
            "ablations", "extensions", "statefree", "robustness",
            "estimators", "map", "render", "all",
        ):
            args = parser.parse_args([cmd])
            for dest in (
                "workers", "backend", "batch", "engine", "progress",
                "cache", "no_cache", "cache_dir", "resume",
            ):
                assert hasattr(args, dest), f"{cmd} lacks --{dest}"
            # and the namespace resolves into a plan
            assert RunPlan.from_args(args) == RunPlan()


class TestWireSchema:
    """``repro-run-plan-v1``: to_json/from_json round-trip and strictness."""

    def test_default_plan_round_trips(self):
        doc = RunPlan().to_json()
        assert doc["schema"] == PLAN_SCHEMA
        assert RunPlan.from_json(doc) == RunPlan()

    def test_document_is_canonical_json_able(self):
        from repro.store.canonical import canonical_json

        text = canonical_json(RunPlan(batch=4, engine="packed").to_json())
        assert RunPlan.from_json(text) == RunPlan(batch=4, engine="packed")

    def test_executor_round_trips(self):
        cfg = ExecutorConfig(
            workers=3, backend="thread", chunk_size=2,
            timeout_s=1.5, max_retries=2, fail_fast=True,
        )
        plan = RunPlan.from_json(RunPlan(executor=cfg).to_json())
        assert plan.executor == cfg

    def test_store_round_trips_as_root_path(self, tmp_path):
        from repro.store import ResultStore

        plan = RunPlan(store=ResultStore(tmp_path), resume=True)
        doc = plan.to_json()
        assert doc["store"] == {"root": str(tmp_path)}
        loaded = RunPlan.from_json(doc)
        assert str(loaded.store.root) == str(tmp_path)
        assert loaded.resume is True

    def test_store_override_substitutes_service_store(self, tmp_path):
        from repro.store import ResultStore

        submitted = RunPlan(
            store=ResultStore(tmp_path / "client"), resume=True
        ).to_json()
        service_store = ResultStore(tmp_path / "service")
        plan = RunPlan.from_json(submitted, store=service_store)
        assert plan.store is service_store

    def test_resume_dropped_without_store(self):
        doc = RunPlan().to_json()
        doc["resume"] = True
        assert RunPlan.from_json(doc).resume is False

    def test_checkpoint_namespace_round_trips(self):
        plan = RunPlan(checkpoint_namespace="jobs/abc-123")
        assert RunPlan.from_json(plan.to_json()) == plan

    def test_bad_namespace_rejected(self):
        with pytest.raises(ValueError, match="namespace"):
            RunPlan(checkpoint_namespace="../escape")

    def test_wrong_schema_rejected(self):
        doc = RunPlan().to_json()
        doc["schema"] = "repro-run-plan-v0"
        with pytest.raises(ValueError, match="schema"):
            RunPlan.from_json(doc)

    def test_unknown_keys_rejected(self):
        doc = RunPlan().to_json()
        doc["warp_factor"] = 9
        with pytest.raises(ValueError, match="warp_factor"):
            RunPlan.from_json(doc)

    @pytest.mark.parametrize(
        "patch, field",
        [
            ({"executor": {"wokers": 2}}, "wokers"),
            ({"executor": {"fail_fast": "false"}}, "executor.fail_fast"),
            ({"executor": {"fail_fast": 0}}, "executor.fail_fast"),
            ({"executor": {"workers": True}}, "executor.workers"),
            ({"executor": {"workers": "2"}}, "executor.workers"),
            ({"executor": {"workers": None}}, "executor.workers"),
            ({"executor": {"chunk_size": 2.0}}, "executor.chunk_size"),
            ({"executor": {"timeout_s": True}}, "executor.timeout_s"),
            ({"executor": {"timeout_s": "1"}}, "executor.timeout_s"),
            ({"executor": {"backend": 1}}, "executor.backend"),
            ({"executor": [2]}, "executor"),
            ({"obs": {"progres": True}}, "progres"),
            ({"obs": {"progress": "yes"}}, "obs.progress"),
            ({"obs": {"progress": 1}}, "obs.progress"),
            ({"obs": {"metrics_out": 3}}, "obs.metrics_out"),
            ({"obs": "on"}, "obs"),
            ({"resume": "false"}, "run-plan.resume"),
            ({"batch": True}, "run-plan.batch"),
            ({"batch": "4"}, "run-plan.batch"),
            ({"obs": {"trace_out": "t.ndjson"}}, "trace_out"),
        ],
    )
    def test_mistyped_or_unknown_fields_rejected(self, patch, field):
        doc = {**RunPlan().to_json(), **patch}
        with pytest.raises(ValueError, match=field):
            RunPlan.from_json(doc)

    def test_typed_fields_accept_their_json_types(self):
        doc = {
            "schema": PLAN_SCHEMA,
            "executor": {"workers": 2, "timeout_s": 3, "fail_fast": False},
            "obs": {"metrics_out": None, "progress": True},
            "resume": None,
            "batch": None,
        }
        plan = RunPlan.from_json(doc)
        assert plan.executor == ExecutorConfig(workers=2, timeout_s=3.0)
        assert plan.obs == ObsPlan(progress=True)
        assert (plan.resume, plan.batch) == (False, 1)

    def test_missing_keys_take_defaults(self):
        assert RunPlan.from_json({"schema": PLAN_SCHEMA}) == RunPlan()

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            RunPlan.from_json("[1, 2]")

    def test_obs_round_trips(self):
        plan = RunPlan(obs=ObsPlan(metrics_out="m.json", progress=True))
        assert RunPlan.from_json(plan.to_json()) == plan


class TestPlanOnlyAPI:
    """``plan=`` is the only execution interface; legacy kwargs are gone."""

    N, SEED = 8, 77

    def test_run_trials_plan(self):
        result = run_trials(
            counting_trial, self.N, self.SEED,
            plan=RunPlan(executor=ExecutorConfig.serial()),
        )
        assert result["value"].count == self.N

    def test_run_trials_rejects_legacy_kwargs(self):
        with pytest.raises(TypeError):
            run_trials(
                counting_trial, self.N, self.SEED,
                executor=ExecutorConfig.serial(),
            )

    def test_sweep_plan_and_rejects_legacy(self):
        factory = lambda v: counting_trial  # noqa: E731
        result = sweep(
            "v", [1.0, 2.0], factory, n_trials=3, base_seed=5,
            plan=RunPlan(executor=ExecutorConfig.serial()),
        )
        assert result.values == [1.0, 2.0]
        with pytest.raises(TypeError):
            sweep(
                "v", [1.0], factory, n_trials=3, base_seed=5,
                executor=ExecutorConfig.serial(),
            )

    def test_campaign_rejects_legacy_kwargs(self):
        with pytest.raises(TypeError):
            Campaign(
                counting_trial, self.N, self.SEED,
                executor=ExecutorConfig.serial(),
            )

    def test_campaign_plan_matches_run_trials(self):
        plan = RunPlan(executor=ExecutorConfig.serial())
        direct = run_trials(counting_trial, self.N, self.SEED, plan=plan)
        campaign = Campaign(
            counting_trial, self.N, self.SEED, plan=plan
        ).run()
        assert_same_aggregates(direct, campaign.aggregates)

    def test_run_trials_parallel_plan(self):
        # The former run_trials_parallel wrapper is gone; a campaign run
        # from a plan is what it returned, and n_trials must still count
        # every trial.
        result = Campaign(
            counting_trial, self.N, self.SEED,
            plan=RunPlan(executor=ExecutorConfig.serial()),
        ).run()
        assert result.n_trials == self.N

    def test_campaign_normalizes_plan_fields(self):
        plan = RunPlan(executor=ExecutorConfig.serial())
        campaign = Campaign(counting_trial, 2, 0, plan=plan)
        assert campaign.plan == plan
        assert campaign.plan.executor == plan.executor
        assert Campaign(counting_trial, 2, 0).plan == RunPlan()

    def test_store_in_plan_memoizes(self, tmp_path):
        from repro.store import ResultStore
        from tests.test_cache_campaign import FlakyTrial

        store = ResultStore(tmp_path)
        cold = Campaign(
            FlakyTrial(), 3, 9, plan=RunPlan(store=store)
        ).run()
        warm = Campaign(
            FlakyTrial(), 3, 9, plan=RunPlan(store=store)
        ).run()
        assert cold.cache_hits == 0
        assert warm.cache_hits == 3
        assert warm.aggregates == cold.aggregates

    def test_resume_without_store_keeps_historical_error(self):
        with pytest.raises(ValueError, match="requires a result store"):
            Campaign(
                counting_trial, 2, 0, plan=RunPlan(resume=True)
            ).run()
