"""Campaign-level memoization: hits, invalidation, crash-resume, CLI.

The trial classes here are module-level frozen dataclasses so they are
picklable (process backend) and reconstructable by ``cache verify``
(``tests.test_cache_campaign.FlakyTrial`` is importable because the
``tests`` package sits on ``sys.path`` under pytest).  Fault injection
goes through the module-level ``FLAKY_FAIL`` dict rather than a
dataclass field, so a faulted run and its clean resume share the exact
same cache keys.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import textwrap
from dataclasses import asdict, dataclass

import pytest

from repro.experiments.cli import main
from repro.obs.metrics import use_registry
from repro.sim.parallel import (
    Campaign,
    CampaignError,
    ExecutorConfig,
    stderr_ticker,
)
from repro.sim.plan import RunPlan
from repro.sim.runner import run_trials
from repro.store import CampaignCheckpoint, ResultStore, campaign_key, digest
from repro.store.cache import trial_config_of
from repro.store.fingerprint import code_fingerprint

FLAKY_FAIL = {"at": None}


@dataclass(frozen=True)
class FlakyTrial:
    """Deterministic synthetic trial with out-of-band fault injection."""

    width: float = 2.0

    def __call__(self, trial_index, seed):
        if FLAKY_FAIL["at"] == trial_index:
            raise RuntimeError(f"injected fault at trial {trial_index}")
        h = int(
            hashlib.sha256(f"{trial_index}:{seed}".encode()).hexdigest()[:12],
            16,
        )
        return {
            "value": h / 2**48 * self.width,
            "weight": float(trial_index + 1),
        }


@pytest.fixture(autouse=True)
def _no_injected_faults():
    FLAKY_FAIL["at"] = None
    yield
    FLAKY_FAIL["at"] = None


def _agg_digest(aggregates):
    return digest({name: asdict(agg) for name, agg in aggregates.items()})


# -- read-through / write-through ---------------------------------------------


class TestMemoization:
    def test_second_run_is_all_hits_and_bit_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        uncached = Campaign(FlakyTrial(), 5, 42).run()
        first = Campaign(FlakyTrial(), 5, 42, plan=RunPlan(store=store)).run()
        second = Campaign(FlakyTrial(), 5, 42, plan=RunPlan(store=store)).run()
        assert first.cache_hits == 0
        assert first.n_computed == 5
        assert second.cache_hits == 5
        assert second.n_computed == 0
        # bit-identical, cache off / cold / hot
        assert first.aggregates == uncached.aggregates
        assert second.aggregates == uncached.aggregates
        assert second.per_trial == first.per_trial
        assert store.stats().n_entries == 5

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_hits_serve_every_backend(self, tmp_path, backend):
        store = ResultStore(tmp_path)
        baseline = Campaign(FlakyTrial(), 4, 7, plan=RunPlan(store=store)).run()
        cfg = (
            ExecutorConfig.serial()
            if backend == "serial"
            else ExecutorConfig(workers=2, backend=backend)
        )
        warm = Campaign(FlakyTrial(), 4, 7, plan=RunPlan(executor=cfg, store=store)).run()
        assert warm.cache_hits == 4
        assert warm.aggregates == baseline.aggregates

    def test_partial_warm_store_computes_only_the_rest(self, tmp_path):
        store = ResultStore(tmp_path)
        Campaign(FlakyTrial(), 3, 7, plan=RunPlan(store=store)).run()
        grown = Campaign(FlakyTrial(), 6, 7, plan=RunPlan(store=store)).run()
        assert grown.cache_hits == 3
        assert grown.n_computed == 3
        assert grown.aggregates == Campaign(FlakyTrial(), 6, 7).run().aggregates

    def test_run_trials_path_uses_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_trials(FlakyTrial(), 4, 3, plan=RunPlan(store=store))
        warm = run_trials(FlakyTrial(), 4, 3, plan=RunPlan(store=store))
        plain = run_trials(FlakyTrial(), 4, 3)
        assert cold == warm == plain
        assert store.stats().n_entries == 4

    def test_obs_counters_track_hits_and_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        with use_registry() as reg:
            Campaign(FlakyTrial(), 3, 1, plan=RunPlan(store=store)).run()
            Campaign(FlakyTrial(), 3, 1, plan=RunPlan(store=store)).run()
        assert reg.counter("campaign_cache_campaigns_total").value == 2.0
        assert reg.counter("campaign_cache_misses_total").value == 3.0
        assert reg.counter("campaign_cache_hits_total").value == 3.0

    def test_retried_successes_are_not_cached(self, tmp_path):
        # A trial that succeeds only on a retry ran under a retry seed,
        # which is not the seed named in its content address.
        store = ResultStore(tmp_path)
        FLAKY_FAIL["at"] = 1
        flaked = Campaign(
            FlakyTrial(),
            3,
            5,
            plan=RunPlan(
                executor=ExecutorConfig.serial(max_retries=0), store=store
            ),
        ).run()
        assert [f.trial_index for f in flaked.failures] == [1]
        assert store.stats().n_entries == 2  # trials 0 and 2 only
        FLAKY_FAIL["at"] = None
        healed = Campaign(FlakyTrial(), 3, 5, plan=RunPlan(store=store)).run()
        assert healed.cache_hits == 2
        assert healed.ok


# -- invalidation -------------------------------------------------------------


class TestInvalidation:
    def test_changed_config_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        Campaign(FlakyTrial(width=2.0), 3, 1, plan=RunPlan(store=store)).run()
        other = Campaign(FlakyTrial(width=3.0), 3, 1, plan=RunPlan(store=store)).run()
        assert other.cache_hits == 0
        assert store.stats().n_entries == 6

    def test_changed_seed_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        Campaign(FlakyTrial(), 3, 1, plan=RunPlan(store=store)).run()
        other = Campaign(FlakyTrial(), 3, 2, plan=RunPlan(store=store)).run()
        assert other.cache_hits == 0

    def test_changed_engine_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        config = {"type": "probe.EngineProbe", "params": {}}

        def campaign(engine_id):
            def fn(k, seed):
                return {"v": float(seed % 97)}

            fn.engine = engine_id
            fn.cache_config = lambda: config
            return Campaign(fn, 3, 7, plan=RunPlan(store=store)).run()

        assert campaign("reference").cache_hits == 0
        assert campaign("reference").cache_hits == 3
        assert campaign("packed").cache_hits == 0

    def test_changed_code_fingerprint_misses(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        Campaign(FlakyTrial(), 3, 1, plan=RunPlan(store=store)).run()
        monkeypatch.setattr(
            "repro.store.fingerprint.code_fingerprint",
            lambda packages=None: "deadbeefdeadbeef",
        )
        other = Campaign(FlakyTrial(), 3, 1, plan=RunPlan(store=store)).run()
        assert other.cache_hits == 0

    def test_uncacheable_trial_is_an_error(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="not cacheable"):
            Campaign(lambda k, s: {"v": 1.0}, 2, 0, plan=RunPlan(store=store)).run()

    def test_resume_without_store_is_an_error(self):
        with pytest.raises(ValueError, match="requires a result store"):
            Campaign(FlakyTrial(), 2, 0, plan=RunPlan(resume=True)).run()


# -- crash-resume -------------------------------------------------------------


class TestCrashResume:
    def test_fault_injected_crash_resumes_bit_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        baseline = Campaign(FlakyTrial(), 6, 42).run()

        FLAKY_FAIL["at"] = 3
        with pytest.raises(CampaignError):
            Campaign(
                FlakyTrial(),
                6,
                42,
                plan=RunPlan(
                    executor=ExecutorConfig.serial(fail_fast=True),
                    store=store,
                ),
            ).run()
        # trials 0..2 completed and were written through before the crash
        assert store.stats().n_entries == 3

        FLAKY_FAIL["at"] = None
        resumed = Campaign(
            FlakyTrial(), 6, 42, plan=RunPlan(store=store, resume=True)
        ).run()
        assert resumed.cache_hits == 3
        assert resumed.n_computed == 3
        assert resumed.aggregates == baseline.aggregates
        assert _agg_digest(resumed.aggregates) == _agg_digest(
            baseline.aggregates
        )

    def test_checkpoint_journal_records_completion(self, tmp_path):
        store = ResultStore(tmp_path)
        result = Campaign(FlakyTrial(), 4, 9, plan=RunPlan(store=store)).run()
        key = campaign_key(
            trial_config_of(FlakyTrial()), 4, 9, None, code_fingerprint()
        )
        state = CampaignCheckpoint(store.root, key).load()
        assert state.n_done == 4
        assert state.completed
        assert state.aggregates_digest == _agg_digest(result.aggregates)

    def test_sigkill_resume_bit_identical(self, tmp_path):
        """A literally SIGKILLed campaign resumes to the clean answer."""
        script = tmp_path / "campaign_script.py"
        script.write_text(
            textwrap.dedent(
                """
                import json, os, sys
                from dataclasses import asdict, dataclass

                from repro.sim.parallel import Campaign
                from repro.sim.plan import RunPlan
                from repro.store import ResultStore, digest


                @dataclass(frozen=True)
                class KillerTrial:
                    width: float = 1.5

                    def __call__(self, trial_index, seed):
                        if os.environ.get("KILL_AT") == str(trial_index):
                            os.kill(os.getpid(), 9)
                        return {"v": (seed % 1009) * self.width}


                store = ResultStore(sys.argv[1])
                resume = "--resume" in sys.argv
                result = Campaign(
                    KillerTrial(), 6, 42,
                    plan=RunPlan(store=store, resume=resume),
                ).run()
                print(json.dumps({
                    "hits": result.cache_hits,
                    "digest": digest({
                        n: asdict(a) for n, a in result.aggregates.items()
                    }),
                }))
                """
            ),
            encoding="utf-8",
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def run_script(cache_dir, *extra, kill_at=None):
            run_env = dict(env)
            if kill_at is not None:
                run_env["KILL_AT"] = str(kill_at)
            return subprocess.run(
                [sys.executable, str(script), str(cache_dir), *extra],
                capture_output=True,
                text=True,
                env=run_env,
            )

        killed = run_script(tmp_path / "cache", kill_at=4)
        assert killed.returncode in (-9, 137), killed.stderr

        resumed = run_script(tmp_path / "cache", "--resume")
        assert resumed.returncode == 0, resumed.stderr
        resumed_out = json.loads(resumed.stdout)
        assert resumed_out["hits"] == 4  # trials 0..3 survived the kill

        clean = run_script(tmp_path / "fresh_cache")
        assert clean.returncode == 0, clean.stderr
        clean_out = json.loads(clean.stdout)
        assert clean_out["hits"] == 0
        assert resumed_out["digest"] == clean_out["digest"]


# -- verify against a real campaign store -------------------------------------


class TestVerifyCampaignStore:
    def test_verify_passes_on_campaign_results(self, tmp_path):
        store = ResultStore(tmp_path)
        Campaign(FlakyTrial(), 4, 11, plan=RunPlan(store=store)).run()
        outcomes = store.verify()
        assert len(outcomes) == 4
        assert all(o.ok for o in outcomes), [o.reason for o in outcomes]

    def test_cli_verify_passes(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        Campaign(FlakyTrial(), 3, 11, plan=RunPlan(store=store)).run()
        code = main(["cache", "verify", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "3/3" in capsys.readouterr().out


# -- ticker -------------------------------------------------------------------


class TestTickerHitReporting:
    def test_summary_separates_hits_from_computed(self, tmp_path):
        store = ResultStore(tmp_path)
        Campaign(FlakyTrial(), 3, 1, plan=RunPlan(store=store)).run()
        out = io.StringIO()
        Campaign(
            FlakyTrial(),
            3,
            1,
            plan=RunPlan(store=store),
            on_trial_done=stderr_ticker(3, stream=out),
        ).run()
        assert "done: 3 ok (3 hit, 0 computed), 0 failed" in out.getvalue()

    def test_cache_free_summary_keeps_historical_text(self):
        out = io.StringIO()
        Campaign(
            FlakyTrial(), 2, 1, on_trial_done=stderr_ticker(2, stream=out)
        ).run()
        text = out.getvalue()
        assert "done: 2 ok, 0 failed" in text
        assert "hit" not in text

    def test_three_argument_callbacks_still_work(self, tmp_path):
        store = ResultStore(tmp_path)
        Campaign(FlakyTrial(), 2, 1, plan=RunPlan(store=store)).run()
        seen = []
        Campaign(
            FlakyTrial(),
            2,
            1,
            plan=RunPlan(store=store),
            on_trial_done=lambda k, s, m: seen.append(k),
        ).run()
        assert sorted(seen) == [0, 1]


# -- the CLI flags and cache subcommands --------------------------------------


class TestCliCacheFlags:
    FIG3 = ["fig3", "--n-tags", "400", "--trials", "1", "--ranges", "6", "10"]

    def test_cache_dir_populates_and_serves(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main([*self.FIG3, "--cache-dir", str(cache)]) == 0
        n_after_first = ResultStore(cache).stats().n_entries
        assert n_after_first == 2  # two ranges x one trial
        first_out = capsys.readouterr().out
        assert main([*self.FIG3, "--cache-dir", str(cache)]) == 0
        second_out = capsys.readouterr().out
        assert ResultStore(cache).stats().n_entries == n_after_first
        # identical rendered report from the cached run
        assert second_out == first_out

    def test_no_cache_wins(self, tmp_path):
        cache = tmp_path / "cache"
        assert main([*self.FIG3, "--cache-dir", str(cache), "--no-cache"]) == 0
        assert not (cache / "objects").exists()

    def test_resume_flag_implies_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        main([*self.FIG3, "--cache-dir", str(cache)])
        capsys.readouterr()
        assert main([*self.FIG3, "--cache-dir", str(cache), "--resume"]) == 0
        assert "[cache] resuming from" in capsys.readouterr().err

    def test_cache_stats_and_ls(self, tmp_path, capsys):
        main([*self.FIG3, "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        stats_out = capsys.readouterr().out
        assert "entries:   2" in stats_out
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        ls_out = capsys.readouterr().out
        assert "PaperTrial" in ls_out

    def test_stats_and_ls_count_campaigns_alike(self, tmp_path, capsys):
        """One enumeration behind both commands: a root journal and a
        namespaced one are two campaigns to ``ls`` and ``stats`` alike."""
        import re

        store = ResultStore(tmp_path)
        Campaign(FlakyTrial(), 3, 5, plan=RunPlan(store=store)).run()
        Campaign(
            FlakyTrial(), 2, 6,
            plan=RunPlan(store=store, checkpoint_namespace="jobs/j1"),
        ).run()
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        listed = re.search(r"campaigns \((\d+)\)", capsys.readouterr().out)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        stated = re.search(r"campaigns: (\d+)", capsys.readouterr().out)
        assert (int(listed.group(1)), int(stated.group(1))) == (2, 2)
        assert [ns for ns, _ in store.journals()] == [None, "jobs/j1"]

    def test_cache_stats_json(self, tmp_path, capsys):
        main([*self.FIG3, "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        target = tmp_path / "stats.json"
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path),
             "--json", str(target)]
        ) == 0
        data = json.loads(target.read_text(encoding="utf-8"))
        assert data["n_entries"] == 2

    def test_cache_gc(self, tmp_path, capsys):
        main([*self.FIG3, "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(
            ["cache", "gc", "--cache-dir", str(tmp_path), "--older-than", "0"]
        ) == 0
        assert "removed 2" in capsys.readouterr().out
        assert ResultStore(tmp_path).stats().n_entries == 0

    def test_cache_gc_requires_criteria(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "gc", "--cache-dir", str(tmp_path)])


# -- pre-binary store files are inert -----------------------------------------


def _demote_to_json(store):
    """Rewrite objects as legacy ``.json``, as a pre-binary store had them.

    What a store written before the binary format looks like: same keys,
    same records, canonical-JSON payloads.
    """
    from repro.store.binary import read_record_path
    from repro.store.canonical import canonical_json

    demoted = 0
    for path in sorted(store.objects_dir.glob("*/*.bin")):
        record, _ = read_record_path(path)
        path.with_suffix(".json").write_text(
            canonical_json(record) + "\n", encoding="utf-8"
        )
        path.unlink()
        demoted += 1
    return demoted


def _demote_journals(store):
    """Rewrite every checkpoint journal as legacy NDJSON."""
    from repro.store.binary import load_journal
    from repro.store.canonical import canonical_json

    demoted = 0
    for path in sorted(store.campaigns_dir.rglob("*.binj")):
        events, _ = load_journal(path)
        path.with_suffix(".ndjson").write_text(
            "".join(canonical_json(e) + "\n" for e in events),
            encoding="utf-8",
        )
        path.unlink()
        demoted += 1
    return demoted


def _demote_job_records(store):
    """Rewrite every serve job record as a pre-binary JSON document."""
    from repro.store.binary import read_record_path

    demoted = 0
    for path in sorted(store.jobs_dir.glob("*.bin")):
        record, _ = read_record_path(path)
        path.with_suffix(".json").write_text(
            json.dumps(record), encoding="utf-8"
        )
        path.unlink()
        demoted += 1
    return demoted


class TestLegacyFilesAreInert:
    def test_legacy_files_are_inert(self, tmp_path, capsys):
        """A pre-binary store's objects, journals and job records are not
        records: no path reads, counts or touches them, and a rerun over
        them recomputes the fresh store's aggregates bit-identically."""
        from repro.serve import JobManager, JobSpec
        from repro.serve.jobs import JOB_SCHEMA
        from repro.sim.plan import PLAN_SCHEMA

        fresh = Campaign(
            FlakyTrial(), 6, 42, plan=RunPlan(store=ResultStore(tmp_path / "fresh"))
        ).run()

        root = tmp_path / "legacy"
        store = ResultStore(root)
        Campaign(FlakyTrial(), 6, 42, plan=RunPlan(store=store)).run()
        # never started: the job stays queued, as a drained server leaves it
        JobManager(store).submit(JobSpec.from_json({
            "schema": JOB_SCHEMA,
            "kind": "campaign",
            "trial": {"type": f"{__name__}.FlakyTrial", "params": {}},
            "n_trials": 3,
            "base_seed": 7,
            "plan": {"schema": PLAN_SCHEMA},
        }))
        assert _demote_to_json(store) == 6
        assert _demote_journals(store) == 1
        assert _demote_job_records(store) == 1
        legacy = {
            path: path.read_bytes()
            for path in root.rglob("*")
            if path.suffix in (".json", ".ndjson")
        }
        assert len(legacy) == 8

        cache_dir = ["--cache-dir", str(root)]
        assert main(["cache", "stats", *cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:   0" in out and "campaigns: 0" in out
        assert main(["cache", "ls", *cache_dir]) == 0
        out = capsys.readouterr().out
        assert "(no entries)" in out and "campaigns (" not in out
        assert main(["cache", "verify", *cache_dir]) == 0
        assert "no entries to check" in capsys.readouterr().out
        assert main(["cache", "gc", "--older-than", "0", *cache_dir]) == 0
        assert "removed 0 entries" in capsys.readouterr().out
        assert JobManager(store).recover() == []

        rerun = Campaign(FlakyTrial(), 6, 42, plan=RunPlan(store=store)).run()
        assert rerun.cache_hits == 0
        assert rerun.aggregates == fresh.aggregates
        assert _agg_digest(rerun.aggregates) == _agg_digest(fresh.aggregates)
        assert {path: path.read_bytes() for path in legacy} == legacy
