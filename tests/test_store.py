"""Unit tests for the content-addressed result store (repro.store)."""

from __future__ import annotations

import contextlib
import json
import math
import os
import pathlib
import sys
import textwrap
from dataclasses import dataclass

import pytest

from repro.experiments.common import PaperTrial
from repro.store import (
    CampaignCheckpoint,
    ResultStore,
    campaign_key,
    canonical_bytes,
    canonical_json,
    code_fingerprint,
    digest,
    sha256_file,
    trial_config_of,
    trial_key,
)
from repro.store.fingerprint import FINGERPRINT_PACKAGES


# -- canonical JSON -----------------------------------------------------------


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        a = {"b": 1, "a": {"y": 2, "x": 3}}
        b = {"a": {"x": 3, "y": 2}, "b": 1}
        assert canonical_json(a) == canonical_json(b)
        assert digest(a) == digest(b)

    def test_compact_separators_no_whitespace(self):
        assert canonical_json({"a": [1, 2]}) == '{"a":[1,2]}'

    def test_floats_round_trip_exactly(self):
        values = [0.1, 1 / 3, 1e-308, 123456.789, -0.0, 2.0]
        text = canonical_json(values)
        assert json.loads(text) == values
        # bit-exact, not just ==
        for original, loaded in zip(values, json.loads(text)):
            assert math.copysign(1.0, original) == math.copysign(1.0, loaded)
            assert original.hex() == loaded.hex()

    def test_nan_and_infinity_rejected(self):
        for poison in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                canonical_json({"x": poison})

    def test_tuple_serializes_like_list(self):
        assert canonical_json((1, 2, "a")) == canonical_json([1, 2, "a"])
        assert digest({"p": (1, 2)}) == digest({"p": [1, 2]})

    def test_dataclass_serializes_as_object(self):
        trial = PaperTrial(4.0, 100)
        assert json.loads(canonical_json(trial)) == {
            "tag_range": 4.0,
            "n_tags": 100,
            "protocols": ["sicp", "gmle_ccm", "trp_ccm"],
            "engine": "auto",
        }

    def test_path_serializes_as_string(self):
        assert canonical_json(pathlib.PurePosixPath("a/b")) == '"a/b"'

    def test_set_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({1, 2})

    def test_unknown_object_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    def test_digest_is_stable(self):
        # A pinned digest: if this changes, every existing cache key is
        # silently invalidated — bump KEY_SCHEMA instead.
        assert digest({"a": 1.5, "b": [1, 2]}) == (
            "545c159c1248310714b8d6ad270e0be90c383b063604aeb3a677ec4c6755cc4d"
        )

    def test_sha256_file(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"hello")
        assert sha256_file(path) == (
            "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
        )

    def test_canonical_bytes_utf8(self):
        assert canonical_bytes({"k": "π"}) == '{"k":"π"}'.encode("utf-8")


# -- code fingerprint ---------------------------------------------------------


class TestCodeFingerprint:
    def test_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16

    def test_covers_the_simulation_packages(self):
        assert FINGERPRINT_PACKAGES == (
            "repro.core",
            "repro.protocols",
            "repro.net",
            "repro.scenario",
        )

    def test_changes_when_source_changes(self, tmp_path, monkeypatch):
        pkg = tmp_path / "fp_probe_pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("X = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        before = code_fingerprint(("fp_probe_pkg",))
        code_fingerprint.cache_clear()
        (pkg / "__init__.py").write_text("X = 2\n")
        after = code_fingerprint(("fp_probe_pkg",))
        code_fingerprint.cache_clear()
        assert before != after

    def test_changes_when_file_added(self, tmp_path, monkeypatch):
        pkg = tmp_path / "fp_probe_pkg2"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("X = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        before = code_fingerprint(("fp_probe_pkg2",))
        code_fingerprint.cache_clear()
        (pkg / "extra.py").write_text("Y = 1\n")
        after = code_fingerprint(("fp_probe_pkg2",))
        code_fingerprint.cache_clear()
        assert before != after

    def test_covers_channel_rng_contract(self, tmp_path, monkeypatch):
        """Bumping the channel RNG-draw contract version must invalidate
        every cached trial key, even with no fingerprinted source edit —
        pre-contract caches were produced under a different stream."""
        import repro.net.channel as channel_mod

        pkg = tmp_path / "fp_probe_pkg3"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("X = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        before = code_fingerprint(("fp_probe_pkg3",))
        code_fingerprint.cache_clear()
        monkeypatch.setattr(
            channel_mod, "CHANNEL_RNG_CONTRACT", "repro-channel-rng-v2"
        )
        after = code_fingerprint(("fp_probe_pkg3",))
        code_fingerprint.cache_clear()
        assert before != after


# -- trial configs and keys ---------------------------------------------------


@dataclass(frozen=True)
class DescribedTrial:
    """A trial with an explicit cache_config (overrides dataclass path)."""

    scale: float = 1.0

    def cache_config(self):
        return {"params": {"scale": self.scale}}

    def __call__(self, k, seed):  # pragma: no cover - never run here
        return {"v": self.scale}


class TestTrialKeys:
    def test_paper_trial_is_describable(self):
        config = trial_config_of(PaperTrial(6.0, 500, engine="packed"))
        assert config["type"] == "repro.experiments.common.PaperTrial"
        assert config["params"]["tag_range"] == 6.0
        assert config["params"]["engine"] == "packed"

    def test_cache_config_hook_wins(self):
        config = trial_config_of(DescribedTrial(2.0))
        assert config["params"] == {"scale": 2.0}
        assert config["type"].endswith("DescribedTrial")

    def test_closures_are_not_describable(self):
        assert trial_config_of(lambda k, s: {"v": 1.0}) is None

        def plain(k, s):
            return {"v": 1.0}

        assert trial_config_of(plain) is None

    def test_every_key_component_moves_the_key(self):
        config = trial_config_of(PaperTrial(6.0, 500))
        base = trial_key(config, 0, 123, "auto", "f" * 16)
        other_config = trial_config_of(PaperTrial(8.0, 500))
        assert trial_key(other_config, 0, 123, "auto", "f" * 16) != base
        assert trial_key(config, 1, 123, "auto", "f" * 16) != base
        assert trial_key(config, 0, 124, "auto", "f" * 16) != base
        assert trial_key(config, 0, 123, "packed", "f" * 16) != base
        assert trial_key(config, 0, 123, "auto", "e" * 16) != base
        assert trial_key(config, 0, 123, "auto", "f" * 16) == base


# -- the store ----------------------------------------------------------------


def _put_one(store, seed=11, metrics=None, trial=None, index=0):
    trial = trial or PaperTrial(4.0, 60)
    config = trial_config_of(trial)
    key = trial_key(config, index, seed, "auto", code_fingerprint())
    fields = {
        "schema": "repro-trial-key-v1",
        "trial": config,
        "trial_index": index,
        "seed": seed,
        "engine": "auto",
        "code_fingerprint": code_fingerprint(),
    }
    store.put(
        key, fields, metrics or {"x": 0.1, "y": 2.0},
        {"created_utc": "2026-01-01T00:00:00Z"},
    )
    return key


class TestResultStore:
    def test_put_get_round_trip_is_exact(self, tmp_path):
        store = ResultStore(tmp_path)
        metrics = {"x": 1 / 3, "y": 1e-300, "z": 42.0}
        key = _put_one(store, metrics=metrics)
        loaded = store.get(key)
        assert loaded == metrics
        for name in metrics:
            assert loaded[name].hex() == metrics[name].hex()

    def test_missing_key_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("ab" * 32) is None

    def test_put_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _put_one(store)
        path = store.path_for(key)
        before = path.read_bytes()
        _put_one(store)
        assert path.read_bytes() == before
        assert store.stats().n_entries == 1

    def test_corrupt_record_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _put_one(store)
        store.path_for(key).write_text("{not json", encoding="utf-8")
        assert store.get(key) is None

    def test_tampered_key_fields_read_as_miss(self, tmp_path):
        from repro.store.binary import (
            RECORD_TYPE_TRIAL,
            encode_record,
            read_record_path,
        )

        store = ResultStore(tmp_path)
        key = _put_one(store)
        path = store.path_for(key)
        record, _ = read_record_path(path)
        record["key_fields"]["seed"] = 999  # key no longer matches fields
        path.write_bytes(encode_record(record, RECORD_TYPE_TRIAL))
        assert store.get(key) is None

    def test_entries_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = {_put_one(store, seed=s) for s in (1, 2, 3)}
        listed = list(store.entries())
        assert {e.key for e in listed} == keys
        stats = store.stats()
        assert stats.n_entries == 3
        assert stats.total_bytes == sum(e.size_bytes for e in listed)
        assert stats.by_trial_type == {
            "repro.experiments.common.PaperTrial": 3
        }
        assert stats.oldest_utc == "2026-01-01T00:00:00Z"

    def test_gc_by_age(self, tmp_path):
        store = ResultStore(tmp_path)
        old_key = _put_one(store, seed=1)
        new_key = _put_one(store, seed=2)
        old_path = store.path_for(old_key)
        stale = os.path.getmtime(old_path) - 10_000
        os.utime(old_path, (stale, stale))
        outcome = store.gc(older_than_s=5_000)
        assert outcome["removed"] == 1
        assert store.get(old_key) is None
        assert store.get(new_key) is not None

    def test_gc_by_size_evicts_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path)
        first = _put_one(store, seed=1)
        second = _put_one(store, seed=2)
        first_path = store.path_for(first)
        older = os.path.getmtime(first_path) - 100
        os.utime(first_path, (older, older))
        keep_bytes = store.path_for(second).stat().st_size
        outcome = store.gc(max_size_bytes=keep_bytes)
        assert outcome["removed"] == 1
        assert store.get(first) is None
        assert store.get(second) is not None

    def test_gc_without_criteria_removes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        _put_one(store)
        assert store.gc() == {"removed": 0, "freed_bytes": 0, "kept": 1}


def _temp_copy(store, key, name=".tmp-123-456.bin"):
    """A complete record under a writer's temp name, as a writer killed
    between its write and its rename leaves it."""
    path = store.path_for(key)
    temp = path.with_name(name)
    temp.write_bytes(path.read_bytes())
    return temp


class TestTempFiles:
    """Writers' temp files are never entries, and gc only removes stale ones."""

    def test_enumeration_skips_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _put_one(store)
        _temp_copy(store, key)
        assert [e.key for e in store.entries()] == [key]
        assert store.stats().n_entries == 1
        assert [o.key for o in store.verify()] == [key]

    def test_a_record_under_another_key_name_is_not_an_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _put_one(store)
        _temp_copy(store, key, name="f" * 64 + ".bin")
        assert [e.key for e in store.entries()] == [key]

    def test_gc_leaves_a_fresh_temp_file_alone(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _put_one(store)
        temp = _temp_copy(store, key)
        outcome = store.gc(older_than_s=0.0, max_size_bytes=0)
        assert outcome == {
            "removed": 1,
            "freed_bytes": temp.stat().st_size,
            "kept": 0,
        }
        assert temp.exists()  # a live writer's rename would still succeed

    def test_gc_removes_stale_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _put_one(store)
        temp = _temp_copy(store, key)
        store.jobs_dir.mkdir(parents=True)
        job_temp = store.jobs_dir / ".tmp-123-456.bin"
        job_temp.write_bytes(b"torn")
        stale = temp.stat().st_mtime - 10_000
        for path in (temp, job_temp):
            os.utime(path, (stale, stale))
        size = temp.stat().st_size + 4
        assert store.gc(older_than_s=5_000) == {
            "removed": 2, "freed_bytes": size, "kept": 1,
        }
        assert not temp.exists() and not job_temp.exists()
        assert store.get(key) is not None

    def test_gc_by_size_ignores_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _put_one(store)
        temp = _temp_copy(store, key)
        stale = temp.stat().st_mtime - 10_000
        os.utime(temp, (stale, stale))
        size = store.path_for(key).stat().st_size
        assert store.gc(max_size_bytes=size)["removed"] == 0
        assert temp.exists()


class TestAtomicWrite:
    def _temps(self, root):
        return [p for p in pathlib.Path(root).rglob("*") if p.name.startswith(".tmp-")]

    def test_writes_and_leaves_no_temp_file(self, tmp_path):
        from repro.store.cache import atomic_write

        target = tmp_path / "a" / "b" / "rec.bin"  # parents made on demand
        atomic_write(target, b"one")
        atomic_write(target, b"two")
        assert target.read_bytes() == b"two"
        assert self._temps(tmp_path) == []

    def test_write_error_leaves_no_temp_file(self, tmp_path, monkeypatch):
        from repro.store.cache import atomic_write

        target = tmp_path / "rec.bin"
        atomic_write(target, b"old")
        with pytest.raises(TypeError):
            atomic_write(target, object())  # fails inside the write
        assert self._temps(tmp_path) == []

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError, match="No space"):
            atomic_write(target, b"new")
        assert self._temps(tmp_path) == []
        assert target.read_bytes() == b"old"

    def test_temp_name_names_the_writer(self, tmp_path, monkeypatch):
        import threading

        from repro.store.cache import atomic_write

        seen = []
        replace = os.replace

        def spy(src, dst):
            seen.append(pathlib.Path(src).name)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        atomic_write(tmp_path / "rec.bin", b"x")
        assert seen == [f".tmp-{os.getpid()}-{threading.get_ident()}.bin"]

    def test_concurrent_puts_of_one_key(self, tmp_path):
        import threading

        store = ResultStore(tmp_path)
        key = _put_one(store)
        path = store.path_for(key)
        record = path.read_bytes()
        path.unlink()
        entry_fields = {
            "schema": "repro-trial-key-v1",
            "trial": trial_config_of(PaperTrial(4.0, 60)),
            "trial_index": 0,
            "seed": 11,
            "engine": "auto",
            "code_fingerprint": code_fingerprint(),
        }
        barrier = threading.Barrier(8)
        errors = []

        def writer():
            try:
                for _ in range(20):
                    barrier.wait(5)
                    store.put(
                        key, entry_fields, {"x": 0.1, "y": 2.0},
                        {"created_utc": "2026-01-01T00:00:00Z"},
                    )
                    barrier.wait(5)
                    with contextlib.suppress(FileNotFoundError):
                        path.unlink()  # every thread writes again next round
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        store.put(
            key, entry_fields, {"x": 0.1, "y": 2.0},
            {"created_utc": "2026-01-01T00:00:00Z"},
        )
        assert path.read_bytes() == record
        assert store.get(key) == {"x": 0.1, "y": 2.0}
        assert self._temps(tmp_path) == []


class TestVerify:
    def test_verify_passes_on_honest_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        trial = PaperTrial(4.0, 60)
        metrics = trial(0, 11)
        _put_one(store, seed=11, metrics=dict(metrics), trial=trial)
        outcomes = store.verify()
        assert len(outcomes) == 1
        assert outcomes[0].ok, outcomes[0].reason

    def test_verify_catches_tampered_metrics(self, tmp_path):
        store = ResultStore(tmp_path)
        trial = PaperTrial(4.0, 60)
        metrics = dict(trial(0, 11))
        metrics["slots_sicp_fake"] = 1.0  # not what the trial computes
        key = _put_one(store, seed=11, metrics=metrics, trial=trial)
        # rewrite the record so the key matches the tampered fields
        # (i.e. an honest key over dishonest metrics)
        [outcome] = store.verify()
        assert outcome.key == key
        assert not outcome.ok
        assert "differ" in outcome.reason

    def test_verify_reports_unreconstructable_trials(self, tmp_path):
        store = ResultStore(tmp_path)
        config = {"type": "no.such.module.Trial", "params": {}}
        key = trial_key(config, 0, 1, None, "0" * 16)
        store.put(
            key,
            {
                "schema": "repro-trial-key-v1",
                "trial": config,
                "trial_index": 0,
                "seed": 1,
                "engine": None,
                "code_fingerprint": "0" * 16,
            },
            {"x": 1.0},
        )
        [outcome] = store.verify()
        assert not outcome.ok
        assert "cannot rebuild" in outcome.reason

    def test_verify_sampling_is_deterministic(self, tmp_path):
        store = ResultStore(tmp_path)
        trial = PaperTrial(4.0, 60)
        for seed in (1, 2, 3, 4):
            _put_one(store, seed=seed, metrics=dict(trial(0, seed)), trial=trial)
        first = [o.key for o in store.verify(sample=2, seed=7)]
        second = [o.key for o in store.verify(sample=2, seed=7)]
        assert first == second
        assert len(first) == 2


# -- campaign checkpoints -----------------------------------------------------


class TestCampaignCheckpoint:
    def test_round_trip(self, tmp_path):
        key = campaign_key({"type": "T", "params": {}}, 4, 0, None, "0" * 16)
        ckpt = CampaignCheckpoint(tmp_path, key)
        ckpt.begin({"n_trials": 4})
        ckpt.record_trial(0, "k0", ok=True, cached=False)
        ckpt.record_trial(1, "k1", ok=False, cached=False)
        ckpt.close()
        state = CampaignCheckpoint(tmp_path, key).load()
        assert state.done == {0: "k0"}  # failures are not "done"
        assert not state.completed

    def test_fresh_begin_truncates_resume_appends(self, tmp_path):
        key = "c" * 64
        ckpt = CampaignCheckpoint(tmp_path, key)
        ckpt.begin({})
        ckpt.record_trial(0, "k0", ok=True, cached=False)
        ckpt.close()
        resumed = CampaignCheckpoint(tmp_path, key)
        prior = resumed.begin({}, resume=True)
        assert prior.n_done == 1
        resumed.record_trial(1, "k1", ok=True, cached=False)
        resumed.complete("digest", 1.0)
        resumed.close()
        state = CampaignCheckpoint(tmp_path, key).load()
        assert state.done == {0: "k0", 1: "k1"}
        assert state.completed
        assert state.aggregates_digest == "digest"
        fresh = CampaignCheckpoint(tmp_path, key)
        assert fresh.begin({}).n_done == 0  # truncating start
        fresh.close()
        assert CampaignCheckpoint(tmp_path, key).load().done == {}

    def test_torn_binary_frame_is_tolerated(self, tmp_path):
        key = "d" * 64
        ckpt = CampaignCheckpoint(tmp_path, key)
        ckpt.begin({})
        ckpt.record_trial(0, "k0", ok=True, cached=False)
        ckpt.close()
        assert ckpt.path.suffix == ".binj"  # binary is the default codec
        with open(ckpt.path, "ab") as fh:
            fh.write(b"\xff\x00\x00\x00partial-frame")  # SIGKILL mid-write
        state = CampaignCheckpoint(tmp_path, key).load()
        assert state.done == {0: "k0"}
        # resuming truncates the torn tail, then appends readable frames
        resumed = CampaignCheckpoint(tmp_path, key)
        prior = resumed.begin({}, resume=True)
        assert prior.n_done == 1
        resumed.record_trial(1, "k1", ok=True, cached=False)
        resumed.close()
        assert CampaignCheckpoint(tmp_path, key).load().done == {
            0: "k0", 1: "k1",
        }

    def test_record_before_begin_raises(self, tmp_path):
        ckpt = CampaignCheckpoint(tmp_path, "e" * 64)
        with pytest.raises(RuntimeError):
            ckpt.record_trial(0, "k", ok=True, cached=False)


# -- the obs.manifest satellites ---------------------------------------------


class TestManifestSatellites:
    def test_manifest_digest_ignores_dict_order(self):
        from repro.obs import RunManifest

        a = RunManifest(seed=1, config={"x": 1, "y": 2.5})
        b = RunManifest(seed=1, config={"y": 2.5, "x": 1})
        assert a.digest() == b.digest()

    def test_write_alongside_records_artifact_hash(self, tmp_path):
        from repro.obs import RunManifest, write_manifest_alongside

        artifact = tmp_path / "out.json"
        artifact.write_text('{"v": 1}', encoding="utf-8")
        path = write_manifest_alongside(artifact, seed=9)
        loaded = RunManifest.from_json(path.read_text(encoding="utf-8"))
        assert loaded.artifact_sha256 == sha256_file(artifact)

    def test_rewrite_same_artifact_overwrites_silently(self, tmp_path, recwarn):
        from repro.obs import write_manifest_alongside

        artifact = tmp_path / "out.json"
        artifact.write_text('{"v": 1}', encoding="utf-8")
        write_manifest_alongside(artifact, seed=1)
        write_manifest_alongside(artifact, seed=2)
        assert not [w for w in recwarn.list if w.category is UserWarning]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.json",
            "out.manifest.json",
        ]

    def test_changed_artifact_warns_and_preserves_old_manifest(self, tmp_path):
        from repro.obs import RunManifest, write_manifest_alongside

        artifact = tmp_path / "out.json"
        artifact.write_text('{"v": 1}', encoding="utf-8")
        write_manifest_alongside(artifact, seed=1)
        artifact.write_text('{"v": 2}', encoding="utf-8")
        with pytest.warns(UserWarning, match="different artifact content"):
            write_manifest_alongside(artifact, seed=2)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "out.json",
            "out.manifest.1.json",
            "out.manifest.json",
        ]
        preserved = RunManifest.from_json(
            (tmp_path / "out.manifest.1.json").read_text(encoding="utf-8")
        )
        assert preserved.seed == 1
        current = RunManifest.from_json(
            (tmp_path / "out.manifest.json").read_text(encoding="utf-8")
        )
        assert current.seed == 2
        assert current.artifact_sha256 == sha256_file(artifact)

    def test_versioned_slots_do_not_collide(self, tmp_path):
        from repro.obs import write_manifest_alongside

        artifact = tmp_path / "out.json"
        for round_no in range(3):
            artifact.write_text(f'{{"v": {round_no}}}', encoding="utf-8")
            if round_no:
                with pytest.warns(UserWarning):
                    write_manifest_alongside(artifact, seed=round_no)
            else:
                write_manifest_alongside(artifact, seed=round_no)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "out.json",
            "out.manifest.1.json",
            "out.manifest.2.json",
            "out.manifest.json",
        ]


# -- fingerprint isolation probe ---------------------------------------------


def test_fingerprint_subprocess_agrees(tmp_path):
    """Two processes over the same tree compute the same fingerprint."""
    import subprocess

    script = textwrap.dedent(
        """
        from repro.store import code_fingerprint
        print(code_fingerprint())
        """
    )
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == code_fingerprint()


# -- the advisory maintenance lock --------------------------------------------


class TestStoreLock:
    """StoreLock guards maintenance (gc/verify) across processes.

    flock conflicts are per open-file-description, so two lock objects
    in one process genuinely contend — no subprocess needed.
    """

    def test_shared_locks_coexist(self, tmp_path):
        store = ResultStore(tmp_path)
        with store.lock().shared(timeout_s=1):
            with store.lock().shared(timeout_s=1):
                pass  # two readers at once is fine

    def test_exclusive_excludes_exclusive(self, tmp_path):
        store = ResultStore(tmp_path)
        with store.lock().exclusive(timeout_s=1):
            with pytest.raises(TimeoutError):
                with store.lock().exclusive(timeout_s=0.2):
                    pass

    def test_exclusive_excludes_shared(self, tmp_path):
        store = ResultStore(tmp_path)
        with store.lock().exclusive(timeout_s=1):
            with pytest.raises(TimeoutError):
                with store.lock().shared(timeout_s=0.2):
                    pass

    def test_shared_excludes_exclusive(self, tmp_path):
        store = ResultStore(tmp_path)
        with store.lock().shared(timeout_s=1):
            with pytest.raises(TimeoutError):
                with store.lock().exclusive(timeout_s=0.2):
                    pass

    def test_lock_released_on_exit(self, tmp_path):
        store = ResultStore(tmp_path)
        with store.lock().exclusive(timeout_s=1):
            pass
        with store.lock().exclusive(timeout_s=0.2):
            pass  # reacquire immediately after release

    def test_gc_serializes_behind_held_lock(self, tmp_path):
        """gc takes the exclusive lock, so a held reader delays it."""
        import threading
        import time as _time

        store = ResultStore(tmp_path)
        _put_one(store)
        started = threading.Event()
        release = threading.Event()
        observed = {}

        def hold_shared():
            with store.lock().shared(timeout_s=1):
                started.set()
                release.wait(5)

        holder = threading.Thread(target=hold_shared)
        holder.start()
        assert started.wait(5)
        t0 = _time.monotonic()
        gc_thread = threading.Thread(
            target=lambda: observed.update(store.gc(older_than_s=0.0))
        )
        gc_thread.start()
        _time.sleep(0.2)
        assert not observed  # gc is blocked behind the shared holder
        release.set()
        holder.join(5)
        gc_thread.join(5)
        assert observed["removed"] == 1
        assert _time.monotonic() - t0 >= 0.2
