"""Tests for the repro-ccm command-line interface."""

import pytest

from repro.experiments.cli import SCALES, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_presets_exist(self):
        assert set(SCALES) == {"bench", "default", "full"}

    def test_subcommands_registered(self):
        parser = build_parser()
        for name in ("fig3", "fig4", "tables", "theorem1", "accuracy",
                     "analysis", "ablations", "extensions", "statefree",
                     "robustness", "all"):
            args = parser.parse_args([name])
            assert callable(args.func)

    def test_cache_subcommands(self):
        parser = build_parser()
        for name in ("ls", "stats", "verify", "gc"):
            assert callable(parser.parse_args(["cache", name]).func)
        with pytest.raises(SystemExit):
            parser.parse_args(["cache", "migrate"])

    def test_engine_choices_are_run_session_names(self):
        """One engine table: every ``--engine`` offers exactly the names
        ``run_session`` accepts."""
        import argparse

        from repro.core.session import ENGINE_NAMES

        def walk(parser, path):
            for action in parser._actions:
                if "--engine" in action.option_strings:
                    yield path, tuple(action.choices)
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        yield from walk(sub, path + (name,))

        found = dict(walk(build_parser(), ()))
        assert {("tables",), ("profile",), ("robustness",)} <= set(found)
        for path, choices in found.items():
            assert choices == ENGINE_NAMES, path

    def test_scenario_sweep_has_no_engine(self):
        """Scenario trials always run ScenarioSessionEngine, so ``scenario
        sweep`` offers no ``--engine`` to ignore."""
        parser = build_parser()
        args = parser.parse_args(["scenario", "sweep"])
        assert not hasattr(args, "engine")
        for engine in ("bigint", "auto"):
            with pytest.raises(SystemExit):
                parser.parse_args(["scenario", "sweep", "--engine", engine])

    def test_experiment_parser_has_no_trace_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--trace-out", "t.ndjson"])

    def test_overrides_parsed(self):
        args = build_parser().parse_args(
            ["tables", "--n-tags", "500", "--trials", "2",
             "--ranges", "2", "6", "--seed", "9"]
        )
        assert args.n_tags == 500
        assert args.trials == 2
        assert args.ranges == [2.0, 6.0]
        assert args.seed == 9

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--scale", "huge"])


class TestExecution:
    def test_fig3_small(self, capsys):
        code = main(["fig3", "--n-tags", "400", "--trials", "1",
                     "--ranges", "6", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out

    def test_tables_small(self, capsys):
        code = main(["tables", "--n-tags", "400", "--trials", "1",
                     "--ranges", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "GMLE-CCM (measured)" in out

    def test_out_file_appended(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        main(["fig3", "--n-tags", "400", "--trials", "1",
              "--ranges", "6", "--out", str(target)])
        capsys.readouterr()
        assert "Fig. 3" in target.read_text()


class TestRenderCommand:
    def test_render_from_saved_sweep(self, tmp_path, capsys):
        sweep_path = tmp_path / "sweep.json"
        main(["tables", "--n-tags", "400", "--trials", "1",
              "--ranges", "6", "--json", str(sweep_path)])
        capsys.readouterr()
        code = main(["render", "--json", str(sweep_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "**Execution time (total slots)**" in out
        assert "| GMLE-CCM (measured) |" in out

    def test_render_requires_json(self):
        with pytest.raises(SystemExit):
            main(["render"])

    def test_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        main(["tables", "--n-tags", "400", "--trials", "1",
              "--ranges", "6", "--csv", str(csv_path)])
        capsys.readouterr()
        text = csv_path.read_text()
        assert text.startswith("tag_range_m,metric,mean")
        assert "sicp_slots" in text


class TestObservabilityFlags:
    def test_artifact_manifest_written_alongside_json(self, tmp_path, capsys):
        from repro.obs import RunManifest

        sweep_path = tmp_path / "sweep.json"
        main(["tables", "--n-tags", "400", "--trials", "1",
              "--ranges", "6", "--json", str(sweep_path)])
        capsys.readouterr()
        manifest_path = tmp_path / "sweep.manifest.json"
        assert manifest_path.exists()
        manifest = RunManifest.from_json(manifest_path.read_text())
        assert manifest.config["n_tags"] == 400
        assert manifest.elapsed_s > 0

    def test_metrics_out_records_whole_command(self, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "metrics.ndjson"
        main(["fig3", "--n-tags", "200", "--trials", "1",
              "--ranges", "6", "--metrics-out", str(metrics_path)])
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        counters = {
            r["name"]: r["value"] for r in records if r["type"] == "counter"
        }
        assert counters["sweep_points_total"] == 1.0
        spans = {r["path"] for r in records if r["type"] == "span"}
        assert "experiment:fig3" in spans


class TestProfileCommand:
    def test_profile_prints_table_and_writes_artifacts(self, tmp_path, capsys):
        from repro.obs import RunManifest

        metrics_path = tmp_path / "profile.metrics.ndjson"
        manifest_path = tmp_path / "profile.manifest.json"
        trace_path = tmp_path / "profile.trace.ndjson"
        code = main([
            "profile", "--n", "300", "--frame", "64", "--seed", "3",
            "--metrics-out", str(metrics_path),
            "--manifest-out", str(manifest_path),
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase" in out and "self s" in out and "cum s" in out
        assert "session/round/checking" in out
        assert "coverage: root spans account for" in out
        assert metrics_path.read_text().strip()
        manifest = RunManifest.from_json(manifest_path.read_text())
        assert manifest.config == {
            "n_tags": 300, "frame_size": 64, "tag_range_m": 6.0,
            "participation": 1.0, "n_trials": 1, "backend": "serial",
            "workers": 0, "batch": 1,
        }
        assert manifest.extra["rounds"] >= 1
        assert '"kind": "session_end"' in trace_path.read_text()

    def test_profile_phase_totals_near_wall_time(self, tmp_path, capsys):
        import re

        main(["profile", "--n", "2000", "--frame", "333",
              "--metrics-out", str(tmp_path / "m.ndjson"),
              "--manifest-out", str(tmp_path / "m.json")])
        out = capsys.readouterr().out
        match = re.search(r"account for (\d+\.\d)% of", out)
        assert match, out
        assert float(match.group(1)) >= 95.0

    def test_profile_lossy_channel(self, tmp_path, capsys):
        from repro.obs import RunManifest

        manifest_path = tmp_path / "lossy.manifest.json"
        code = main([
            "profile", "--n", "300", "--frame", "64", "--seed", "3",
            "--loss", "0.2",
            "--metrics-out", str(tmp_path / "lossy.metrics.ndjson"),
            "--manifest-out", str(manifest_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "loss=0.2" in out
        assert "session/round/propagate" in out
        assert "transpose_popcount" not in out
        manifest = RunManifest.from_json(manifest_path.read_text())
        assert manifest.config["loss"] == 0.2

    def test_profile_writes_files_only_when_asked(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "--n", "200", "--frame", "32"]) == 0
        assert "written to" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_profile_engine_choices(self, tmp_path, capsys):
        for engine in ("bigint", "packed"):
            code = main([
                "profile", "--n", "200", "--frame", "32", "--engine", engine,
                "--sort", "tree",
                "--metrics-out", str(tmp_path / f"{engine}.ndjson"),
                "--manifest-out", str(tmp_path / f"{engine}.json"),
            ])
            assert code == 0
        out = capsys.readouterr().out
        assert out.count("coverage:") == 2

    @pytest.mark.parametrize("loss", [None, 0.2])
    def test_profile_trace_out_is_trial_zero(self, tmp_path, capsys, loss):
        """``--trace-out`` is trial 0's session, replayed event for event."""
        import numpy as np

        from repro.core.session import CCMConfig, run_session
        from repro.net.channel import LossyChannel
        from repro.net.topology import PaperDeployment, paper_network
        from repro.sim.runner import trial_seed
        from repro.sim.trace import SessionTracer

        n, f, seed = 300, 64, 3
        trace_path = tmp_path / "trace.ndjson"
        main([
            "profile", "--n", str(n), "--frame", str(f), "--seed", str(seed),
            *(["--loss", str(loss)] if loss is not None else []),
            "--metrics-out", str(tmp_path / "m.ndjson"),
            "--manifest-out", str(tmp_path / "m.json"),
            "--trace-out", str(trace_path),
        ])
        network = paper_network(
            6.0, n_tags=n, seed=seed, deployment=PaperDeployment(n_tags=n)
        )
        # Trial 0's generator draws its picks first, then channel losses.
        rng = np.random.default_rng(trial_seed(seed, 0))
        participate = rng.random(n) < 1.0
        picks = np.where(participate, rng.integers(0, f, size=n), -1)
        tracer = SessionTracer()
        run_session(
            network, picks, config=CCMConfig(frame_size=f),
            channel=LossyChannel(loss=loss) if loss else None,
            rng=rng if loss else None, engine="packed", tracer=tracer,
        )
        direct = tmp_path / "direct.ndjson"
        tracer.to_ndjson(direct)
        assert trace_path.read_bytes() == direct.read_bytes()
        assert '"kind": "session_end"' in trace_path.read_text()

    def test_profile_batched_bigint_runs_the_oracle(self, tmp_path, capsys):
        """A batched ``--engine bigint`` campaign runs each trial through
        the oracle (no ``session_batch`` kernel span) and gives the
        packed run's metrics."""
        from repro.experiments.common import SessionBatchTrial
        from repro.obs import RunManifest

        outs, extras = {}, {}
        for engine in ("bigint", "packed"):
            manifest_path = tmp_path / f"{engine}.json"
            assert main([
                "profile", "--n", "300", "--frame", "64", "--trials", "2",
                "--batch", "2", "--engine", engine,
                "--metrics-out", str(tmp_path / f"{engine}.ndjson"),
                "--manifest-out", str(manifest_path),
            ]) == 0
            outs[engine] = capsys.readouterr().out
            extras[engine] = RunManifest.from_json(
                manifest_path.read_text()
            ).extra
        assert "session_batch" not in outs["bigint"]
        assert "campaign/session/round/checking" in outs["bigint"]
        assert "campaign/session_batch/round/checking" in outs["packed"]
        assert extras["bigint"] == extras["packed"]
        trials = {
            engine: SessionBatchTrial(
                tag_range=6.0, n_tags=300, frame_size=64, topology_seed=7,
                engine=engine,
            )
            for engine in ("bigint", "packed")
        }
        assert trials["bigint"].run_batch([0, 1], [11, 12]) == trials[
            "packed"
        ].run_batch([0, 1], [11, 12])

    def test_profile_engine_batch_needs_no_trials(self, tmp_path, capsys):
        """``--engine batch`` is gone (a usage error); ``--batch B`` is
        the one batching knob, and runs without ``--trials``."""
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--engine", "batch"])
        assert exc.value.code == 2
        assert "invalid choice: 'batch'" in capsys.readouterr().err
        code = main([
            "profile", "--n", "400", "--frame", "67", "--batch", "8",
            "--metrics-out", str(tmp_path / "m.ndjson"),
            "--manifest-out", str(tmp_path / "m.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1/1 trials ok" in out
        assert "batch=8" in out
        assert "campaign/session_batch/round/checking" in out

    def test_profile_thread_campaign(self, tmp_path, capsys):
        from repro.obs import RunManifest

        manifest_path = tmp_path / "m.json"
        code = main([
            "profile", "--n", "300", "--frame", "64", "--trials", "4",
            "--workers", "2", "--backend", "thread",
            "--metrics-out", str(tmp_path / "m.ndjson"),
            "--manifest-out", str(manifest_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4/4 trials ok" in out
        assert "campaign/trial/session/round/checking" in out
        assert "worker time: merged per-trial spans" in out
        manifest = RunManifest.from_json(manifest_path.read_text())
        assert manifest.config["n_trials"] == 4
        assert manifest.extra["n_ok"] == 4

    def test_profile_reports_failed_trials(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.common import SessionBatchTrial

        def failing_call(self, trial_index, seed):
            if trial_index in failing:
                raise RuntimeError("injected")
            return self._metrics(self.session(seed))

        monkeypatch.setattr(SessionBatchTrial, "__call__", failing_call)
        argv = [
            "profile", "--n", "300", "--frame", "64", "--trials", "3",
            "--metrics-out", str(tmp_path / "m.ndjson"),
            "--manifest-out", str(tmp_path / "m.json"),
        ]
        failing = {1}
        assert main(argv) == 0
        assert "2/3 trials ok" in capsys.readouterr().out
        failing = {0, 1, 2}
        with pytest.raises(SystemExit, match="trial 0 failed .*injected"):
            main(argv)


class TestScenarioCommand:
    def test_run_static(self, tmp_path, capsys):
        journal = tmp_path / "journal.ndjson"
        code = main([
            "scenario", "run", "--n-tags", "250", "--frame", "83",
            "--operations", "2", "--seed", "3",
            "--journal", str(journal),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trajectory=static" in out
        assert "completion 1.000" in out
        lines = journal.read_text().splitlines()
        assert '"kind":"scenario_start"' in lines[0].replace(" ", "")

    def test_run_uav_with_power(self, capsys):
        code = main([
            "scenario", "run", "--n-tags", "250", "--frame", "83",
            "--operations", "2", "--trajectory", "uav", "--speed", "6",
            "--power-threshold", "-22", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trajectory=uav" in out
        assert "NO" in out  # some operation left sleeping data behind

    def test_sweep_compares_trajectories(self, capsys):
        code = main([
            "scenario", "sweep", "--n-tags", "250", "--frame", "83",
            "--operations", "2", "--trials", "1",
            "--trajectory", "static", "uav", "--speed", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "static" in out and "uav" in out

    def test_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "scenario.metrics.ndjson"
        code = main([
            "scenario", "run", "--n-tags", "200", "--frame", "65",
            "--operations", "1", "--metrics-out", str(metrics),
        ])
        assert code == 0
        capsys.readouterr()
        text = metrics.read_text()
        assert "scenario" in text

    def test_rejects_unknown_trajectory(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "run", "--trajectory", "orbit"])

    def test_rejects_non_finite_gap(self, tmp_path):
        journal = tmp_path / "journal.ndjson"
        with pytest.raises(ValueError, match="op_gap_s must be finite"):
            main([
                "scenario", "run", "--n-tags", "50", "--operations", "2",
                "--gap", "nan", "--journal", str(journal),
            ])
        assert not journal.exists()
