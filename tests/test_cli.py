"""Tests for the CLI (fast paths only; sweeps are covered by benchmarks)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tables_parses(self):
        args = build_parser().parse_args(["tables"])
        assert args.command == "tables"

    def test_fig2_deep_flag(self):
        args = build_parser().parse_args(["fig2", "--deep", "--scale", "0.5"])
        assert args.deep and args.scale == 0.5

    def test_cell_options(self):
        args = build_parser().parse_args([
            "cell", "--queue", "marking", "--variant", "dctcp",
            "--target-delay-us", "120",
        ])
        assert args.queue == "marking"
        assert args.variant == "dctcp"
        assert args.target_delay_us == 120.0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_sweep_options_parse(self):
        args = build_parser().parse_args([
            "sweep", "--deep", "--jobs", "4", "--cache-dir", "/tmp/c",
            "--resume", "--limit", "3", "--manifest", "m.json",
        ])
        assert args.command == "sweep"
        assert args.deep and args.jobs == 4 and args.resume
        assert args.cache_dir == "/tmp/c"
        assert args.limit == 3 and args.manifest == "m.json"

    def test_fig_jobs_flag_parses(self):
        args = build_parser().parse_args(["fig3", "--jobs", "2"])
        assert args.jobs == 2


class TestUnwritableOutput:
    """Every file-writing verb shares one guard: exit 1 and
    ``error: cannot write``, never a traceback after the work is done."""

    def test_fig1_svg(self, tmp_path, capsys):
        dest = str(tmp_path / "no" / "such" / "dir" / "x.svg")
        assert main(["fig1", "--scale", "0.03125", "--svg", dest]) == 1
        assert f"error: cannot write {dest}" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["fig2", "fig3", "fig4"])
    def test_sweep_figure_svg(self, verb, tmp_path, capsys, monkeypatch):
        import repro.cli
        import repro.plotting

        # The sweep itself is not under test: stub it out.
        monkeypatch.setattr(repro.cli, "fig2_runtime", lambda *a, **k: None)
        monkeypatch.setattr(repro.cli, "fig3_throughput", lambda *a, **k: None)
        monkeypatch.setattr(repro.cli, "fig4_latency", lambda *a, **k: None)
        monkeypatch.setattr(repro.cli, "render_figure", lambda fig: "(figure)")
        monkeypatch.setattr(repro.plotting, "figure_to_svg",
                            lambda fig: "<svg/>")
        dest = str(tmp_path / "no" / "such" / "dir" / "x.svg")
        assert main([verb, "--quiet", "--svg", dest]) == 1
        assert f"error: cannot write {dest}" in capsys.readouterr().err
        ok = tmp_path / "x.svg"
        assert main([verb, "--quiet", "--svg", str(ok)]) == 0
        assert ok.read_text() == "<svg/>"
        assert f"wrote {ok}" in capsys.readouterr().err

    def test_json_manifest(self, tmp_path, capsys):
        dest = str(tmp_path / "no" / "such" / "dir" / "cell.json")
        assert main(["cell", "--scale", "0.03125", "--json", dest]) == 1
        assert f"error: cannot write {dest}" in capsys.readouterr().err


class TestSweepErrors:
    def test_resume_requires_cache_dir(self, capsys):
        assert main(["sweep", "--resume"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, capsys):
        assert main(["sweep", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_limit_must_be_positive(self, capsys):
        assert main(["sweep", "--limit", "0"]) == 2
        assert "--limit" in capsys.readouterr().err

    def test_fig_jobs_must_be_positive(self, capsys):
        assert main(["fig2", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_cache_dir_collision_with_file(self, tmp_path, capsys):
        f = tmp_path / "a-file"
        f.write_text("x")
        rc = main(["sweep", "--limit", "1", "--cache-dir", str(f)])
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err


class TestSweepRuns:
    def test_sweep_limit_jobs_and_resume(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        manifest = tmp_path / "sweep.json"
        base = ["sweep", "--limit", "2", "--jobs", "2",
                "--scale", "0.03125", "--quiet",
                "--cache-dir", cache_dir, "--manifest", str(manifest)]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 cached" in out

        import json

        doc = json.loads(manifest.read_text())
        assert doc["kind"] == "sweep"
        assert doc["jobs"] == 2
        assert len(doc["cells"]) == 2
        assert len(doc["executed"]) == 2 and doc["cached"] == []

        # Immediate re-run with --resume executes zero cells.
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 cached" in out


class TestCommands:
    def test_tables_output(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "TABLE II" in out
        assert "ECN-Echo flag" in out

    def test_cell_droptail_tiny(self, capsys):
        rc = main(["cell", "--queue", "droptail", "--variant", "newreno",
                   "--scale", "0.03125"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "runtime" in out
        assert "tput/node" in out

    def test_cell_marking_tiny(self, capsys):
        rc = main(["cell", "--queue", "marking", "--variant", "dctcp",
                   "--target-delay-us", "100", "--scale", "0.03125"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "marking" in out


class TestCacheVerb:
    @staticmethod
    def _seed(tmp_path, n=2):
        """A cache directory with ``n`` synthetic 2h-old entries."""
        import json
        import os
        import time

        from repro.experiments.cache import CACHE_SCHEMA, ResultCache

        cache_dir = str(tmp_path / "cache")
        ResultCache(cache_dir)  # creates the directory
        old = time.time() - 7200
        for i in range(n):
            key = f"{i:064x}"
            path = os.path.join(cache_dir, key + ".json")
            with open(path, "w") as fh:
                json.dump({"schema": CACHE_SCHEMA, "key": key,
                           "label": f"cell-{i}"}, fh)
            os.utime(path, (old, old))
        return cache_dir

    def test_prune_dry_run_counts_entries_once(self, tmp_path, capsys):
        """Regression: with --dry-run nothing is deleted, so the doomed
        entries must not be double-counted in the 'X of N' total."""
        cache_dir = self._seed(tmp_path, 2)
        assert main(["cache", "--cache-dir", cache_dir,
                     "--prune-age", "1", "--dry-run"]) == 0
        assert "would prune 2 of 2 entries" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", cache_dir,
                     "--prune-age", "1"]) == 0
        assert "pruned 2 of 2 entries" in capsys.readouterr().out

    def test_missing_cache_dir_is_an_error_and_is_not_created(
            self, tmp_path, capsys):
        """Regression: an inspection verb must not create state — a typo'd
        --cache-dir used to be created and reported as empty, exit 0."""
        typo = tmp_path / "nope"
        for extra in ([], ["--stats"], ["--prune-age", "1"]):
            assert main(["cache", "--cache-dir", str(typo)] + extra) == 2
            assert "no such cache directory" in capsys.readouterr().err
        assert not typo.exists()


class TestTelemetryVerbs:
    def test_trace_parses_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.kinds == "drop,mark,deliver"
        assert args.out == "trace.jsonl"
        assert args.queue_interval_us is None

    def test_cell_json_stdout(self, capsys):
        import json

        rc = main(["cell", "--json", "--scale", "0.03125"])
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["schema"] == "repro.run_manifest/v1"
        assert manifest["config"]["queue"]["kind"] == "red"
        assert manifest["timings"]["events"] > 0

    def test_cell_json_to_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "manifest.json"
        rc = main(["cell", "--json", str(path), "--scale", "0.03125"])
        assert rc == 0
        capsys.readouterr()
        with open(path) as fh:
            assert json.load(fh)["kind"] == "cell"

    def test_profile_text(self, capsys):
        rc = main(["profile", "--scale", "0.03125"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events/sec" in out
        assert "heap high-water" in out
        assert "hottest callback categories" in out

    def test_profile_json(self, capsys):
        import json

        rc = main(["profile", "--scale", "0.03125", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["events"] > 0
        assert report["heap_high_water"] > 0
        assert report["categories"]

    def test_trace_writes_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        rc = main(["trace", "--scale", "0.03125",
                   "--target-delay-us", "50", "--kinds", "drop,mark,deliver",
                   "--out", str(path)])
        assert rc == 0
        capsys.readouterr()
        kinds = set()
        with open(path) as fh:
            for line in fh:
                row = json.loads(line)
                assert {"t", "kind", "where"} <= set(row)
                kinds.add(row["kind"])
        assert kinds == {"drop", "mark", "deliver"}

    def test_trace_empty_kinds_rejected(self, capsys):
        rc = main(["trace", "--kinds", " , "])
        assert rc == 2
        assert "at least one event kind" in capsys.readouterr().err


class TestBenchVerb:
    """``bench`` is a thin verb over ``benchmarks/suite``: it declares
    ``--out`` and ``--compare`` and passes everything else on."""

    SUITE_ARGS = ["--workload", "shuffle-bulk", "--seed", "1",
                  "--seconds", "3"]

    @staticmethod
    def _captured(monkeypatch, code=0):
        """Stub ``subprocess.run(argv)``; returns the list of argvs seen."""
        import subprocess
        import types

        calls = []
        done = types.SimpleNamespace(returncode=code)
        monkeypatch.setattr(subprocess, "run",
                            lambda argv: calls.append(argv) or done)
        return calls

    def test_parser_declares_only_out_and_compare(self):
        parser = build_parser()
        args = parser.parse_args(["bench"])
        assert set(vars(args)) == {"command", "handler", "out", "compare"}
        assert args.out is None and args.compare is None
        assert parser.parse_args(["bench", "--out", "X"]).out == "X"
        assert parser.parse_args(
            ["bench", "--compare", "a.json", "b.json"]
        ).compare == ["a.json", "b.json"]
        # The suite's options are not this parser's: left over, in order.
        args, extra = parser.parse_known_args(["bench"] + self.SUITE_ARGS)
        assert extra == self.SUITE_ARGS and args.out is None

    def test_other_verbs_still_reject_unknown_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--seconds", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seconds 3" in capsys.readouterr().err

    @pytest.mark.parametrize("code", [0, 1])
    def test_runs_the_suite_and_returns_its_exit_code(self, code, monkeypatch):
        import pathlib
        import re
        import sys

        import repro.cli

        calls = self._captured(monkeypatch, code)
        assert main(["bench"] + self.SUITE_ARGS) == code
        (argv,) = calls
        root = pathlib.Path(repro.cli.__file__).resolve().parents[2]
        assert argv[:3] == [sys.executable,
                            str(root / "benchmarks" / "suite" / "run.py"),
                            "--out"]
        assert re.fullmatch(
            re.escape(str(root / "benchmarks")) + r"/BENCH_\d{8}-\d{6}\.json",
            argv[3])
        assert argv[4:] == self.SUITE_ARGS

    def test_relative_out_is_resolved_against_the_callers_cwd(
            self, tmp_path, monkeypatch):
        calls = self._captured(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--seed", "7", "--out", "sub/b.json"]) == 0
        assert calls[0][2:] == ["--out", str(tmp_path / "sub" / "b.json"),
                                "--seed", "7"]

    def test_without_a_checkout_exits_2_naming_what_is_missing(
            self, tmp_path, monkeypatch, capsys):
        import repro.cli

        # What an installed wheel looks like: no benchmarks/ two levels up.
        monkeypatch.setattr(repro.cli, "__file__",
                            str(tmp_path / "src" / "repro" / "cli.py"))
        assert main(["bench"]) == 2
        assert main(["bench", "--compare", "a.json", "b.json"]) == 2
        err = capsys.readouterr().err
        assert "needs a source checkout" in err
        assert str(tmp_path / "benchmarks" / "suite" / "run.py") in err

    def test_compare_goes_through_the_suites_compare(self, tmp_path, capfd):
        import json

        def result(events_per_s):
            run = {"workload": "shuffle-bulk", "seed": 1, "trace": 0,
                   "metrics": {"setup_s": 0.4, "events_per_s": events_per_s,
                               "cpu_us_per_event": 4.0,
                               "warm_cells_per_s": 6000.0,
                               "peak_rss_mb": 44.0},
                   "attempted": 9, "failed": 0, "sim_digest": "8c20"}
            return {"schema": "repro.suite_result/v1", "seconds": 3.0,
                    "runs": [run]}

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(result(200000.0)))
        b.write_text(json.dumps(result(100000.0)))
        assert main(["bench", "--compare", str(a), str(a)]) == 0
        assert "worse" not in capfd.readouterr().out
        assert main(["bench", "--compare", str(a), str(b)]) == 1
        out = capfd.readouterr().out
        assert "events_per_s" in out and "worse" in out
        assert "identical on 1 of 1 shared seeds" in out


class TestCheckVerb:
    def test_check_parses_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.command == "check"
        assert not hasattr(args, "smoke")  # the CI mode is `smoke check`
        assert args.fuzz == 50 and args.seed == 42
        assert args.checkers == "conservation,queues,tcp,engine"

    def test_unknown_checker_rejected(self, capsys):
        assert main(["check", "--checkers", "conservation,typo"]) == 2
        err = capsys.readouterr().err
        assert "unknown checker" in err and "typo" in err

    def test_empty_checkers_rejected(self, capsys):
        assert main(["check", "--checkers", " , "]) == 2
        assert "at least one checker" in capsys.readouterr().err

    def test_negative_fuzz_rejected(self, capsys):
        assert main(["check", "--fuzz", "-1"]) == 2
        assert "--fuzz" in capsys.readouterr().err

    def test_nonpositive_scale_rejected(self, capsys):
        assert main(["check", "--scale", "0"]) == 2
        assert "--scale" in capsys.readouterr().err

    def test_smoke_json_summary(self, tmp_path, capsys):
        import json

        from repro.validate.smoke import cell_ok

        # The pinned CI gate: `check --smoke` is now `smoke check`.
        path = tmp_path / "smoke.json"
        rc = main(["smoke", "check", "--quiet", "--json", str(path)])
        assert rc == 0
        capsys.readouterr()
        (doc,) = json.loads(path.read_text())["gates"]
        assert doc["ok"] is True
        labels = {c["label"] for c in doc["cells"]}
        assert len(labels) == 5  # the CI subset
        assert all(cell_ok(c) and c["identical_armed_rerun"]
                   for c in doc["cells"])
        assert doc["detail"]["fuzz"]["scenarios_run"] == 10
        assert doc["detail"]["fuzz"]["ok"] is True

        # Full mode keeps --fuzz/--checkers/--json and the same body.
        path = tmp_path / "check.json"
        rc = main(["check", "--fuzz", "2", "--scale", "0.015625", "--quiet",
                   "--json", str(path)])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["ok"] is True
        assert doc["checkers"] == ["conservation", "queues", "tcp", "engine"]
        assert len({c["label"] for c in doc["cells"]}) == 6
        assert all(cell_ok(c) for c in doc["cells"])
        assert doc["detail"]["fuzz"]["scenarios_run"] == 2
        assert doc["detail"]["fuzz"]["ok"] is True


class TestFixedKVerb:
    def test_parses_defaults(self):
        args = build_parser().parse_args(["fixedk"])
        assert args.command == "fixedk"
        assert not hasattr(args, "smoke")  # the CI mode is `smoke fixedk`
        assert args.svg == "fixedk_regime"

    def test_parses_axes_and_sweep_options(self):
        args = build_parser().parse_args([
            "fixedk", "--k-values", "8,32", "--loads", "0.4,0.8",
            "--fanouts", "4", "--jobs", "2", "--cache-dir", "/tmp/c",
            "--resume", "--limit", "3", "--manifest", "m.json",
        ])
        assert args.k_values == "8,32"
        assert args.loads == "0.4,0.8"
        assert args.fanouts == "4"
        assert args.jobs == 2 and args.resume and args.limit == 3

    def test_jobs_must_be_positive(self, capsys):
        assert main(["fixedk", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_resume_requires_cache_dir(self, capsys):
        assert main(["fixedk", "--resume"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_bad_axis_values_rejected(self, capsys):
        assert main(["fixedk", "--k-values", "8,banana"]) == 2
        assert "--k-values" in capsys.readouterr().err

    def test_invalid_grid_cell_rejected(self, capsys):
        # fanout 99 exceeds the default fabric's remote-host pool.
        assert main(["fixedk", "--fanouts", "99"]) == 2
        assert "fanout" in capsys.readouterr().err
