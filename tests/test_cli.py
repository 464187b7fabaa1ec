"""Tests for the CLI (fast paths only; sweeps are covered by benchmarks)."""

import pytest

from repro.cli import build_parser, main


def _stub_run_cells(monkeypatch, seen=None):
    """Replace the sweep executor: every cell of the work list "measures"
    runtime, throughput and latency 1.0, and the first label is reported
    to ``progress``; ``seen`` collects each call's progress callback."""
    from types import SimpleNamespace

    import repro.experiments.parallel as parallel

    def fake_run_cells(cells, jobs=1, cache=None, resume=True, progress=None):
        if seen is not None:
            seen.append(progress)
        if progress is not None:
            progress(1, len(cells), cells[0][0])
        flat = SimpleNamespace(runtime=1.0, throughput_per_node=1.0,
                               latency=1.0)
        return parallel.SweepReport(
            results={label: flat for label, _cfg in cells}, jobs=jobs)

    monkeypatch.setattr(parallel, "run_cells", fake_run_cells)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tables_parses(self):
        args = build_parser().parse_args(["tables"])
        assert args.command == "tables"

    def test_fig2_deep_flag(self):
        args = build_parser().parse_args(
            ["grid", "figures", "--axis", "buffer=deep", "--scale", "0.5"])
        assert args.name == "figures" and args.axis == ["buffer=deep"]
        assert args.scale == 0.5

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
            "grid", "paper", "--axis", "buffer=deep", "--jobs", "4",
            "--cache-dir", "/tmp/c", "--resume", "--limit", "3",
            "--manifest", "m.json",
        ])
        assert args.command == "grid" and args.name == "paper"
        assert args.axis == ["buffer=deep"]
        assert args.jobs == 4 and args.resume
        assert args.cache_dir == "/tmp/c"
        assert args.limit == 3 and args.manifest == "m.json"
        assert args.farm is None and args.priority is None

    def test_fig_jobs_flag_parses(self):
        args = build_parser().parse_args(["grid", "figures", "--jobs", "2"])
        assert args.jobs == 2


class TestReport:
    def test_report_runs_every_cell_once(self, report_run):
        from repro.experiments.cache import config_cache_key
        from repro.experiments.figures import fig1_config
        from repro.experiments.grids import grid_work

        keys = report_run.keys
        _axes, work = grid_work("claims", scale=0.01)
        assert len(work) == 83
        assert sorted(keys) == sorted(config_cache_key(c) for _l, c in work)
        assert len(set(keys)) == len(keys)
        assert config_cache_key(fig1_config(0.01, 42)) in keys


class TestReportBlock:
    """``report`` rewrites only the text between its markers."""

    @staticmethod
    def _stub(monkeypatch, seen=None):
        import repro.experiments.report as report

        _stub_run_cells(monkeypatch, seen)
        monkeypatch.setattr(report, "render_experiments_md",
                            lambda results, scale, seed: f"# new {scale}\n")

    def test_text_outside_the_block_survives_byte_for_byte(
            self, tmp_path, monkeypatch):
        from repro.experiments.report import REPORT_BEGIN, REPORT_END

        self._stub(monkeypatch)
        head = "Preface.\n\n"
        tail = "\n\n## Hand-written\r\n\nkept  \n<!-- END -->\n"
        dest = tmp_path / "E.md"
        dest.write_bytes(
            f"{head}{REPORT_BEGIN}\n# old\n{REPORT_END}{tail}".encode())
        assert main(["report", "--quiet", "--scale", "0.5",
                     "--out", str(dest)]) == 0
        assert dest.read_bytes() == (
            f"{head}{REPORT_BEGIN}\n# new 0.5\n{REPORT_END}{tail}".encode())

    def test_a_new_file_holds_only_the_block(self, tmp_path, monkeypatch):
        from repro.experiments.report import REPORT_BEGIN, REPORT_END

        self._stub(monkeypatch)
        dest = tmp_path / "E.md"
        assert main(["report", "--quiet", "--out", str(dest)]) == 0
        assert dest.read_text() == (
            f"{REPORT_BEGIN}\n# new 1.0\n{REPORT_END}\n")

    def test_a_file_without_the_markers_is_left_alone(
            self, tmp_path, monkeypatch, capsys):
        seen = []
        self._stub(monkeypatch, seen)
        dest = tmp_path / "E.md"
        dest.write_text("# Someone else's notes\n")
        assert main(["report", "--quiet", "--out", str(dest)]) == 2
        assert "nothing written" in capsys.readouterr().err
        assert dest.read_text() == "# Someone else's notes\n"
        assert seen == []  # refused before running a cell

    def test_experiments_md_keeps_its_hand_written_sections(self):
        from pathlib import Path

        from repro.experiments.report import REPORT_BEGIN, report_frame

        text = (Path(__file__).resolve().parents[1]
                / "EXPERIMENTS.md").read_text()
        head, tail = report_frame(text)
        assert head == f"{REPORT_BEGIN}\n"  # the block opens the file
        for section in ("### Shape oracles", "## Parallel sweeps",
                        "## Sweep farm", "## Performance benchmarks",
                        "## Validation", "## The Fixed-K study"):
            assert section in tail


class TestUnwritableOutput:
    """Every file-writing verb shares one guard: exit 1 and
    ``error: cannot write``, never a traceback after the work is done."""

    def test_fig1_svg(self, tmp_path, capsys):
        dest = str(tmp_path / "no" / "such" / "dir" / "x")
        assert main(["grid", "fig1", "--scale", "0.03125", "--quiet",
                     "--svg", dest]) == 1
        assert f"error: cannot write {dest}_fig1.svg" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["fig2", "fig3", "fig4"])
    def test_sweep_figure_svg(self, verb, tmp_path, capsys, monkeypatch):
        # The sweep itself is not under test: stub it out.
        _stub_run_cells(monkeypatch)
        dest = str(tmp_path / "no" / "such" / "dir" / "x")
        assert main(["grid", "figures", "--quiet", "--svg", dest]) == 1
        assert (f"error: cannot write {dest}_fig2a.svg"
                in capsys.readouterr().err)
        prefix = tmp_path / "x"
        assert main(["grid", "figures", "--quiet", "--axis",
                     "buffer=shallow,deep", "--svg", str(prefix)]) == 0
        err = capsys.readouterr().err
        for sub in "ab":
            ok = tmp_path / f"x_{verb}{sub}.svg"
            assert ok.read_text().startswith("<svg")
            assert f"wrote {ok}" in err

    def test_report(self, report_run):
        assert report_run.rc == 1
        assert f"error: cannot write {report_run.dest}" in report_run.err

    def test_json_manifest(self, tmp_path, capsys):
        dest = str(tmp_path / "no" / "such" / "dir" / "cell.json")
        assert main(["cell", "--scale", "0.03125", "--json", dest]) == 1
        assert f"error: cannot write {dest}" in capsys.readouterr().err


class TestSweepErrors:
    def test_resume_requires_cache_dir(self, capsys):
        assert main(["grid", "paper", "--resume"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, capsys):
        assert main(["grid", "paper", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_limit_must_be_positive(self, capsys):
        assert main(["grid", "paper", "--limit", "0"]) == 2
        assert "--limit" in capsys.readouterr().err

    def test_fig_jobs_must_be_positive(self, capsys):
        assert main(["grid", "figures", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["grid", "claims"], id="claims"),
        pytest.param(["report"], id="report")])
    def test_every_jobs_verb_exits_2_not_a_traceback(self, argv, capsys):
        # Checked before run_cells, whose ExperimentError is a traceback.
        assert main([*argv, "--jobs", "0", "--scale", "0.01"]) == 2
        assert f"{argv[0]}: --jobs must be >= 1" in capsys.readouterr().err

    def test_cache_dir_collision_with_file(self, tmp_path, capsys):
        f = tmp_path / "a-file"
        f.write_text("x")
        rc = main(["grid", "paper", "--limit", "1", "--cache-dir", str(f)])
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err


class TestSweepRuns:
    def test_sweep_limit_jobs_and_resume(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        manifest = tmp_path / "sweep.json"
        base = ["grid", "paper", "--limit", "2", "--jobs", "2",
                "--scale", "0.03125", "--quiet",
                "--cache-dir", cache_dir, "--manifest", str(manifest)]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 cached" in out

        import json

        doc = json.loads(manifest.read_text())
        assert doc["kind"] == "sweep"
        assert doc["kind_detail"] == "paper"
        assert doc["axes"] == {"buffer": ["shallow"]}
        assert doc["scale"] == 0.03125 and doc["seed"] == 42
        assert doc["jobs"] == 2
        assert len(doc["cells"]) == 2
        assert len(doc["executed"]) == 2 and doc["cached"] == []

        # Immediate re-run with --resume executes zero cells.
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 cached" in out


class TestCommands:
    def test_figure_progress_is_the_progress_reporter(
            self, capsys, monkeypatch):
        import repro.cli
        from repro.telemetry.profiler import ProgressReporter

        seen = []
        _stub_run_cells(monkeypatch, seen)
        assert main(["grid", "figures"]) == 0
        assert isinstance(seen[0], ProgressReporter)
        assert capsys.readouterr().err.startswith(
            "  [  1/42] tcp-ecn/red-default@50us/shallow")
        assert main(["grid", "figures", "--quiet"]) == 0 and seen[1] is None

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

    def test_keep_grid_prunes_what_the_preset_does_not_list(
            self, tmp_path, capsys):
        cache_dir = self._seed(tmp_path, 1)  # one foreign entry
        assert main(["grid", "mix", "--limit", "1", "--scale", "0.0625",
                     "--quiet", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", cache_dir, "--keep-grid", "mix",
                     "--scale", "0.0625", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would prune 1 of 2 entries (keeping the mix grid)" in out
        assert f"{0:016x}" in out  # the foreign key, not the mix cell
        assert main(["cache", "--cache-dir", cache_dir, "--keep-grid",
                     "paper", "--axis", "buffer=deep", "--dry-run"]) == 0
        assert "would prune 2 of 2" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", cache_dir, "--keep-grid",
                     "bogus"]) == 2
        assert "cache: unknown grid 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["stability", "flaws"])
    def test_keep_grid_keeps_the_probe_presets(self, name, tmp_path, capsys):
        import json
        import os

        from repro.experiments.cache import CACHE_SCHEMA, config_cache_key
        from repro.experiments.grids import grid_work

        cache_dir = self._seed(tmp_path, 1)  # one foreign entry
        _axes, work = grid_work(name)
        for label, cfg in work:
            key = config_cache_key(cfg)
            with open(os.path.join(cache_dir, key + ".json"), "w") as fh:
                json.dump({"schema": CACHE_SCHEMA, "key": key,
                           "label": label}, fh)
        assert main(["cache", "--cache-dir", cache_dir, "--keep-grid", name,
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert f"would prune 1 of 6 entries (keeping the {name} grid)" in out
        assert f"{0:016x}" in out

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

    def test_trace_output_is_pinned(self, tmp_path, capsys):
        """The JSONL of per-flow tcp.* rows, the telemetry session's queue
        samples and packet events of one small cell is pinned byte for
        byte (2,806 records at scale 0.01)."""
        import hashlib

        path = tmp_path / "trace.jsonl"
        rc = main(["trace", "--scale", "0.01",
                   "--kinds", "tcp.cwnd,tcp.rto,queue.sample,drop,mark",
                   "--queue-interval-us", "500", "--out", str(path)])
        assert rc == 0
        assert "(2806 records" in capsys.readouterr().err
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "367f37260e14dc43bf7007f4811a3a61b57e5cb952328fe27df19d754aa0c695")

    def test_trace_empty_kinds_rejected(self, capsys):
        rc = main(["trace", "--kinds", " , "])
        assert rc == 2
        assert "at least one event kind" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ["0", "-5"])
    def test_trace_nonpositive_queue_interval_rejected(self, interval,
                                                       capsys):
        rc = main(["trace", "--queue-interval-us", interval])
        assert rc == 2
        assert "must be positive" in capsys.readouterr().err


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
        args = build_parser().parse_args(["grid", "fixedk"])
        assert args.command == "grid" and args.name == "fixedk"
        assert not hasattr(args, "smoke")  # the CI mode is `smoke fixedk`
        assert args.svg is None  # figures only when asked for
        assert args.axis == []

    def test_parses_axes_and_sweep_options(self):
        args = build_parser().parse_args([
            "grid", "fixedk", "--axis", "k=8,32", "--axis", "load=0.4,0.8",
            "--axis", "fanout=4", "--jobs", "2", "--cache-dir", "/tmp/c",
            "--resume", "--limit", "3", "--manifest", "m.json",
        ])
        assert args.axis == ["k=8,32", "load=0.4,0.8", "fanout=4"]
        assert args.jobs == 2 and args.resume and args.limit == 3

    def test_jobs_must_be_positive(self, capsys):
        assert main(["grid", "fixedk", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_resume_requires_cache_dir(self, capsys):
        assert main(["grid", "fixedk", "--resume"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_bad_axis_values_rejected(self, capsys):
        assert main(["grid", "fixedk", "--axis", "k=8,banana"]) == 2
        assert "k=8,banana" in capsys.readouterr().err

    def test_invalid_grid_cell_rejected(self, capsys):
        # fanout 99 exceeds the default fabric's remote-host pool.
        assert main(["grid", "fixedk", "--axis", "fanout=99"]) == 2
        assert "fanout" in capsys.readouterr().err

    def test_svg_only_when_asked_and_regime_maps_in_manifest(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        base = ["grid", "fixedk", "--axis", "k=8", "--axis", "load=0.4",
                "--axis", "fanout=4", "--limit", "1", "--quiet",
                "--cache-dir", "c"]
        assert main(base + ["--manifest", "m.json"]) == 0
        out = capsys.readouterr().out
        assert "S=stable" in out and "1 executed, 0 cached" in out
        assert not list(tmp_path.glob("*.svg"))
        import json

        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["kind_detail"] == "fixedk"
        assert doc["axes"] == {"k": [8], "load": [0.4], "fanout": [4]}
        assert [m["fanout"] for m in doc["regime_maps"]] == [4]
        assert main(base + ["--resume", "--svg", "rm"]) == 0
        assert [p.name for p in tmp_path.glob("*.svg")] == [
            "rm_tcp-ecn-default-n4.svg"]


class TestGridVerb:
    """`repro grid NAME`: one verb over the GRIDS presets."""

    #: (cells, sha256 of json [[label, cache key], ...]) of each builder's
    #: default work list, recorded before the presets replaced the
    #: sweep / mix / fixedk verbs: the presets must not move a label or key.
    PINNED = {
        ("paper", "buffer=shallow"): (
            42, "b7c371d6d3f35ddde6b017a08dc169a93172d069ee8f7676dc5971208f83f264"),
        ("paper", "buffer=deep"): (
            42, "400ed89330e649461b4f6f437bd2bd1bc66039b34ab85ae79fa22c268dd65cac"),
        ("mix", None): (
            10, "7c0ce9f4570e7819215e677ee179d8d592ce02a863049402f7f5fc8aa832465e"),
        ("fixedk", None): (
            120, "abe517e52662687b47b52e4aeb3bd6d0e3e9acd7d58f56b1ca41ecaa20f6d5db"),
    }

    #: Full cache keys of the probe presets' default work lists, in order,
    #: recorded from the configs the `stability` verb's first pass and the
    #: `flaws` verb ran before both became presets: a cache they filled
    #: must serve the presets.
    PROBE_KEYS = {
        "stability": [
            "b8fdbe0b4fc160fc4e66b7a1ef36120e3be267272164e7272aef29730fe66951",
            "43142e765503885613a6791b792cdc229808d67e70957c8fd9cb29246ccb8565",
            "b07c683ae7f43dd7a1cd771d924b30ec87b2b8ff8e37db7782b34bbb2ce0ab40",
            "927f5bde9e2e0a90760ec95d265af7884fc64b16dfdeb323424454d2d7f63901",
            "b25523a7068e16dc7d0a608446c24c33f918af6788265552fc5dcea1e327be27",
        ],
        "flaws": [
            "6bac726fa377b10eabf92cac6e95fd4f54b4d9ee262e22efa8b23f5970804f95",
            "e9b51a0e5a5177c80067d53a7f2e15f9ca2ee29e9644b363a96f94e7cfe18b6e",
            "8694435789182024f435d0f73ed0dd123e8772af643901fbd7fda971eae21a0e",
            "d0241f336fb5daeb1b60f0ac92cd4f142ccb5f4da6bdec69b386031d361159c4",
            "fcdcf44f2acb79a8a5d451392b77002184b4ce0325553076056e8f47f6b63750",
        ],
    }

    @staticmethod
    def _digest(cells):
        import hashlib
        import json

        from repro.experiments.cache import config_cache_key

        pairs = [[label, config_cache_key(cfg)] for label, cfg in cells]
        return len(pairs), hashlib.sha256(
            json.dumps(pairs).encode()).hexdigest()

    @pytest.mark.parametrize("name,spec", list(PINNED))
    def test_preset_work_list_is_the_old_builders(self, name, spec):
        from repro.experiments.grids import grid_work

        _axes, cells = grid_work(name, [spec] if spec else [])
        assert self._digest(cells) == self.PINNED[(name, spec)]

    @pytest.mark.parametrize("name", ["stability", "flaws"])
    def test_probe_preset_keys_are_the_old_verbs(self, name):
        from repro.experiments.cache import config_cache_key
        from repro.experiments.grids import grid_work

        _axes, cells = grid_work(name)
        assert [config_cache_key(c) for _l, c in cells] == self.PROBE_KEYS[name]

    def test_flaws_work_list_is_flaws_grid(self):
        from repro.experiments.cache import config_cache_key
        from repro.experiments.flaws import flaws_grid
        from repro.experiments.grids import grid_work

        axes, cells = grid_work("flaws")
        assert axes == {}
        assert [lb for lb, _c in cells] == [
            "fixed", "linux-dctcp", "coalesce", "retx-mark", "alpha-freeze"]
        assert [config_cache_key(c) for _l, c in cells] == [
            config_cache_key(c) for c in flaws_grid()]

    def test_flaws_render_is_the_table_of_the_profiles_present(self):
        from types import SimpleNamespace

        from repro.experiments.flaws import flaws_row, render_flaws_table
        from repro.experiments.grids import GRIDS, grid_work

        def stub(cfg, alpha):
            queue = SimpleNamespace(marks=10, drops_tail=1, drops_early=0)
            return SimpleNamespace(config=cfg, metrics=SimpleNamespace(
                extra={"dctcp_alpha_timeavg": alpha}, retransmits=2,
                rtos=0, queue=queue))

        _axes, work = grid_work("flaws")
        results = {lb: stub(cfg, 0.5 + i / 100)
                   for i, (lb, cfg) in enumerate(work)}
        table = GRIDS["flaws"].render(results)
        assert table == render_flaws_table(
            [flaws_row(cfg.flaw_profile, results[lb]) for lb, cfg in work])
        assert "linux-dctcp       0.5100" in table
        # A --limit slice renders the rows it ran, the fixed stack first.
        first_two = dict(list(results.items())[:2])
        assert [ln.split()[0] for ln in GRIDS["flaws"].render(
            first_two).splitlines()[2:]] == ["fixed", "linux-dctcp"]

    def test_stability_axes(self):
        from repro.experiments.grids import grid_work

        axes, cells = grid_work("stability")
        assert axes == {"target_delay": (50, 100, 200, 500, 1000),
                        "g": (None,)}
        assert [lb for lb, _c in cells][:2] == [
            "probe/dctcp/marking@50us/n4", "probe/dctcp/marking@100us/n4"]
        _axes, cells = grid_work("stability", ["target_delay=282,316",
                                               "g=0.0625,0.25"])
        assert [lb for lb, _c in cells] == [
            "probe/dctcp/marking@282us/n4/g0.0625",
            "probe/dctcp/marking@282us/n4/g0.25",
            "probe/dctcp/marking@316us/n4/g0.0625",
            "probe/dctcp/marking@316us/n4/g0.25"]
        # The default gain, as the help epilog prints it, parses back.
        _axes, cells = grid_work("stability", ["target_delay=200",
                                               "g=None,0.25"])
        assert [cfg.dctcp_g for _lb, cfg in cells] == [None, 0.25]

    def test_stability_figures_and_manifest(self, tmp_path, capsys,
                                            monkeypatch):
        # The probes are not under test: each "measures" a stubbed
        # stability block, oscillating below 300 us.
        import json

        import repro.experiments.parallel as parallel
        from tests.test_stability import stubbed_probe

        def fake_run_cells(cells, jobs=1, cache=None, resume=True,
                           progress=None):
            return parallel.SweepReport(results={
                label: stubbed_probe(
                    round(cfg.queue.target_delay_s * 1e6),
                    "limit-cycle" if cfg.queue.target_delay_s < 300e-6
                    else "stable", cfg.dctcp_g)
                for label, cfg in cells}, jobs=jobs)

        monkeypatch.setattr(parallel, "run_cells", fake_run_cells)
        prefix, manifest = tmp_path / "sm", tmp_path / "m.json"
        assert main(["grid", "stability", "--quiet", "--axis",
                     "g=0.0625,0.25", "--svg", str(prefix),
                     "--manifest", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "midpoint 316us" in out
        assert sorted(p.name for p in tmp_path.glob("*.svg")) == [
            "sm_g-0.0625.svg", "sm_g-0.25.svg"]
        doc = json.loads(manifest.read_text())
        assert doc["axes"] == {"target_delay": [50, 100, 200, 500, 1000],
                               "g": [0.0625, 0.25]}
        assert all(cell["stability"]["classification"]
                   for cell in doc["cells"].values())

    def test_paper_default_axis_is_shallow(self):
        from repro.experiments.grids import grid_work

        axes, cells = grid_work("paper")
        assert axes == {"buffer": ("shallow",)}
        assert self._digest(cells) == self.PINNED[("paper", "buffer=shallow")]

    @pytest.mark.parametrize("spec", ["buffer=shallow", "buffer=deep"])
    def test_figures_work_list_is_the_paper_grid(self, spec):
        from repro.experiments.grids import grid_work

        _axes, cells = grid_work("figures", [spec])
        assert self._digest(cells) == self.PINNED[("paper", spec)]

    def test_claims_work_list_is_both_depths_plus_fig1(self):
        from repro.experiments.grids import grid_work

        _axes, paper = grid_work("paper", ["buffer=shallow,deep"])
        axes, claims = grid_work("claims")
        assert axes == {}
        assert [lb for lb, _c in claims] == [lb for lb, _c in paper] + ["fig1"]
        assert claims[-1][1].label() == claims[0][1].label()  # why "fig1"

    @pytest.mark.parametrize("name", ["figures", "claims"])
    def test_render_of_a_partial_grid_is_exit_2_and_keeps_the_cells(
            self, name, tmp_path, capsys):
        cache = str(tmp_path / "c")
        argv = ["--limit", "2", "--scale", "0.03125", "--quiet",
                "--cache-dir", cache]
        assert main(["grid", name, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("grid: missing grid cell ")
        assert "Traceback" not in captured.err
        # The cells ran and are cached under the paper grid's keys.
        assert main(["grid", "paper", *argv, "--resume"]) == 0
        assert "0 executed, 2 cached" in capsys.readouterr().out

    def test_both_buffers_emit_the_baselines_once(self):
        from repro.experiments.grids import grid_work

        _axes, cells = grid_work("paper", ["buffer=shallow,deep"])
        labels = [label for label, _cfg in cells]
        assert len(labels) == len(set(labels)) == 82
        assert labels[-2:] == ["droptail-shallow", "droptail-deep"]

    @pytest.mark.parametrize("argv", [
        ["sweep"], ["mix"], ["fixedk"], ["farm", "--submit", "shallow"],
        ["fig1"], ["fig2", "--deep"], ["fig3"], ["fig4"], ["claims"],
        ["stability"], ["flaws"]])
    def test_old_grid_verbs_no_longer_parse(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv,reason", [
        (["bogus"], "unknown grid 'bogus'"),
        (["paper", "--axis", "k=8"], "no axis 'k'"),
        (["paper", "--axis", "buffer"], "--axis buffer: needs"),
        (["paper", "--axis", "buffer=deep", "--axis", "buffer=deep"],
         "given twice"),
        (["paper", "--axis", "buffer=medium"], "'medium' is not one of"),
        (["paper", "--axis", "buffer=deep,deep"], "distinct"),
        (["mix", "--axis", "buffer=deep"], "axes: none"),
        (["fixedk", "--scale", "0.5"], "--scale"),
        (["mix", "--svg", "x"], "draws no figures"),
        (["mix", "--farm", "/nonexistent/s", "--jobs", "2"], "--farm"),
        (["mix", "--farm", "/nonexistent/s", "--cache-dir", "c"], "--farm"),
        (["mix", "--farm", "/nonexistent/s", "--resume"], "--farm"),
        (["mix", "--priority", "3"], "--priority"),
        (["paper", "--farm", "/nonexistent/s", "--limit", "-1"], "--limit"),
        # Probe cells have no dataset: one refusal for all three presets.
        (["fixedk", "--scale", "0.5"], "fixedk cells have no dataset"),
        (["stability", "--scale", "0.5"], "stability cells have no dataset"),
        (["flaws", "--scale", "0.5"], "flaws cells have no dataset"),
        (["stability", "--axis", "target_delay=50.5"],
         "--axis target_delay=50.5"),
        (["stability", "--axis", "g=1.5"], "dctcp_g must be in (0, 1]"),
        (["flaws", "--svg", "x"], "draws no figures"),
        (["stability", "--axis", "g=0.1234561,0.1234562"],
         "collide in cell labels"),
    ])
    def test_errors_exit_2_naming_the_reason(self, argv, reason, capsys):
        assert main(["grid", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("grid: ") and reason in err

    def test_farm_that_is_not_there_is_exit_1(self, capsys):
        assert main(["grid", "mix", "--limit", "1", "--quiet",
                     "--farm", "/nonexistent/s"]) == 1
        assert "grid: cannot reach farm" in capsys.readouterr().err
