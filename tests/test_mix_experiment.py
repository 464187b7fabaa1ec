"""Tests for the mixed-cluster coexistence experiment layer
(MixConfig / the "mix" cell kind / mix_grid) and its `grid mix` preset."""

import dataclasses
import json

import pytest

from repro.errors import ConfigError
from repro.experiments import (
    MixConfig,
    QueueSetup,
    mix_grid,
    render_mix_table,
    run_cell,
    run_cells,
)
from repro.experiments.cache import ResultCache
from repro.tcp import TcpVariant
from repro.units import mb, us


def tiny_config(**kw):
    kw.setdefault("queue", QueueSetup(kind="red", target_delay_s=us(200)))
    kw.setdefault("n_hosts", 8)
    kw.setdefault("data_bytes", mb(4))
    kw.setdefault("n_reducers", 4)
    kw.setdefault("rpc_fanout", 4)
    kw.setdefault("rpc_rate_qps", 150.0)
    kw.setdefault("bg_rate_fps", 30.0)
    kw.setdefault("seed", 17)
    return MixConfig(**kw)


def strip_wallclock(manifest):
    m = json.loads(json.dumps(manifest))
    m.pop("timings", None)
    m.pop("git", None)
    m.pop("version", None)
    return m


class TestMixCell:
    def test_manifest_workload_buckets(self):
        cell = run_cell(tiny_config())
        wl = cell.manifest["workloads"]
        assert set(wl) == {"shuffle", "rpc", "background"}
        rpc = wl["rpc"]
        assert rpc["kind"] == "partition-aggregate"
        assert rpc["queries_completed"] > 0
        assert 0.0 <= rpc["deadline_miss_rate"] <= 1.0
        for key in ("p50", "p95", "p99"):
            assert rpc["qct_s"][key] >= 0.0
        bg = wl["background"]
        assert bg["kind"] == "open-loop"
        assert set(bg["size_bins"]) == {"short", "long"}
        assert wl["shuffle"]["kind"] == "shuffle"
        assert wl["shuffle"]["runtime_s"] == cell.metrics.runtime
        # per-flow slowdown is observed/ideal: never below 1
        if bg["flows"] - bg["flows_failed"] > 0:
            assert bg["slowdown"]["minimum"] >= 1.0

    def test_manifest_is_json_serialisable(self):
        cell = run_cell(tiny_config())
        json.dumps(cell.manifest)

    def test_back_to_back_runs_bit_identical(self):
        cfg = tiny_config()
        a, b = run_cell(cfg), run_cell(cfg)
        assert dataclasses.asdict(a.metrics) == dataclasses.asdict(b.metrics)
        assert strip_wallclock(a.manifest) == strip_wallclock(b.manifest)

    def test_armed_run_bit_identical(self):
        from repro.validate.checkers import build_suite

        cfg = tiny_config()
        plain = run_cell(cfg)
        armed = run_cell(cfg, checks=build_suite(cfg))
        assert armed.manifest["validation"]["ok"]
        assert dataclasses.asdict(plain.metrics) == dataclasses.asdict(
            armed.metrics)
        assert (plain.manifest["workloads"]
                == armed.manifest["workloads"])

    def test_seed_changes_results(self):
        a = run_cell(tiny_config(seed=1))
        b = run_cell(tiny_config(seed=2))
        assert a.manifest["workloads"] != b.manifest["workloads"]

    def test_run_cell_dispatches_mixconfig(self):
        cfg = tiny_config()
        cell = run_cell(cfg)
        assert "workloads" in cell.manifest
        assert cell.manifest["kind"] == "mix-cell"

    def test_rpc_extra_metrics(self):
        cell = run_cell(tiny_config())
        extra = cell.metrics.extra
        assert "rpc_deadline_miss_rate" in extra
        assert extra["rpc_queries_completed"] > 0

    def test_validate_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            tiny_config(rpc_fanout=8).validate()  # 8 hosts -> max fanout 7
        with pytest.raises(ConfigError):
            tiny_config(bg_sizes="nope").validate()
        with pytest.raises(ConfigError):
            tiny_config(rpc_rate_qps=0).validate()

    def test_scaled(self):
        cfg = tiny_config().scaled(0.5)
        assert cfg.data_bytes == mb(4) // 2

    def test_label(self):
        assert tiny_config().label() == "mix/tcp-ecn/red-default@200us/shallow"


class TestMixGrid:
    def test_labels_unique_and_prefixed(self):
        cells = mix_grid()
        labels = [label for label, _ in cells]
        assert len(labels) == len(set(labels)) == 10
        assert all(label.startswith("mix/") for label in labels)
        variants = {cfg.variant for _, cfg in cells}
        assert variants == {TcpVariant.ECN, TcpVariant.DCTCP}

    def test_cache_round_trip_through_runner(self, tmp_path):
        todo = [(label, cfg.scaled(1 / 16))
                for label, cfg in mix_grid(seed=23)[:2]]
        cache = ResultCache(str(tmp_path))
        first = run_cells(todo, jobs=1, cache=cache)
        assert len(first.executed) == 2
        second = run_cells(todo, jobs=1, cache=cache, resume=True)
        assert len(second.cached) == 2 and not second.executed
        for label in dict(todo):
            assert (strip_wallclock(first.results[label].manifest)
                    == strip_wallclock(second.results[label].manifest))
            assert "workloads" in second.results[label].manifest

    def test_render_mix_table(self):
        todo = [(label, cfg.scaled(1 / 16))
                for label, cfg in mix_grid(seed=23)[:2]]
        report = run_cells(todo, jobs=1)
        text = render_mix_table(report.results)
        assert "rpc_miss" in text and "bg_p99_slow" in text
        for label, _ in todo:
            assert label in text


class TestMixCli:
    def test_mix_smoke_exits_zero(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        rc = main(["smoke", "mix", "--json", "mix_smoke.json"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "plain identical" in out and "armed identical" in out
        doc = json.loads((tmp_path / "mix_smoke.json").read_text())
        (cell,) = doc["gates"][0]["cells"]
        assert set(cell["detail"]["workloads"]) == {"shuffle", "rpc",
                                                    "background"}
        assert cell["identical_plain_rerun"]
        assert cell["identical_armed_rerun"]
        assert cell["validation_ok"]

    def test_mix_grid_cli_with_cache(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        manifest = tmp_path / "sweep.json"
        args = ["grid", "mix", "--scale", "0.0625", "--limit", "2",
                "--cache-dir", str(cache_dir), "--quiet",
                "--manifest", str(manifest)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 executed" in out and "rpc_miss" in out
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "2 cached" in out
        payload = json.loads(manifest.read_text())
        assert len(payload["cells"]) == 2
        assert payload["kind_detail"] == "mix" and payload["axes"] == {}
