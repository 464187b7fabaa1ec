"""The ``repro.cell_cache/v2`` entry: each fact stored once, read in one pass.

A v2 entry keeps every top-level field of v1, but its ``manifest`` holds
``null`` placeholders where v1 repeated the entry's ``config`` and
``metrics``; :func:`~repro.experiments.cache.result_from_entry` fills them
back in. The promise is that a hit is indistinguishable from the run that
was stored — ``metrics ==``, ``snapshots ==`` and ``json.dumps(manifest)
==`` (which also checks key order) — whether it is served by
:class:`~repro.experiments.cache.ResultCache` or by a farm ``fetch``, and
that v1 entries are still served (the v1 and v2 fixture entries are
pinned in ``tests/test_schema_pin.py``).
"""

import dataclasses
import json
import math
import os
import shutil

import pytest

from repro.experiments import BulkConfig, run_cell, run_cells
from repro.experiments.cache import (
    CACHE_SCHEMA,
    ResultCache,
    config_cache_key,
    result_to_entry,
)
from repro.experiments.config import CellResult
from repro.telemetry.manifest import config_to_dict, metrics_to_dict
from repro.units import mb
from tests.test_cell_kinds import TINY
from tests.test_farm import farm, short_dir

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: Bytes that are not UTF-8 (nor any JSON text at all).
NOT_TEXT = b"\xff\xfe\xff\xfe"


@pytest.fixture(scope="module")
def fresh():
    """One fresh run of every registered kind's tiny config."""
    return {name: run_cell(cfg) for name, cfg in TINY.items()}


def assert_same_result(got, want):
    assert got.metrics == want.metrics
    assert got.snapshots == want.snapshots
    assert json.dumps(got.manifest) == json.dumps(want.manifest)


class TestRoundTrip:
    def test_every_kind_round_trips_through_the_cache(self, tmp_path, fresh):
        cache = ResultCache(str(tmp_path))
        for name, result in fresh.items():
            cache.put(result)
            got = cache.get(TINY[name])
            assert got is not None, name
            assert_same_result(got, result)
        assert cache.hits == len(TINY) and cache.misses == 0
        # The Terasort, probe and fixedk cells keep queue snapshots.
        assert sum(1 for r in fresh.values() if r.snapshots) >= 3

    def test_every_kind_stores_its_manifest_copies_as_null(self, fresh):
        for name, result in fresh.items():
            manifest = result_to_entry(result)["manifest"]
            assert manifest["config"] is None, name
            assert manifest["metrics"] is None, name
            # The placeholders keep the manifest's key order.
            assert list(manifest) == list(result.manifest)

    def test_a_farm_fetch_of_cached_entries_is_the_stored_run(self, fresh):
        with short_dir() as d:
            cache = ResultCache(os.path.join(d, "cache"))
            for result in fresh.values():
                cache.put(result)
            with farm(farm_dir=d, workers=1) as (_sched, client):
                sub = client.submit(list(TINY.items()))
                assert sub["cells"]["cached"] == len(TINY)
                got = client.fetch(sub["id"])
        for name, result in fresh.items():
            assert_same_result(got[name], result)

    def test_a_farm_fetch_of_executed_cells_matches_a_local_run(self, fresh):
        with farm(workers=2) as (_sched, client):
            sub = client.submit(list(TINY.items()))
            assert client.wait(sub["id"], timeout=240)["state"] == "done"
            got = client.fetch(sub["id"])
        for name, result in fresh.items():
            assert got[name].metrics == result.metrics
            assert got[name].snapshots == result.snapshots
            # Wall-clock timings are the only part of a manifest that
            # differs between two runs of one config.
            assert (json.dumps({**got[name].manifest, "timings": None})
                    == json.dumps({**result.manifest, "timings": None}))


class TestOnDisk:
    def test_entry_is_one_line_holding_the_config_once(self, tmp_path, fresh):
        cache = ResultCache(str(tmp_path))
        with open(cache.put(fresh["cell"]), "rb") as fh:
            data = fh.read()
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        rendered = json.dumps(config_to_dict(TINY["cell"]),
                              separators=(",", ":")).encode()
        assert data.count(rendered) == 1
        assert json.loads(data)["schema"] == CACHE_SCHEMA

    def test_a_nan_metric_keeps_its_manifest_copy(self, tmp_path, fresh):
        base = fresh["bulk"]
        metrics = dataclasses.replace(base.metrics, mean_latency=math.nan)
        result = CellResult(
            config=base.config, metrics=metrics, snapshots=[],
            manifest={**base.manifest, "metrics": metrics_to_dict(metrics)})
        manifest = result_to_entry(result)["manifest"]
        assert manifest["config"] is None
        assert manifest["metrics"] is not None
        cache = ResultCache(str(tmp_path))
        cache.put(result)
        got = cache.get(base.config)
        assert math.isnan(got.metrics.mean_latency)
        # NaN != NaN, so compare the renderings.
        assert (json.dumps(dataclasses.asdict(got.metrics))
                == json.dumps(dataclasses.asdict(metrics)))
        assert json.dumps(got.manifest) == json.dumps(result.manifest)

    def test_mixed_directory_scan(self, tmp_path):
        root = str(tmp_path)
        for name in ("cache_pr23", "cache_v2"):
            for f in os.listdir(os.path.join(FIXTURES, name)):
                shutil.copy(os.path.join(FIXTURES, name, f), root)
        with open(os.path.join(root, "0" * 64 + ".json"), "wb") as fh:
            fh.write(NOT_TEXT)
        stats = ResultCache(root).stats()
        assert stats["entries"] == 3 and stats["corrupt"] == 1


class TestNonTextEntry:
    """An entry whose bytes are not text is corrupt, not an exception."""

    CONFIG = BulkConfig(n_hosts=4, flow_bytes=mb(1), seed=5)

    def spoil(self, cache):
        path = cache.path_for(self.CONFIG)
        with open(path, "wb") as fh:
            fh.write(NOT_TEXT)
        return path

    def test_get_misses_and_run_cells_overwrites(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(run_cell(self.CONFIG))
        path = self.spoil(cache)
        assert cache.get(self.CONFIG) is None and cache.misses == 1
        report = run_cells([("b", self.CONFIG)], cache=cache)
        assert report.executed == ["b"]
        assert ResultCache(str(tmp_path)).get(self.CONFIG) is not None
        with open(path, "rb") as fh:
            assert json.loads(fh.read())["schema"] == CACHE_SCHEMA

    def test_stats_count_it_and_prune_removes_it(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = self.spoil(cache)
        assert cache.stats()["corrupt"] == 1
        assert cache.prune() == [config_cache_key(self.CONFIG)]
        assert not os.path.exists(path)

    def test_a_restarted_farm_reruns_the_cell(self):
        with short_dir() as d:
            with farm(farm_dir=d, workers=1) as (_sched, client):
                sub = client.submit([("b", self.CONFIG)])
                assert client.wait(sub["id"], timeout=120)["state"] == "done"
            self.spoil(ResultCache(os.path.join(d, "cache")))
            with farm(farm_dir=d, workers=1) as (sched, client):
                assert sched.resumed_jobs == 1
                assert client.wait(sub["id"], timeout=120)["state"] == "done"
                assert client.status(sub["id"])["labels"] == {"b": "executed"}
                got = client.fetch(sub["id"])["b"]
            assert got.metrics == run_cell(self.CONFIG).metrics
