"""Tests for the parallel sweep executor and the content-addressed cache.

The load-bearing property is *bit-identity*: a cell is a pure function of
its config, so serial, parallel and cached executions of the same grid
must produce equal :class:`~repro.stats.collect.RunMetrics` — the
dataclass ``==`` compares every field, including the private occupancy
integrals of :class:`~repro.core.qdisc.QueueStats`, with exact float
equality.
"""

import json
from dataclasses import replace

import pytest

from repro.errors import ExperimentError
from repro.experiments import ExperimentConfig, QueueSetup, run_cell
from repro.experiments.cache import (
    CACHE_SCHEMA,
    ResultCache,
    canonical_config_json,
    config_cache_key,
)
from repro.experiments.parallel import run_cells
from repro.tcp import TcpVariant
from repro.units import mb, us


def tiny(queue: QueueSetup, variant=TcpVariant.ECN, **kw) -> ExperimentConfig:
    """A very fast cell: 4 hosts, 2 MB Terasort in 1 MB blocks."""
    return replace(
        ExperimentConfig(queue=queue, variant=variant),
        n_hosts=4, data_bytes=mb(2), block_bytes=mb(1), n_reducers=4, **kw
    )


def small_grid():
    """A 3 (queue setups) x 2 (transports) grid of tiny cells."""
    setups = (
        QueueSetup(kind="droptail"),
        QueueSetup(kind="red", target_delay_s=us(100)),
        QueueSetup(kind="marking", target_delay_s=us(100)),
    )
    return [
        (f"{variant.value}/{qs.label()}", tiny(qs, variant=variant))
        for variant in (TcpVariant.ECN, TcpVariant.DCTCP)
        for qs in setups
    ]


@pytest.fixture(scope="module")
def one_cell():
    """One executed cell (with queue snapshots) shared across cache tests."""
    cfg = tiny(QueueSetup(kind="droptail"), monitor_interval_s=0.005)
    return run_cell(cfg)


class TestCacheKey:
    def test_key_is_deterministic(self):
        a = tiny(QueueSetup(kind="red", target_delay_s=us(100)))
        b = tiny(QueueSetup(kind="red", target_delay_s=us(100)))
        assert config_cache_key(a) == config_cache_key(b)
        assert len(config_cache_key(a)) == 64

    def test_any_field_changes_the_key(self):
        base = tiny(QueueSetup(kind="red", target_delay_s=us(100)))
        variants = [
            replace(base, seed=7),
            replace(base, data_bytes=base.data_bytes + 1),
            replace(base, queue=QueueSetup(kind="red", target_delay_s=us(200))),
            tiny(QueueSetup(kind="red", target_delay_s=us(100)),
                 variant=TcpVariant.DCTCP),
        ]
        keys = {config_cache_key(c) for c in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_canonical_json_is_sorted_and_stable(self):
        cfg = tiny(QueueSetup(kind="droptail"))
        doc = json.loads(canonical_config_json(cfg))
        assert list(doc) == sorted(doc)
        assert canonical_config_json(cfg) == canonical_config_json(cfg)


class TestResultCache:
    def test_round_trip_is_exact(self, tmp_path, one_cell):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(one_cell)
        got = cache.get(one_cell.config)
        assert got is not None
        assert got.metrics == one_cell.metrics
        assert got.snapshots == one_cell.snapshots
        assert got.manifest["label"] == one_cell.manifest["label"]
        assert cache.hits == 1 and cache.writes == 1

    def test_absent_entry_is_a_miss(self, tmp_path, one_cell):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.get(one_cell.config) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path, one_cell):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(one_cell)
        with open(cache.path_for(one_cell.config), "w") as fh:
            fh.write("{not json")
        assert cache.get(one_cell.config) is None

    def test_schema_drift_is_a_miss(self, tmp_path, one_cell):
        cache = ResultCache(str(tmp_path / "cache"))
        path = cache.path_for(one_cell.config)
        with open(path, "w") as fh:
            json.dump({"schema": CACHE_SCHEMA + "-old"}, fh)
        assert cache.get(one_cell.config) is None

    def test_keys_scan(self, tmp_path, one_cell):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.keys() == []
        cache.put(one_cell)
        assert cache.keys() == [config_cache_key(one_cell.config)]
        assert len(cache) == 1

    def test_cache_path_must_be_a_directory(self, tmp_path):
        f = tmp_path / "not-a-dir"
        f.write_text("x")
        with pytest.raises(ExperimentError):
            ResultCache(str(f))


class TestCacheHygiene:
    """The `repro cache` surface: entries/stats/prune + atomic writes."""

    def test_entries_report_label_size_age(self, tmp_path, one_cell):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(one_cell)
        (info,) = cache.entries()
        assert info.ok
        assert info.key == config_cache_key(one_cell.config)
        assert info.label == one_cell.config.label()
        assert info.bytes > 0 and info.age_s >= 0.0

    def test_corrupt_entry_is_visible_not_fatal(self, tmp_path, one_cell):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(one_cell)
        with open(cache.path_for(one_cell.config), "w") as fh:
            fh.write("{torn")
        (info,) = cache.entries()
        assert not info.ok and info.label is None
        assert cache.stats()["corrupt"] == 1

    def test_stats_shape(self, tmp_path, one_cell):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(one_cell)
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["corrupt"] == 0
        assert stats["bytes"] > 0 and stats["stale_tmp_files"] == 0

    def test_prune_by_age(self, tmp_path, one_cell):
        import os

        cache = ResultCache(str(tmp_path / "cache"))
        path = cache.put(one_cell)
        old = __import__("time").time() - 7200
        os.utime(path, (old, old))
        assert cache.prune(max_age_s=86400) == []
        pruned = cache.prune(max_age_s=3600)
        assert pruned == [config_cache_key(one_cell.config)]
        assert cache.entries() == []

    def test_prune_by_grid_membership(self, tmp_path, one_cell):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(one_cell)
        key = config_cache_key(one_cell.config)
        assert cache.prune(keep_keys={key}) == []
        assert cache.prune(keep_keys={"somebody-else"}, dry_run=True) == [key]
        assert len(cache) == 1  # dry run deleted nothing
        assert cache.prune(keep_keys=set()) == [key]
        assert len(cache) == 0

    def test_prune_collects_stale_tmp_files(self, tmp_path, one_cell):
        cache = ResultCache(str(tmp_path / "cache"))
        # What a SIGKILLed writer leaves behind: a partial temp file.
        tmp = tmp_path / "cache" / ("deadbeef" * 8 + ".json.123.0.tmp")
        tmp.write_text('{"partial":')
        assert cache.stats()["stale_tmp_files"] == 1
        cache.prune()
        assert cache.stale_tmp_files() == []

    def test_put_never_leaves_a_torn_entry(self, tmp_path, one_cell,
                                           monkeypatch):
        """A writer killed mid-put must not poison the final path."""
        import os

        cache = ResultCache(str(tmp_path / "cache"))
        real_replace = os.replace

        def boom(src, dst):
            raise KeyboardInterrupt  # die between write and rename

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(KeyboardInterrupt):
            cache.put(one_cell)
        monkeypatch.setattr(os, "replace", real_replace)
        # The final path never existed; only a stale tmp file remains.
        assert cache.get(one_cell.config) is None
        assert len(cache.stale_tmp_files()) == 1
        cache.put(one_cell)  # and a clean retry still lands
        assert cache.get(one_cell.config) is not None


class TestIntraSubmissionDedup:
    """Identical configs in one run_cells call execute exactly once."""

    def test_aliases_share_one_execution(self, tmp_path):
        cfg = tiny(QueueSetup(kind="droptail"))
        other = tiny(QueueSetup(kind="red", target_delay_s=us(100)))
        cells = [("first", cfg), ("other", other), ("twin", cfg)]
        cache = ResultCache(str(tmp_path / "cache"))
        seen = []
        report = run_cells(cells, cache=cache,
                           progress=lambda d, t, label: seen.append(label))
        assert report.aliases == {"twin": "first"}
        assert report.executed == ["first", "other"]
        # The alias shares the primary's result object outright.
        assert report.results["twin"] is report.results["first"]
        assert "twin [dedup]" in seen
        # One entry per distinct config, not per label.
        assert len(cache) == 2

    def test_alias_progress_counts_to_total(self):
        cfg = tiny(QueueSetup(kind="droptail"))
        seen = []
        run_cells([("a", cfg), ("b", cfg)],
                  progress=lambda d, t, label: seen.append((d, t)))
        assert seen == [(1, 2), (2, 2)]

    def test_cache_hit_beats_dedup(self, tmp_path):
        """Cached twins are both served as hits, no aliasing needed."""
        cfg = tiny(QueueSetup(kind="droptail"))
        cache = ResultCache(str(tmp_path / "cache"))
        run_cells([("warm", cfg)], cache=cache)
        report = run_cells([("a", cfg), ("b", cfg)], cache=cache)
        assert report.cached == ["a", "b"]
        assert report.aliases == {}


class TestRunCellsValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ExperimentError):
            run_cells(small_grid(), jobs=0)

    def test_duplicate_labels_rejected(self):
        cfg = tiny(QueueSetup(kind="droptail"))
        with pytest.raises(ExperimentError):
            run_cells([("dup", cfg), ("dup", cfg)])


class TestSerialParallelDeterminism:
    def test_parallel_bit_identical_and_cache_resumes(self, tmp_path):
        grid = small_grid()
        labels = [label for label, _ in grid]

        serial = run_cells(grid, jobs=1)
        assert list(serial.results) == labels
        assert serial.executed == labels and serial.cached == []

        cache = ResultCache(str(tmp_path / "cache"))
        par = run_cells(grid, jobs=4, cache=cache)
        assert list(par.results) == labels
        for label in labels:
            assert par.results[label].metrics == serial.results[label].metrics
        assert sorted(par.executed) == sorted(labels)
        assert par.cached == []
        assert len(cache) == len(labels)

        # Warm cache: the second invocation executes zero cells and still
        # returns bit-identical metrics.
        warm = run_cells(grid, jobs=4, cache=cache)
        assert warm.executed == []
        assert warm.cached == labels
        for label in labels:
            assert warm.results[label].metrics == serial.results[label].metrics

        # resume=False forces re-execution despite the warm cache.
        cold = run_cells(grid[:1], jobs=1, cache=cache, resume=False)
        assert cold.executed == labels[:1] and cold.cached == []

    def test_progress_aggregates_across_workers(self, tmp_path):
        grid = small_grid()[:2]
        seen = []
        run_cells(grid, jobs=2,
                  progress=lambda done, total, label: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_worker_error_propagates(self):
        bad = replace(tiny(QueueSetup(kind="droptail")), sim_horizon_s=0.001)
        cells = [("bad", bad), ("ok", tiny(QueueSetup(kind="droptail")))]
        with pytest.raises(ExperimentError):
            run_cells(cells, jobs=2)
