"""Tests for the leaf-spine experiment extension."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.experiments import (
    ExperimentConfig,
    MultiRackConfig,
    QueueSetup,
    run_cell,
)
from repro.tcp import TcpVariant
from repro.units import gbps, mb, us


def tiny_base(queue=None, variant=TcpVariant.ECN):
    return replace(
        ExperimentConfig(
            queue=queue or QueueSetup(kind="droptail"),
            variant=variant,
            allow_timeout=True,
        ),
        data_bytes=mb(8), block_bytes=mb(1),
    )


def tiny_cell(**kw):
    return MultiRackConfig(base=tiny_base(kw.pop("queue", None),
                                          kw.pop("variant", TcpVariant.ECN)),
                           n_leaves=2, n_spines=2, hosts_per_leaf=2, **kw)


class TestConfig:
    def test_host_count(self):
        cfg = MultiRackConfig(base=tiny_base(), n_leaves=4, n_spines=2,
                              hosts_per_leaf=4)
        assert cfg.n_hosts == 16

    def test_uplink_rate_nonblocking(self):
        cfg = MultiRackConfig(base=tiny_base(), n_leaves=2, n_spines=2,
                              hosts_per_leaf=4, oversubscription=1.0)
        # 4 hosts x 1G split over 2 spines = 2G per uplink.
        assert cfg.uplink_rate_bps() == pytest.approx(gbps(2))

    def test_uplink_rate_oversubscribed(self):
        cfg = MultiRackConfig(base=tiny_base(), n_leaves=2, n_spines=2,
                              hosts_per_leaf=4, oversubscription=2.0)
        assert cfg.uplink_rate_bps() == pytest.approx(gbps(1))

    def test_validation(self):
        with pytest.raises(ConfigError):
            MultiRackConfig(base=tiny_base(), n_leaves=1).validate()
        with pytest.raises(ConfigError):
            MultiRackConfig(base=tiny_base(), oversubscription=0.5).validate()


class TestRuns:
    def test_droptail_completes(self):
        cell = run_cell(tiny_cell())
        assert cell.metrics.runtime > 0
        assert cell.metrics.extra["timed_out"] == 0.0

    def test_marking_lowest_latency(self):
        dt = run_cell(tiny_cell())
        mk = run_cell(tiny_cell(
            queue=QueueSetup(kind="marking", target_delay_s=us(100)),
            variant=TcpVariant.DCTCP,
        ))
        assert mk.metrics.mean_latency < dt.metrics.mean_latency

    def test_deterministic(self):
        a = run_cell(tiny_cell())
        b = run_cell(tiny_cell())
        assert a.metrics.runtime == b.metrics.runtime

    def test_oversubscription_slows_shuffle(self):
        fast = run_cell(tiny_cell(oversubscription=1.0))
        slow = run_cell(tiny_cell(oversubscription=4.0))
        assert slow.metrics.runtime > fast.metrics.runtime


class TestUplinkMonitoring:
    """Regression: multirack cells must observe the fabric uplinks, not
    just ToR downlinks, when queue monitoring is enabled."""

    def test_snapshots_cover_uplink_queues(self):
        cfg = tiny_cell()
        cfg = replace(cfg, base=replace(cfg.base, monitor_interval_s=0.001))
        cell = run_cell(cfg)
        assert cell.snapshots
        queues = {s.queue for s in cell.snapshots}
        assert any("spine" in q for q in queues)  # uplinks observed
        assert any(q.startswith("leaf") and "->h" in q for q in queues)

    def test_no_monitoring_without_interval(self):
        cell = run_cell(tiny_cell())
        assert cell.snapshots == []
