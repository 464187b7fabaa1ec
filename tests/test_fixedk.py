"""Tests for the Fixed-K ECN experiment family."""

from dataclasses import replace

import pytest

from repro.core.protection import ProtectionMode
from repro.errors import ConfigError
from repro.experiments.cache import config_cache_key
from repro.experiments.fixedk import (
    FixedKConfig,
    build_regime_maps,
    fixedk_grid,
    fixedk_smoke_cells,
    render_fixedk_table,
    render_regime_grid,
)
from repro.experiments.runner import run_cell
from repro.tcp.endpoint import TcpVariant
from repro.units import gbps


def tiny(**kw):
    """A fast 4-host cell: 2 leaves x 1 spine x 2 hosts per leaf."""
    defaults = dict(
        k_packets=8, load=0.5, fanout=2,
        n_leaves=2, n_spines=1, hosts_per_leaf=2,
        duration_s=0.05, drain_s=0.1, monitor_interval_s=0.001,
    )
    defaults.update(kw)
    return FixedKConfig(**defaults)


class TestConfig:
    def test_validates_clean_default(self):
        assert FixedKConfig().validate() is not None

    @pytest.mark.parametrize("kw", [
        dict(k_packets=0),
        dict(k_packets=101, buffer_packets=100),
        dict(load=0.0),
        dict(load=2.5),
        dict(n_leaves=1),
        dict(fanout=0),
        dict(fanout=99),
        dict(oversubscription=0.5),
        dict(uplink_rates_bps=(gbps(1),), n_spines=2),
        dict(duration_s=0.0),
        dict(monitor_interval_s=1e9),
        dict(max_p=0.0),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            replace(FixedKConfig(), **kw).validate()

    def test_uniform_uplink_rates_from_oversubscription(self):
        cfg = FixedKConfig(hosts_per_leaf=4, n_spines=2,
                           link_rate_bps=gbps(1), oversubscription=2.0)
        # 4 hosts x 1G over (2.0 x 2 spines) = 1G per uplink.
        assert cfg.uplink_rates() == (pytest.approx(gbps(1)),) * 2

    def test_asymmetric_rates_respected(self):
        cfg = FixedKConfig(n_spines=2,
                           uplink_rates_bps=(gbps(1), gbps(0.5)))
        assert cfg.uplink_rates() == (gbps(1), gbps(0.5))

    def test_fanin_capacity_is_min_of_edge_and_plane(self):
        # Slow fabric plane: the spine->leaf0 sum is the bottleneck.
        slow = FixedKConfig(n_spines=2, link_rate_bps=gbps(1),
                            uplink_rates_bps=(gbps(0.2), gbps(0.2)))
        assert slow.fanin_capacity_bps() == pytest.approx(gbps(0.4))
        # Fat plane: the aggregator's edge link caps the fan-in.
        fat = FixedKConfig(n_spines=2, link_rate_bps=gbps(1),
                           uplink_rates_bps=(gbps(2), gbps(2)))
        assert fat.fanin_capacity_bps() == pytest.approx(gbps(1))

    def test_rate_tracks_load(self):
        cfg = FixedKConfig(load=0.5)
        assert (replace(cfg, load=1.0).rate_qps()
                == pytest.approx(2 * cfg.rate_qps()))

    def test_red_params_are_fixed_k(self):
        p = FixedKConfig(k_packets=16,
                         protection=ProtectionMode.ECE).red_params()
        assert p.min_th == p.max_th == 16.0
        assert not p.gentle and p.use_instantaneous and p.ecn
        assert p.protection is ProtectionMode.ECE
        p.validate()

    def test_label_round_trips_axes(self):
        cfg = FixedKConfig(k_packets=32, load=0.8, fanout=8,
                           protection=ProtectionMode.ACK_SYN,
                           variant=TcpVariant.DCTCP)
        label = cfg.label()
        for token in ("K32", "l0.8", "n8", "ack+syn", "dctcp"):
            assert token in label

    def test_cacheable(self):
        key = config_cache_key(tiny())
        assert isinstance(key, str) and key
        assert key == config_cache_key(tiny())
        assert key != config_cache_key(tiny(k_packets=9))


class TestGrid:
    def test_default_grid_shape_and_unique_labels(self):
        cells = fixedk_grid()
        # 5 K x 2 loads x 2 fanouts x 3 protections x 2 variants x 1 seed
        assert len(cells) == 5 * 2 * 2 * 3 * 2
        labels = [label for label, _ in cells]
        assert len(set(labels)) == len(labels)
        for label, cfg in cells:
            assert label == cfg.label()
            cfg.validate()

    def test_smoke_grid_is_pinned_and_small(self):
        cells = fixedk_smoke_cells()
        assert len(cells) == 8  # 2 K x 2 fan-ins x 2 protections
        ks = {c.k_packets for _, c in cells}
        fanouts = {c.fanout for _, c in cells}
        prots = {c.protection for _, c in cells}
        assert len(ks) == 2 and len(fanouts) == 2 and len(prots) == 2
        for _, cfg in cells:
            cfg.validate()
            assert cfg.duration_s <= 0.2  # stays CI-fast


class TestRun:
    def test_cell_produces_fixedk_manifest(self):
        cell = run_cell(tiny())
        assert cell.manifest["kind"] == "fixedk-cell"
        fx = cell.manifest["fixedk"]
        assert fx["schema"] == "repro.fixedk/v1"
        assert fx["k_packets"] == 8
        assert fx["rpc"]["queries_completed"] > 0
        assert fx["rpc"]["responses"]["slowdown"]["p99"] >= 1.0
        up = fx["uplinks"]
        assert up["ports"] == 4  # 2 leaves x 1 spine x both directions
        assert up["arrivals"] > 0
        assert 0.0 <= up["ack_loss_rate"] <= 1.0
        assert len(up["per_port"]) == 4

    def test_monitors_cover_uplinks_and_aggregator_downlink(self):
        cell = run_cell(tiny())
        queues = {s.queue for s in cell.snapshots}
        assert "leaf0->spine0" in queues
        assert "spine0->leaf0" in queues
        assert "leaf0->h0_0" in queues  # the aggregator's ToR downlink

    def test_deterministic_and_dispatched(self):
        from repro.validate.smoke import fingerprint

        a = run_cell(tiny())       # via the run_cell dispatch branch
        b = run_cell(tiny())
        assert a.manifest["kind"] == "fixedk-cell"
        assert fingerprint(a) == fingerprint(b)

    def test_every_response_crosses_the_fabric(self):
        cell = run_cell(tiny())
        up = cell.manifest["fixedk"]["uplinks"]
        rpc = cell.manifest["fixedk"]["rpc"]
        # Each completed response is >= response_bytes across the spine.
        assert up["arrivals"] >= rpc["responses"]["flows"]


class TestReporting:
    def run_pair(self):
        results = {}
        for k in (8, 64):
            cfg = tiny(k_packets=k)
            results[cfg.label()] = run_cell(cfg)
        return results

    def test_regime_maps_and_renderers(self):
        from repro.plotting import grid_regime_map_to_svg

        results = self.run_pair()
        maps = build_regime_maps(results)
        assert len(maps) == 1  # one (variant, protection, fanout) slice
        m = maps[0]
        assert m.k_values == [8, 64]
        assert m.loads == [0.5]
        assert set(m.cells) == {(0, 0), (1, 0)}
        for point in m.cells.values():
            assert point["classification"] in (
                "stable", "limit-cycle", "chaotic-irregular")
        # Stability blocks were stamped onto the cells as a side effect.
        for cell in results.values():
            assert "stability" in cell.manifest

        d = m.to_dict()
        assert len(d["points"]) == 2

        ascii_grid = render_regime_grid(m)
        assert "load \\ K" in ascii_grid

        svg = grid_regime_map_to_svg(m)
        assert svg.startswith("<svg") and "</svg>" in svg

    def test_table_lists_every_cell(self):
        results = self.run_pair()
        table = render_fixedk_table(results)
        for label in results:
            assert label in table
        assert "slow_p99" in table and "ack_loss" in table
