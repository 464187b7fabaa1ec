"""Tests for the hybrid fluid/packet fidelity tier.

The expensive runs (bulk cell in both fidelities, plus a hybrid repeat
and an armed-checker hybrid run) are shared module-wide through
fixtures; individual tests assert one property each.
"""

import dataclasses
import functools
from types import SimpleNamespace

import pytest

from repro.errors import ConfigError
from repro.experiments.bulkcell import BulkConfig
from repro.experiments.config import ExperimentConfig, QueueSetup
from repro.experiments.fidelity import BULK_TOLERANCES, compare_metrics
from repro.experiments.runner import run_cell
from repro.net.host import Host
from repro.tcp.endpoint import TcpListener
from repro.units import mb
from repro.validate.checkers import build_suite
from repro.validate.smoke import fingerprint, smoke_cells


@pytest.fixture(scope="module")
def bulk_pair():
    """(packet CellResult, hybrid CellResult) for the default bulk cell."""
    cfg = BulkConfig()
    packet = run_cell(cfg)
    hybrid = run_cell(dataclasses.replace(cfg, fidelity="hybrid"))
    return packet, hybrid


class TestBulkConfig:
    def test_odd_hosts_rejected(self):
        with pytest.raises(ConfigError):
            BulkConfig(n_hosts=5).validate()

    def test_zero_hosts_rejected(self):
        with pytest.raises(ConfigError):
            BulkConfig(n_hosts=0).validate()

    def test_bad_fidelity_rejected(self):
        with pytest.raises(ConfigError):
            BulkConfig(fidelity="analytic").validate()

    def test_scaled_shrinks_flow_bytes(self):
        cfg = BulkConfig(flow_bytes=1000).scaled(0.25)
        assert cfg.flow_bytes == 250
        with pytest.raises(ConfigError):
            cfg.scaled(0.0)

    def test_label_marks_hybrid(self):
        cfg = BulkConfig()
        assert "hybrid" not in cfg.label()
        hy = dataclasses.replace(cfg, fidelity="hybrid")
        assert hy.label().endswith("/hybrid")


class TestExperimentConfigFidelity:
    @staticmethod
    def _cfg(**kw):
        return ExperimentConfig(queue=QueueSetup(kind="red"), **kw)

    def test_default_is_packet(self):
        assert self._cfg().fidelity == "packet"

    def test_bad_fidelity_rejected(self):
        with pytest.raises(ConfigError):
            self._cfg(fidelity="fluid").validate()

    def test_label_marks_hybrid(self):
        assert "+hybrid" in self._cfg(fidelity="hybrid").label()


class TestBulkHybrid:
    def test_fluid_tier_engages(self, bulk_pair):
        _, hybrid = bulk_pair
        fl = hybrid.manifest["fluid"]
        assert fl["flows_adopted"] == BulkConfig().n_pairs
        assert fl["promotions"] > 0
        assert fl["fluid_completions"] == BulkConfig().n_pairs
        assert fl["fluid_bytes"] > 0.5 * hybrid.metrics.bytes_transferred

    def test_event_reduction_at_least_3x(self, bulk_pair):
        packet, hybrid = bulk_pair
        ev_packet = packet.manifest["timings"]["events"]
        ev_hybrid = hybrid.manifest["timings"]["events"]
        assert ev_packet >= 3 * ev_hybrid

    def test_metrics_within_pinned_tolerances(self, bulk_pair):
        packet, hybrid = bulk_pair
        comparison = compare_metrics(packet, hybrid)
        bad = [n for n, f in comparison["fields"].items() if not f["ok"]]
        assert comparison["ok"], f"out of tolerance: {bad}"

    def test_delivery_exact(self, bulk_pair):
        packet, hybrid = bulk_pair
        assert hybrid.metrics.bytes_transferred == packet.metrics.bytes_transferred
        assert hybrid.metrics.flows_completed == packet.metrics.flows_completed
        assert hybrid.metrics.flows_failed == 0

    def test_hybrid_deterministic(self, bulk_pair):
        _, hybrid = bulk_pair
        again = run_cell(dataclasses.replace(BulkConfig(), fidelity="hybrid"))
        assert fingerprint(again) == fingerprint(hybrid)
        assert again.manifest["fluid"] == hybrid.manifest["fluid"]

    def test_armed_checkers_silent_and_identical(self, bulk_pair):
        _, hybrid = bulk_pair
        cfg = dataclasses.replace(BulkConfig(), fidelity="hybrid")
        armed = run_cell(cfg, checks=build_suite(cfg))
        validation = armed.manifest["validation"]
        assert validation["ok"]
        assert validation["violation_count"] == 0
        assert fingerprint(armed) == fingerprint(hybrid)

    def test_packet_mode_has_no_fluid_block(self, bulk_pair):
        packet, _ = bulk_pair
        assert "fluid" not in packet.manifest

    def test_unfinished_cell_raises(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            run_cell(BulkConfig(sim_horizon_s=0.001))


class TestWrappedReceiver:
    def test_functools_wraps_receiver_still_promotes(self, monkeypatch):
        """A listener registered through a wrapped ``Host.bind`` whose
        wrapper follows ``functools.wraps`` (``__wrapped__``, no
        ``__self__``) is still found by the fluid tier's path resolver."""
        cfg = BulkConfig(n_hosts=2, flow_bytes=mb(4), fidelity="hybrid")
        plain = run_cell(cfg)
        bind = Host.bind
        wrapped = []

        def wrapping_bind(host, port, receiver):
            if isinstance(getattr(receiver, "__self__", None), TcpListener):
                inner = receiver

                @functools.wraps(inner)
                def receiver(pkt):
                    return inner(pkt)

                assert not hasattr(receiver, "__self__")
                wrapped.append(port)
            return bind(host, port, receiver)

        monkeypatch.setattr(Host, "bind", wrapping_bind)
        result = run_cell(cfg)
        assert wrapped
        assert result.manifest["fluid"]["promotions"] > 0
        assert result.manifest["fluid"] == plain.manifest["fluid"]
        assert result.metrics == plain.metrics


class TestHybridNoOp:
    def test_shuffle_cell_bit_identical(self):
        """Shared-path shuffle flows never qualify: hybrid is a no-op."""
        cfg = dict(smoke_cells())["red-default"]
        packet_fp = fingerprint(run_cell(cfg))
        hybrid = run_cell(dataclasses.replace(cfg, fidelity="hybrid"))
        assert fingerprint(hybrid) == packet_fp
        assert hybrid.manifest["fluid"]["promotions"] == 0


class TestCompareMetrics:
    def test_detects_runtime_drift(self, bulk_pair):
        packet, _ = bulk_pair
        worse = SimpleNamespace(metrics=dataclasses.replace(
            packet.metrics,
            runtime=packet.metrics.runtime
            * (1 + 2 * BULK_TOLERANCES["runtime"]),
        ))
        comparison = compare_metrics(packet, worse)
        assert not comparison["ok"]
        assert not comparison["fields"]["runtime"]["ok"]

    def test_detects_byte_mismatch(self, bulk_pair):
        packet, _ = bulk_pair
        worse = SimpleNamespace(metrics=dataclasses.replace(
            packet.metrics,
            bytes_transferred=packet.metrics.bytes_transferred - 1,
        ))
        comparison = compare_metrics(packet, worse)
        assert not comparison["ok"]
        assert not comparison["fields"]["bytes_transferred"]["ok"]

    def test_identical_metrics_pass(self, bulk_pair):
        packet, _ = bulk_pair
        assert compare_metrics(packet, packet)["ok"]
