"""Bulk-transfer cell family — the hybrid fidelity tier's showcase.

A :class:`BulkConfig` runs ``n_hosts/2`` long TCP flows on a single rack
in a **pairs** pattern: host ``2i`` streams ``flow_bytes`` to host
``2i+1``. Every flow's forward path (src uplink → ToR → dst downlink)
and reverse ACK path use ports no other flow touches, so with
``fidelity="hybrid"`` each flow satisfies the exclusive-path condition
of :mod:`repro.sim.fluid` and — after the initial packet-level slow
start and first ECN cut — rides the fluid recurrence to completion.
(The circular permutation pattern would NOT qualify: flow *i*'s ACKs
share host *i+1*'s uplink with flow *i+1*'s data.)

Link delay is deliberately WAN-ish for a rack (default 500 µs): a large
bandwidth-delay product keeps congestion-avoidance windows below the
marking threshold for long stretches, which is exactly the regime the
fluid tier accelerates. The same config with ``fidelity="packet"`` is
the baseline for the hybrid-vs-packet tolerance checks and the
``repro bench`` speedup measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.core.marking import SimpleMarkingQueue
from repro.core.target_delay import threshold_packets
from repro.errors import ConfigError, ExperimentError
from repro.experiments.config import validate_knobs
from repro.experiments.kinds import CellKind, flow_fields, register_kind
from repro.tcp.endpoint import TcpConfig, TcpListener, TcpVariant
from repro.tcp.flow import FlowResult, start_bulk_flow
from repro.units import gbps, mb, us

__all__ = ["BULK_PORT", "BulkConfig", "BulkCell"]

#: Destination port every bulk pair uses (one listener per receiving host).
BULK_PORT = 7000


@dataclass(frozen=True)
class BulkConfig:
    """One bulk cell: disjoint host pairs, marking queues, long flows."""

    n_hosts: int = 8
    link_rate_bps: float = gbps(1)
    link_delay_s: float = us(500)
    flow_bytes: int = mb(8)
    buffer_packets: int = 400
    target_delay_s: float = us(500)
    variant: TcpVariant = TcpVariant.ECN
    fidelity: str = "packet"
    seed: int = 42
    sim_horizon_s: float = 60.0

    @property
    def n_pairs(self) -> int:
        """Number of concurrent disjoint flows."""
        return self.n_hosts // 2

    def validate(self) -> "BulkConfig":
        """Raise :class:`ConfigError` on nonsensical values; return self."""
        if self.n_hosts < 2 or self.n_hosts % 2:
            raise ConfigError(
                f"bulk cells pair hosts: n_hosts must be even >= 2, "
                f"got {self.n_hosts}")
        if self.flow_bytes <= 0:
            raise ConfigError("flow_bytes must be positive")
        if self.buffer_packets <= 0:
            raise ConfigError("buffer must be positive")
        if self.target_delay_s <= 0:
            raise ConfigError("target delay must be positive")
        validate_knobs(self)
        return self

    def scaled(self, factor: float) -> "BulkConfig":
        """Copy with the per-flow volume scaled (for quick runs)."""
        if factor <= 0:
            raise ConfigError(f"scale factor must be positive, got {factor}")
        return replace(self, flow_bytes=max(1, int(self.flow_bytes * factor)))

    def tcp_config(self) -> TcpConfig:
        """Transport configuration for the bulk flows."""
        return TcpConfig(variant=self.variant)

    def mark_threshold(self) -> float:
        """The marking K (packets) every queue in the cell uses."""
        return threshold_packets(self.target_delay_s, self.link_rate_bps)

    def label(self) -> str:
        """Human-readable cell id, ``bulk/``-prefixed (grid-unique)."""
        suffix = "/hybrid" if self.fidelity == "hybrid" else ""
        return (f"bulk/{self.variant}/p{self.n_pairs}"
                f"x{self.flow_bytes}B/s{self.seed}{suffix}")


@register_kind("bulk", "bulk-cell", BulkConfig)
class BulkCell(CellKind):
    """Disjoint host pairs streaming through marking queues.

    In hybrid mode the harness' ``manifest["fluid"]`` block records
    promotions, demotions (by reason) and the fluid byte/packet share.
    """

    def qdisc(self, name: str):
        c = self.config
        return SimpleMarkingQueue(c.buffer_packets, c.mark_threshold(),
                                  name=name)

    def start(self) -> None:
        config, sim, hosts = self.config, self.sim, self.spec.hosts
        tcp = config.tcp_config()
        self.results: List[FlowResult] = []
        n_pairs = config.n_pairs

        def on_done(res: FlowResult) -> None:
            self.results.append(res)
            if len(self.results) >= n_pairs:
                sim.stop()

        for i in range(n_pairs):
            TcpListener(sim, hosts[2 * i + 1], BULK_PORT, tcp)
        for i in range(n_pairs):
            start_bulk_flow(
                sim, hosts[2 * i], hosts[2 * i + 1], BULK_PORT,
                config.flow_bytes, tcp, on_done=on_done,
            )

    def collect(self):
        config, results = self.config, self.results
        if len(results) < config.n_pairs:
            raise ExperimentError(
                f"cell {config.label()}: {config.n_pairs - len(results)} of "
                f"{config.n_pairs} flows unfinished at "
                f"t={config.sim_horizon_s}s")
        return flow_fields(
            results,
            max(r.end_time for r in results),
            sum(r.nbytes for r in results if not r.failed),
            {
                "mark_threshold_packets": config.mark_threshold(),
                "fct_max_s": max(r.fct for r in results),
            },
        )
