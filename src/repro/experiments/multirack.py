"""Multi-rack (leaf–spine) experiment extension.

The paper evaluates a single rack; its conclusions section expects the
findings to generalise. This module runs the same scaled Terasort on a
two-tier leaf–spine fabric with configurable oversubscription, so the
ACK-drop pathology and the fixes can be examined where cross-rack
shuffle flows share spine uplinks with returning ACKs.

Oversubscription is expressed the usual way: a factor F means each
leaf's aggregate uplink capacity is 1/F of its host-facing capacity
(implemented by scaling the per-uplink rate, keeping one uplink per
spine).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig
from repro.experiments.kinds import register_kind
from repro.experiments.runner import TerasortCell
from repro.net.topology import build_leaf_spine
from repro.tcp.endpoint import TcpConfig

__all__ = ["MultiRackConfig", "MultiRackCell"]


@dataclass(frozen=True)
class MultiRackConfig:
    """Leaf-spine variant of one experiment cell.

    ``base`` supplies the queue/transport/workload knobs; ``n_hosts``
    in base is ignored in favour of the rack dimensions here.
    """

    base: ExperimentConfig
    n_leaves: int = 4
    n_spines: int = 2
    hosts_per_leaf: int = 4
    oversubscription: float = 1.0

    def validate(self) -> "MultiRackConfig":
        """Raise :class:`ConfigError` on nonsensical values; return self."""
        self.base.validate()
        if self.n_leaves < 2:
            raise ConfigError("need >= 2 leaves for cross-rack traffic")
        if self.n_spines < 1 or self.hosts_per_leaf < 1:
            raise ConfigError("rack dimensions must be positive")
        if self.oversubscription < 1.0:
            raise ConfigError("oversubscription factor must be >= 1")
        return self

    @property
    def n_hosts(self) -> int:
        """Total host count across all leaves."""
        return self.n_leaves * self.hosts_per_leaf

    def uplink_rate_bps(self) -> float:
        """Per-spine uplink rate honouring the oversubscription factor."""
        aggregate_host = self.hosts_per_leaf * self.base.link_rate_bps
        return aggregate_host / (self.oversubscription * self.n_spines)

    # -- what the shared harness reads, taken from the base cell --------------

    @property
    def seed(self) -> int:
        """The base cell's seed."""
        return self.base.seed

    def tcp_config(self) -> TcpConfig:
        """Transport configuration (the base cell's)."""
        return self.base.tcp_config()

    def label(self) -> str:
        """Human-readable cell id, ``multirack/``-prefixed."""
        return (f"multirack/{self.base.label()}/{self.n_leaves}x"
                f"{self.hosts_per_leaf}s{self.n_spines}"
                f"/o{self.oversubscription:g}")


@register_kind("multirack", "multirack-cell", MultiRackConfig)
class MultiRackCell(TerasortCell):
    """The Terasort cell on a leaf–spine fabric, one reducer per host.

    ``hot_ports`` folds in the leaf↔spine uplinks, so when the base
    config asks for monitoring the oversubscribed fabric bottleneck is
    observed, not just the ToR downlinks.
    """

    def __init__(self, config: MultiRackConfig, *run):
        # The Terasort side runs on the base cell resized to the fabric.
        super().__init__(replace(config.base, n_hosts=config.n_hosts,
                                 n_reducers=config.n_hosts), *run)
        self.clos = config

    def build_topology(self):
        f = self.clos
        return self.fabric(build_leaf_spine,
                           f.n_leaves, f.n_spines, f.hosts_per_leaf,
                           uplink_rate_bps=f.uplink_rate_bps())

    def collect(self):
        fields = super().collect()
        fields["extra"]["oversubscription"] = self.clos.oversubscription
        return fields
