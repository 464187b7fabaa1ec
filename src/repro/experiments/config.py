"""Experiment configuration records.

A cell of the paper's evaluation grid is (transport variant × queue setup
× buffer depth × target delay). :class:`QueueSetup` describes the switch
queue; :class:`ExperimentConfig` adds the cluster/workload parameters;
:class:`CellResult` pairs a config with its measured metrics.

Default scale: 16 nodes, 1 Gbps links, 256 MB Terasort in 8 MB blocks —
chosen (see DESIGN.md §6) so the shuffle phase is network-bound, runs
complete in seconds of wall time, and all of the paper's ordering claims
are visible. ``ExperimentConfig.scaled`` shrinks the dataset for quick
tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.core.protection import ProtectionMode
from repro.core.qdisc import QueueDisc
from repro.core.registry import qdisc_entry, qdisc_names
from repro.errors import ConfigError
from repro.sim.rng import RngRegistry
from repro.stats.collect import RunMetrics
from repro.tcp.cc import cc_names
from repro.tcp.endpoint import FLAW_PROFILES, TcpConfig, TcpVariant
from repro.units import gbps, mb, us

__all__ = [
    "SHALLOW_BUFFER_PACKETS",
    "DEEP_BUFFER_PACKETS",
    "SHALLOW_TARGET_DELAYS",
    "DEEP_TARGET_DELAYS",
    "QueueSetup",
    "ExperimentConfig",
    "CellResult",
    "validate_knobs",
    "transport_config",
    "queue_tag",
    "transport_suffix",
]

#: "Commodity switch with shallow buffers": ~100 full-size packets/port.
SHALLOW_BUFFER_PACKETS = 100

#: "Deep buffer switch": 10x the shallow density, per the paper's
#: observation that new products offer "a buffer density per port 10x bigger".
DEEP_BUFFER_PACKETS = 1000

#: Target-delay sweep of the paper grid for shallow (100-packet ≈ 1.2 ms)
#: buffers: aggressive 50 µs up to 1 ms. Beyond ~400 µs the RED band
#: (min=K, max=3K) exceeds the physical buffer and the AQM degenerates
#: into DropTail — the sweep deliberately includes that regime, as the
#: paper's "loose settings" do.
SHALLOW_TARGET_DELAYS = (us(50), us(100), us(200), us(500), us(1000))

#: Target-delay sweep for deep (1000-packet ≈ 12 ms) buffers.
DEEP_TARGET_DELAYS = (us(100), us(500), us(1000), us(2000), us(5000))


@dataclass(frozen=True)
class QueueSetup:
    """Switch egress queue configuration.

    Attributes
    ----------
    kind:
        Any key in the queue-discipline registry
        (:mod:`repro.core.registry`): ``"droptail"``, ``"red"``,
        ``"marking"``, ``"codel"`` (target delay maps onto CoDel's target
        sojourn time with a 10x control interval), ``"curvyred"``
        (Briscoe's power-law mark/drop ramps) or ``"tinybuffer"``
        (shallow-threshold marking in a tiny physical buffer).
    buffer_packets:
        Physical per-port buffer.
    target_delay_s:
        Threshold parameterisation for red/marking (ignored by droptail).
    protection:
        Early-drop protection mode (red only).
    dctcp_style_red:
        Collapse RED to the single-threshold instantaneous configuration.
    """

    kind: str
    buffer_packets: int = SHALLOW_BUFFER_PACKETS
    target_delay_s: Optional[float] = None
    protection: ProtectionMode = ProtectionMode.DEFAULT
    dctcp_style_red: bool = False

    def validate(self) -> "QueueSetup":
        """Raise :class:`ConfigError` on nonsensical values; return self."""
        entry = qdisc_entry(self.kind)  # raises on unknown kinds
        if entry.needs_target_delay and self.target_delay_s is None:
            raise ConfigError(f"{self.kind} queues need a target delay")
        if self.buffer_packets <= 0:
            raise ConfigError("buffer must be positive")
        return self

    @property
    def is_deep(self) -> bool:
        """True for the deep-buffer variant."""
        return self.buffer_packets >= DEEP_BUFFER_PACKETS

    def build(self, name: str, link_rate_bps: float, rng: RngRegistry) -> QueueDisc:
        """Instantiate the queue for one port via the qdisc registry."""
        self.validate()
        return qdisc_entry(self.kind).builder(self, name, link_rate_bps, rng)

    def label(self) -> str:
        """Short series label as used in the paper's legends."""
        return qdisc_entry(self.kind).label(self)


# -- knobs several config families share, duck-typed over the config so a new
# transport knob is threaded through here once instead of through every family


def validate_knobs(config) -> None:
    """Raise :class:`ConfigError` on an unknown fidelity tier, cc key or
    flaw profile, or a set ``monitor_interval_s`` that is not positive
    (fields a config does not have are skipped)."""
    fidelity = getattr(config, "fidelity", "packet")
    if fidelity not in ("packet", "hybrid"):
        raise ConfigError(f"unknown fidelity {fidelity!r}")
    interval = getattr(config, "monitor_interval_s", None)
    if interval is not None and interval <= 0:
        raise ConfigError(
            f"monitor_interval_s must be positive, got {interval}")
    cc = getattr(config, "cc", None)
    if cc is not None and cc not in cc_names():
        raise ConfigError(
            f"unknown cc {cc!r}; known: {', '.join(cc_names())}")
    flaw = getattr(config, "flaw_profile", None)
    if flaw is not None and flaw not in FLAW_PROFILES:
        raise ConfigError(
            f"unknown flaw profile {flaw!r}; "
            f"known: {', '.join(sorted(FLAW_PROFILES))}")


def transport_config(config, **knobs) -> TcpConfig:
    """The :class:`TcpConfig` for a config's variant + cc + flaw profile."""
    return TcpConfig(variant=config.variant, cc=config.cc,
                     **knobs).with_flaw_profile(config.flaw_profile)


def queue_tag(config) -> str:
    """``<queue label>[@<N>us]`` label fragment for a config's queue."""
    queue = config.queue
    if queue.target_delay_s is None:
        return queue.label()
    return f"{queue.label()}@{queue.target_delay_s * 1e6:.0f}us"


def transport_suffix(config) -> str:
    """``+<cc>`` / ``!<flaw>`` label suffix (empty on the defaults)."""
    suffix = f"+{config.cc}" if config.cc is not None else ""
    if config.flaw_profile is not None:
        suffix += f"!{config.flaw_profile}"
    return suffix


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid cell: cluster + workload + transport + queue."""

    queue: QueueSetup
    variant: TcpVariant = TcpVariant.ECN
    n_hosts: int = 16
    link_rate_bps: float = gbps(1)
    link_delay_s: float = us(20)
    data_bytes: int = mb(256)
    block_bytes: int = mb(8)
    n_reducers: int = 16
    seed: int = 42
    shuffle_parallelism: int = 5
    replication: int = 3
    sim_horizon_s: float = 600.0
    monitor_interval_s: Optional[float] = None  # enable queue snapshots
    #: If True, a job still running at the horizon yields metrics with
    #: ``runtime = sim_horizon_s`` and ``extra["timed_out"] = 1`` instead of
    #: raising — pathological grid cells (the paper's worst misconfigurations
    #: can effectively blackhole ACKs) then report "at least this bad".
    allow_timeout: bool = False
    #: ``"packet"`` simulates every packet; ``"hybrid"`` lets long bulk
    #: flows on quiescent exclusive paths advance analytically between
    #: congestion events (see :mod:`repro.sim.fluid`). Part of the cache
    #: key: hybrid and packet results are cached separately.
    fidelity: str = "packet"
    #: Congestion-control registry key (:mod:`repro.tcp.cc`); ``None``
    #: keeps the variant's historical default (newreno / dctcp).
    cc: Optional[str] = None
    #: Endpoint-fidelity flaw profile (``repro.tcp.endpoint.FLAW_PROFILES``);
    #: ``None`` runs the corrected stack.
    flaw_profile: Optional[str] = None

    def validate(self) -> "ExperimentConfig":
        """Raise :class:`ConfigError` on nonsensical values; return self."""
        self.queue.validate()
        if self.n_hosts < 2:
            raise ConfigError("need at least 2 hosts")
        if self.data_bytes <= 0 or self.block_bytes <= 0:
            raise ConfigError("sizes must be positive")
        validate_knobs(self)
        return self

    def scaled(self, factor: float) -> "ExperimentConfig":
        """Copy with the dataset scaled by ``factor`` (for quick runs)."""
        if factor <= 0:
            raise ConfigError(f"scale factor must be positive, got {factor}")
        return replace(self, data_bytes=max(1, int(self.data_bytes * factor)))

    def tcp_config(self) -> TcpConfig:
        """Transport configuration for this cell."""
        return transport_config(self)

    def label(self) -> str:
        """Human-readable cell id."""
        depth = "deep" if self.queue.is_deep else "shallow"
        suffix = "+hybrid" if self.fidelity == "hybrid" else ""
        suffix += transport_suffix(self)
        return f"{self.variant}/{queue_tag(self)}/{depth}{suffix}"


@dataclass
class CellResult:
    """A config plus everything measured when running it."""

    #: The config that was run: any registered cell kind's dataclass.
    config: Any
    metrics: RunMetrics
    snapshots: list = field(default_factory=list)
    #: JSON-serialisable run manifest (config + seed + version + timings +
    #: metrics; see :mod:`repro.telemetry.manifest`). Populated by
    #: :func:`~repro.experiments.runner.run_cell`.
    manifest: Optional[dict] = None

    def write_manifest(self, path: str) -> str:
        """Write the manifest as JSON; returns the path."""
        from repro.telemetry.manifest import write_manifest

        if self.manifest is None:
            raise ConfigError("this CellResult carries no manifest")
        return write_manifest(self.manifest, path)

    @property
    def runtime(self) -> float:
        """Job runtime (seconds)."""
        return self.metrics.runtime

    @property
    def throughput_per_node(self) -> float:
        """Mean per-node goodput (bits/second)."""
        return self.metrics.throughput_per_node_bps

    @property
    def latency(self) -> float:
        """Mean end-to-end per-packet latency (seconds)."""
        return self.metrics.mean_latency
