"""Mixed-cluster coexistence cells: shuffle + RPC + background traffic.

The paper's core scenario is a *mixed-use* Hadoop cluster: a batch
shuffle sharing the fabric with latency-sensitive services. The main
grid (:mod:`repro.experiments.grids`) measures the shuffle alone; a
:class:`MixConfig` cell runs the shuffle **concurrently** with a
partition-aggregate RPC service (with per-query deadlines) and an
open-loop background flow mix drawn from an empirical CDF, then reports
per-workload results side by side: job runtime, RPC deadline-miss rate
and query-completion tail, and background FCT slowdown percentiles.

Mix cells are the ``"mix"`` cell kind (:class:`MixCell`): the shared
harness in :mod:`repro.experiments.runner` runs them like any other
config, and the per-workload buckets land under
``manifest["workloads"]``.

:func:`mix_grid` is the coexistence comparison: {DropTail, RED-default,
RED-ECE, RED-ACK+SYN, simple-marking} × {TCP-ECN, DCTCP}, the paper's
schemes ranked by how well the latency-sensitive co-tenants survive the
shuffle. :func:`render_mix_table` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.protection import ProtectionMode
from repro.errors import ConfigError
from repro.experiments.config import (
    SHALLOW_BUFFER_PACKETS,
    CellResult,
    QueueSetup,
    queue_tag,
    transport_config,
    transport_suffix,
    validate_knobs,
)
from repro.experiments.kinds import flow_fields, register_kind
from repro.experiments.runner import TerasortCell
from repro.tcp.endpoint import TcpConfig, TcpVariant
from repro.units import gbps, mb, us
from repro.workloads.cdf import named_cdf
from repro.workloads.metrics import flow_bucket
from repro.workloads.mix import WorkloadMix

__all__ = ["MixConfig", "MixCell", "mix_grid", "render_mix_table"]


@dataclass(frozen=True)
class MixConfig:
    """One coexistence cell: shuffle + RPC + background on one rack.

    The shuffle fields mirror :class:`ExperimentConfig`; the ``rpc_*``
    and ``bg_*`` fields describe the two latency-sensitive co-tenants.
    ``bg_sizes`` is a CDF spec string (``"web-search"``,
    ``"data-mining"``, ``"fixed:N"``, ``"uniform:LO:HI"`` — see
    :func:`repro.workloads.cdf.named_cdf`), truncated at
    ``bg_max_bytes`` so one elephant draw cannot dominate a smoke run.
    """

    queue: QueueSetup
    variant: TcpVariant = TcpVariant.ECN
    n_hosts: int = 16
    link_rate_bps: float = gbps(1)
    link_delay_s: float = us(20)
    # batch co-tenant: the Terasort shuffle
    data_bytes: int = mb(64)
    block_bytes: int = mb(8)
    n_reducers: int = 16
    shuffle_parallelism: int = 5
    replication: int = 3
    # latency-sensitive co-tenant 1: partition-aggregate RPC
    rpc_rate_qps: float = 100.0
    rpc_fanout: int = 8
    rpc_response_bytes: int = 20_000
    rpc_deadline_s: Optional[float] = 0.02
    # latency-sensitive co-tenant 2: open-loop background flows
    bg_rate_fps: float = 25.0
    bg_sizes: str = "web-search"
    bg_max_bytes: Optional[int] = mb(1)
    seed: int = 42
    sim_horizon_s: float = 600.0
    #: After the shuffle finishes the workloads stop and the run drains
    #: for this long, so in-flight queries/flows can complete. Fixed (not
    #: load-dependent), keeping same-seed runs bit-identical.
    drain_s: float = 0.25
    monitor_interval_s: Optional[float] = None
    allow_timeout: bool = False
    #: Congestion-control registry key (:mod:`repro.tcp.cc`); ``None``
    #: keeps the variant's historical default (newreno / dctcp).
    cc: Optional[str] = None
    #: Endpoint-fidelity flaw profile (``repro.tcp.endpoint.FLAW_PROFILES``);
    #: ``None`` runs the corrected stack.
    flaw_profile: Optional[str] = None

    def validate(self) -> "MixConfig":
        """Raise :class:`ConfigError` on nonsensical values; return self."""
        self.queue.validate()
        validate_knobs(self)
        if self.n_hosts < 2:
            raise ConfigError("need at least 2 hosts")
        if self.data_bytes <= 0 or self.block_bytes <= 0:
            raise ConfigError("sizes must be positive")
        if self.rpc_rate_qps <= 0 or self.bg_rate_fps <= 0:
            raise ConfigError("workload rates must be positive")
        if not (1 <= self.rpc_fanout <= self.n_hosts - 1):
            raise ConfigError(
                f"rpc fanout {self.rpc_fanout} needs 1..{self.n_hosts - 1}")
        if self.drain_s < 0:
            raise ConfigError("drain must be non-negative")
        named_cdf(self.bg_sizes)  # raises ConfigError on a bad spec
        return self

    def scaled(self, factor: float) -> "MixConfig":
        """Copy with the shuffle dataset scaled by ``factor``."""
        if factor <= 0:
            raise ConfigError(f"scale factor must be positive, got {factor}")
        return replace(self, data_bytes=max(1, int(self.data_bytes * factor)))

    def tcp_config(self) -> TcpConfig:
        """Transport configuration for this cell (shared by all tenants)."""
        return transport_config(self)

    def bg_cdf(self):
        """The background flow-size CDF, truncated at ``bg_max_bytes``."""
        cdf = named_cdf(self.bg_sizes)
        if self.bg_max_bytes is not None:
            cdf = cdf.truncated(self.bg_max_bytes)
        return cdf

    def label(self) -> str:
        """Human-readable cell id, ``mix/``-prefixed."""
        depth = "deep" if self.queue.is_deep else "shallow"
        return (f"mix/{self.variant}/{queue_tag(self)}/{depth}"
                f"{transport_suffix(self)}")


@register_kind("mix", "mix-cell", MixConfig)
class MixCell(TerasortCell):
    """The Terasort shuffle with an RPC service and background flows.

    The RPC and background workloads start at t=0 and run until the
    shuffle completes; then everything stops and the run drains for
    ``config.drain_s``. ``RunMetrics`` stay shuffle-centric (runtime,
    bytes) with effort counters over all tenants' flows, and
    ``manifest["workloads"]`` carries one bucket per workload —
    ``shuffle``, ``rpc`` and ``background``.
    """

    def setup(self) -> None:
        config, rng = self.config, self.rng
        tcp_cfg = config.tcp_config()
        self.mix = WorkloadMix(self.sim, self.spec.hosts, config.link_rate_bps)
        self.mix.add_rpc(
            "rpc", tcp_cfg, rng.stream("workload.rpc"),
            rate_qps=config.rpc_rate_qps, fanout=config.rpc_fanout,
            response_bytes=config.rpc_response_bytes,
            deadline_s=config.rpc_deadline_s,
        )
        self.mix.add_open_loop(
            "background", tcp_cfg, rng.stream("workload.bg"),
            rate_fps=config.bg_rate_fps, sizes=config.bg_cdf(),
        )
        super().setup()

    def job_done(self, _result) -> None:
        # Shuffle over: stop offering load, drain in-flight work, halt.
        self.mix.stop_all()
        self.sim.schedule(self.config.drain_s, self.sim.stop)

    def start(self) -> None:
        super().start()
        self.mix.start()

    def collect(self):
        config, engine, mix = self.config, self.engine, self.mix
        timed_out, runtime, bytes_shuffled = self.shuffle_outcome()
        if timed_out:
            mix.stop_all()
        shuffle_flows = engine.shuffle_flow_results()
        rpc = mix["rpc"]
        bg = mix["background"]
        workloads = self.manifest_blocks["workloads"] = mix.summary()
        shuffle_bucket = flow_bucket(shuffle_flows, config.link_rate_bps)
        shuffle_bucket["kind"] = "shuffle"
        shuffle_bucket["runtime_s"] = runtime
        shuffle_bucket["bytes_shuffled"] = int(bytes_shuffled)
        workloads["shuffle"] = shuffle_bucket
        return flow_fields(
            shuffle_flows + rpc.flow_results + bg.results,
            runtime, bytes_shuffled,
            {
                "timed_out": 1.0 if timed_out else 0.0,
                "fetch_failures": float(engine.fetch_failures()),
                "rpc_deadline_miss_rate": rpc.deadline_miss_rate(),
                "rpc_queries_completed": float(len(rpc.results)),
                "bg_flows_completed": float(
                    sum(1 for f in bg.results if not f.failed)),
            },
        )


#: Queue schemes compared in the coexistence table, in rank order of the
#: paper's story: the broken default, the two fixes, the clean-slate
#: marking scheme, and the DropTail baseline.
MIX_SCHEMES: Tuple[Tuple[str, str, ProtectionMode], ...] = (
    ("droptail-shallow", "droptail", ProtectionMode.DEFAULT),
    ("red-default", "red", ProtectionMode.DEFAULT),
    ("red-ece", "red", ProtectionMode.ECE),
    ("red-ack+syn", "red", ProtectionMode.ACK_SYN),
    ("marking", "marking", ProtectionMode.DEFAULT),
)

#: RED/marking threshold for the coexistence cells (mid-sweep value).
MIX_TARGET_DELAY_S = us(200)


def mix_grid(scale: float = 1.0, seed: int = 42) -> List[Tuple[str, MixConfig]]:
    """The coexistence work list: 5 queue schemes × 2 ECN transports.

    Compatible with :func:`~repro.experiments.parallel.run_cells` (and
    therefore the result cache and resume logic).
    """
    cells: List[Tuple[str, MixConfig]] = []
    for variant in (TcpVariant.ECN, TcpVariant.DCTCP):
        for _name, kind, mode in MIX_SCHEMES:
            queue = QueueSetup(
                kind=kind,
                buffer_packets=SHALLOW_BUFFER_PACKETS,
                target_delay_s=(None if kind == "droptail"
                                else MIX_TARGET_DELAY_S),
                protection=mode,
            )
            cfg = MixConfig(queue=queue, variant=variant, seed=seed,
                            allow_timeout=True).scaled(scale)
            cells.append((cfg.label(), cfg))
    return cells


def _fmt(value, spec: str = ".3g") -> str:
    if value is None:
        return "-"
    return format(value, spec)


def render_mix_table(results: Dict[str, CellResult]) -> str:
    """ASCII coexistence table: one row per cell, tenants side by side.

    Columns: shuffle runtime, RPC deadline-miss rate and p99 query
    completion time, and background short-flow p99 FCT slowdown — the
    numbers the paper's mixed-cluster argument turns on.
    """
    header = (f"{'cell':<34} {'runtime_s':>9} {'rpc_miss':>8} "
              f"{'rpc_p99_ms':>10} {'bg_p99_slow':>11} {'pkt_p99_ms':>10}")
    lines = [header, "-" * len(header)]
    for label in sorted(results):
        cell = results[label]
        wl = (cell.manifest or {}).get("workloads", {})
        rpc = wl.get("rpc", {})
        bg = wl.get("background", {})
        qct_p99 = (rpc.get("qct_s") or {}).get("p99")
        bg_p99 = (((bg.get("size_bins") or {}).get("short") or {})
                  .get("slowdown") or {}).get("p99")
        lines.append(
            f"{label:<34} {_fmt(cell.metrics.runtime):>9} "
            f"{_fmt(rpc.get('deadline_miss_rate')):>8} "
            f"{_fmt(None if qct_p99 is None else qct_p99 * 1e3):>10} "
            f"{_fmt(bg_p99):>11} "
            f"{_fmt(cell.metrics.p99_latency * 1e3):>10}"
        )
    return "\n".join(lines)
