"""Fuzz-scenario cell family: one small, fully-seeded randomized case.

A :class:`Scenario` is a topology × qdisc × protection mode × TCP variant
(× CC override) × traffic pattern, run by
:func:`~repro.experiments.runner.run_cell` like any other kind, so a
fuzzed case is cached, farmed and manifested like any cell. Scenarios
include the ugly corners — incast fan-in, link-flap blackouts, shallow
tail-dropping buffers, CoDel head drops — where stale-state and
conservation bugs hide. :mod:`repro.validate.fuzz` generates, runs and
shrinks them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List

from repro.core.codel import CodelParams, CodelQueue
from repro.core.curvyred import CurvyRedParams, CurvyRedQueue
from repro.core.droptail import DropTail
from repro.core.marking import SimpleMarkingQueue
from repro.core.protection import ProtectionMode
from repro.core.red import RedParams, RedQueue
from repro.core.registry import TINY_BUFFER_PACKETS
from repro.errors import ConfigError
from repro.experiments.kinds import CellKind, flow_fields, register_kind
from repro.net.topology import TopologySpec, build_dumbbell, build_single_rack
from repro.tcp.endpoint import TcpConfig, TcpListener, TcpVariant
from repro.tcp.flow import FlowResult, start_bulk_flow
from repro.units import mbps, us
from repro.workloads.ports import port_allocator
from repro.workloads.rpc import PartitionAggregateWorkload

__all__ = ["AXES", "Scenario", "ScenarioCell"]

#: The categorical axes, field -> allowed values; a ``cc`` of "" keeps
#: the variant's default CC, the rest are :mod:`repro.tcp.cc` keys.
AXES = {
    "topology": ("rack", "dumbbell"),
    "qdisc": ("droptail", "red", "codel", "curvyred", "tinybuffer"),
    "protection": ("default", "ece", "ack+syn"),
    "variant": ("newreno", "tcp-ecn", "dctcp"),
    "pattern": ("bulk", "rpc", "mixed"),
    "cc": ("", "cubic", "d2tcp"),
}


@dataclass(frozen=True)
class Scenario:
    """One fully-determined fuzz case (every field is serialisable)."""

    topology: str = "rack"        #: "rack" or "dumbbell"
    n_hosts: int = 4              #: total hosts (dumbbell splits them)
    qdisc: str = "red"            #: AXES["qdisc"] (switch ports only)
    protection: str = "default"   #: ProtectionMode value string
    variant: str = "tcp-ecn"      #: TcpVariant value string
    buffer_packets: int = 50      #: switch buffer depth
    n_flows: int = 4
    flow_bytes: int = 30_000
    incast: bool = True           #: all flows target one host (fan-in)
    link_flap: bool = False       #: fail a hot port mid-run (blackout)
    seed: int = 0
    horizon_s: float = 20.0       #: simulated-time safety cap
    pattern: str = "bulk"         #: "bulk", "rpc" or "mixed" traffic
    cc: str = ""                  #: CC registry key ("" = variant default)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (the shrunk repro artifact)."""
        return asdict(self)

    def validate(self) -> "Scenario":
        """Raise :class:`ConfigError` on out-of-domain fields."""
        for field, domain in AXES.items():
            if getattr(self, field) not in domain:
                raise ConfigError(
                    f"unknown {field} {getattr(self, field)!r}")
        if self.n_hosts < 2 or self.n_flows < 1 or self.flow_bytes < 1:
            raise ConfigError(f"degenerate scenario: {self}")
        return self

    def tcp_config(self) -> TcpConfig:
        """Transport configuration every flow of the scenario uses."""
        return TcpConfig(variant=TcpVariant(self.variant), cc=self.cc or None)

    def label(self) -> str:
        """Cell id naming every field, ``scenario/``-prefixed."""
        cc = f"+{self.cc}" if self.cc else ""
        flags = ("-incast" if self.incast else "") + (
            "-flap" if self.link_flap else "")
        return (f"scenario/{self.topology}{self.n_hosts}/{self.qdisc}-"
                f"{self.protection}-b{self.buffer_packets}/{self.variant}{cc}/"
                f"{self.pattern}{self.n_flows}x{self.flow_bytes}B{flags}/"
                f"t{self.horizon_s!r}/s{self.seed}")


@register_kind("scenario", "fuzz-scenario", Scenario)
class ScenarioCell(CellKind):
    """Bulk flows, an RPC query stream, or both, on a 50 Mb/s fabric; the
    run stops once every traffic part has finished its work."""

    def qdisc(self, name: str):
        sc, rng = self.config, self.rng
        prot = ProtectionMode(sc.protection)
        buf = sc.buffer_packets
        if sc.qdisc == "droptail":
            return DropTail(buf, name=name)
        if sc.qdisc == "red":
            min_th = max(2.0, 0.15 * buf)
            params = RedParams(min_th=min_th,
                               max_th=max(min_th + 1.0, 0.45 * buf),
                               protection=prot)
            return RedQueue(buf, params, rand=rng.uniform_fn(f"red.{name}"),
                            name=name)
        if sc.qdisc == "codel":
            params = CodelParams(target_s=200e-6, interval_s=2e-3,
                                 protection=prot)
            return CodelQueue(buf, params, name=name)
        if sc.qdisc == "curvyred":
            params = CurvyRedParams(range_packets=max(4.0, 0.3 * buf),
                                    protection=prot)
            return CurvyRedQueue(
                buf, params, rand=rng.uniform_fn(f"curvyred.{name}"),
                name=name)
        tiny = min(buf, TINY_BUFFER_PACKETS)  # "tinybuffer"
        return SimpleMarkingQueue(tiny, max(1, tiny // 2), name=name)

    def build_topology(self) -> TopologySpec:
        sc = self.config
        link = dict(link_rate_bps=mbps(50), link_delay_s=us(20),
                    tracer=self.tracer)
        if sc.topology == "rack":
            spec = build_single_rack(self.sim, sc.n_hosts, self.qdisc, **link)
            self.sources = self.sinks = spec.hosts
        else:
            n_left = max(1, sc.n_hosts // 2)
            n_right = max(1, sc.n_hosts - n_left)
            spec = build_dumbbell(self.sim, n_left, n_right, self.qdisc,
                                  **link)
            self.sources = spec.hosts[:n_left]
            self.sinks = spec.hosts[n_left:]
        return spec

    @property
    def horizon_s(self) -> float:
        return self.config.horizon_s

    def start(self) -> None:
        sc, sim, rng = self.config, self.sim, self.rng
        cfg = sc.tcp_config()
        if sc.pattern == "bulk":
            n_bulk, n_queries = sc.n_flows, 0
        elif sc.pattern == "rpc":
            n_bulk, n_queries = 0, sc.n_flows
        else:  # mixed
            n_bulk = max(1, sc.n_flows // 2)
            n_queries = max(1, sc.n_flows - n_bulk)
        parts = {"open": (1 if n_bulk else 0) + (1 if n_queries else 0)}

        def part_finished():
            parts["open"] -= 1
            if parts["open"] == 0:
                sim.stop()

        # Flow pattern from the scenario's own named streams (reproducible).
        pick = rng.stream("fuzz.pattern")
        sinks = self.sinks
        fixed_sink = sinks[int(pick.integers(len(sinks)))]
        self.bulk_results: List[FlowResult] = []
        bulk_port = port_allocator(sim).allocate()

        def on_done(result: FlowResult) -> None:
            self.bulk_results.append(result)
            if len(self.bulk_results) == n_bulk:
                part_finished()

        listeners = {}
        for _ in range(n_bulk):
            dst = (fixed_sink if sc.incast
                   else sinks[int(pick.integers(len(sinks)))])
            candidates = [h for h in self.sources if h is not dst]
            src = candidates[int(pick.integers(len(candidates)))]
            if dst.node_id not in listeners:
                listeners[dst.node_id] = TcpListener(sim, dst, bulk_port, cfg)
            delay = float(pick.uniform(0.0, 5e-3))
            start_bulk_flow(sim, src, dst, bulk_port, sc.flow_bytes, cfg,
                            on_done=on_done, delay=delay)

        self.rpc = None
        if n_queries:
            self.rpc = PartitionAggregateWorkload(
                sim, self.spec.hosts, cfg, rng=rng.stream("fuzz.rpc"),
                rate_qps=200.0,
                fanout=max(1, min(sc.n_hosts - 1, sc.n_flows)),
                response_bytes=sc.flow_bytes,
                max_queries=n_queries, name="fuzz-rpc")
            self.rpc.on_idle = part_finished
            self.rpc.start(first_delay=1e-4)

        if sc.link_flap:
            # Black out the congested port long enough to force repeated RTO
            # backoff, then restore it well before the horizon.
            port = self.spec.hot_ports[0]
            sim.schedule(10e-3, port.set_down)
            sim.schedule(10e-3 + 0.5, port.set_up)

    def collect(self):
        flows = self.bulk_results + (self.rpc.flow_results
                                     if self.rpc is not None else [])
        return flow_fields(flows, self.sim.now,
                           sum(f.nbytes for f in flows if not f.failed), {})
