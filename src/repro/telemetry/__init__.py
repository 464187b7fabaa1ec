"""Unified observability layer.

One :class:`Telemetry` session bundles the four instruments every
performance investigation in this repo needs:

* a :class:`~repro.telemetry.registry.MetricsRegistry` the components
  (qdiscs, ports, hosts, the MapReduce engine) register into;
* the :class:`~repro.sim.trace.Tracer` bus, where per-flow ``tcp.*``
  timelines and per-queue ``queue.sample`` composition samples travel as
  records for any subscriber (a :class:`TraceJsonlWriter`, a checker).
  The samples come from the cell's own queue monitors, so a cell emits
  them only when its config sets ``monitor_interval_s``;
* an event-loop profiler (:mod:`repro.telemetry.profiler`);
* run manifests (:mod:`repro.telemetry.manifest`) and the JSONL trace
  exporter (:mod:`repro.telemetry.export`).

Usage with the experiment runner::

    from repro.experiments import run_cell, ExperimentConfig, QueueSetup
    from repro.telemetry import Telemetry, TraceJsonlWriter
    from repro.units import us

    tel = Telemetry(profile=True)
    rows = TraceJsonlWriter(tel.tracer, kinds=["tcp.cwnd", "queue.sample"])
    cell = run_cell(ExperimentConfig(
        queue=QueueSetup(kind="red", target_delay_s=us(500)),
        monitor_interval_s=2e-3,
    ).scaled(0.0625), telemetry=tel)
    print(rows.getvalue().splitlines()[0])
    print(tel.registry.snapshot()["gauges"]["queue.marks{queue=tor->h3}"])
    print(tel.profiler.render())

Everything is opt-in: a run without a session attached takes the same
code path it did before this layer existed, which is what keeps
telemetry-on and telemetry-off runs bit-identical (see
``tests/test_telemetry.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.telemetry.export import (
    PACKET_KINDS,
    TraceJsonlWriter,
    record_to_row,
    snapshot_to_row,
)
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    build_sweep_manifest,
    config_to_dict,
    git_describe,
    metrics_to_dict,
    write_manifest,
)
from repro.telemetry.profiler import LoopProfiler, ProgressFanout, ProgressReporter
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "metric_key",
    "LoopProfiler",
    "ProgressFanout",
    "ProgressReporter",
    "TraceJsonlWriter",
    "PACKET_KINDS",
    "record_to_row",
    "snapshot_to_row",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "build_sweep_manifest",
    "write_manifest",
    "config_to_dict",
    "metrics_to_dict",
    "git_describe",
]


class Telemetry:
    """One run's observability session.

    Parameters
    ----------
    profile:
        Attach a :class:`LoopProfiler` to the kernel for the run.
    registry, tracer:
        Bring-your-own instances (fresh ones are created by default).
        Subscribe any extra consumers (e.g. a :class:`TraceJsonlWriter`
        for the ``tcp.*`` per-flow timelines) to ``tracer`` *before* the
        run so the network layer sees them.
    """

    def __init__(
        self,
        profile: bool = False,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.profiler: Optional[LoopProfiler] = LoopProfiler() if profile else None
        self.profile_report: Optional[dict] = None

    # -- runner integration ---------------------------------------------------

    def attach(self, sim: Simulator, spec, engine=None) -> "Telemetry":
        """Wire this session into one built experiment.

        ``spec`` is a :class:`~repro.net.topology.TopologySpec`; ``engine``
        an optional :class:`~repro.mapreduce.engine.MapReduceEngine`.
        Called by :func:`~repro.experiments.runner.run_cell` when a session
        is passed in, but usable directly for hand-built topologies.
        """
        if self.profiler is not None:
            self.profiler.attach(sim)
        # Deliver events come from host delivery hooks; only pay for them
        # when some consumer subscribed to the kind.
        if self.tracer.wants("deliver"):
            for host in spec.network.hosts:
                host.add_delivery_hook(
                    lambda pkt, now, name=host.name, tr=self.tracer:
                        tr.emit(now, "deliver", name, pkt)
                )
        self.register_network(spec.network)
        if engine is not None:
            engine.register_metrics(self.registry)
        return self

    def finish(self, sim: Simulator) -> Optional[dict]:
        """Detach the profiler and return its report (if any)."""
        if self.profiler is not None and sim.profiler is self.profiler:
            self.profile_report = self.profiler.finish()
        return self.profile_report

    # -- component registration -----------------------------------------------

    def register_network(self, network) -> None:
        """Register every switch queue, port, and host of ``network``."""
        for port in network.switch_ports():
            port.register_metrics(self.registry)
        for host in network.hosts:
            self.registry.gauge(
                "host.rx_packets",
                fn=lambda h=host: h.rx_packets,
                host=host.name,
            )
            if host.uplink is not None:
                host.uplink.register_metrics(self.registry)

    def snapshot(self) -> dict:
        """The registry's current JSON-safe snapshot."""
        return self.registry.snapshot()
