"""Run one experiment cell end to end — the one cell harness.

:func:`run_cell` runs a config of *any* registered cell kind
(:mod:`repro.experiments.kinds`): it owns the simulator, RNG registry,
tracer, invariant checkers, latency collector, fluid tier, queue
monitors, the common :class:`~repro.stats.collect.RunMetrics` fields and
the manifest, in one fixed order; the kind supplies the topology, the
traffic and the traffic-side numbers. This module also registers the
paper's own kind, ``"cell"``: a scaled Terasort through the MapReduce
engine on a single rack.

Every cell also gets a **run manifest** — a JSON-serialisable record of
the config, seed, package version, git state, wall-clock timings, and the
final metrics (see :mod:`repro.telemetry.manifest`) — attached to the
returned :class:`CellResult`. Passing a
:class:`~repro.telemetry.Telemetry` session additionally wires the
metrics registry, trace bus and profiler through the run (the queue
monitors emit ``queue.sample`` on its bus); a run without one takes
exactly the pre-telemetry code path.
"""

from __future__ import annotations

import time as _time
from typing import Optional

from repro.core.monitor import QueueMonitor
from repro.errors import ExperimentError, MapReduceError
from repro.experiments.config import CellResult, ExperimentConfig
from repro.experiments.kinds import (
    CellKind,
    flow_fields,
    kind_for,
    register_kind,
)
from repro.mapreduce.cluster import ClusterSpec, NodeSpec
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.terasort import terasort_job
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.stats.collect import LatencyCollector, RunMetrics
from repro.telemetry.manifest import build_manifest

__all__ = ["apply_analyses", "run_cell", "TerasortCell"]


def apply_analyses(cell: CellResult, analyses, telemetry=None) -> CellResult:
    """Stamp each analysis' block into ``cell.manifest`` (in place).

    An analysis is any object with a ``key`` attribute (the manifest key)
    and an ``analyze(cell, telemetry=None) -> dict`` method that is a
    pure function of the finished run's recorded data — e.g.
    :class:`~repro.analysis.stability.StabilityAnalysis`. Because the
    input (``cell.snapshots`` + metrics) round-trips through the result
    cache exactly, applying an analysis to a cache hit produces the same
    block as applying it to the fresh run, so sweep drivers can stamp
    hits and misses uniformly after :func:`run_cells`.
    """
    if cell.manifest is None:
        cell.manifest = {}
    for analysis in analyses:
        cell.manifest[analysis.key] = analysis.analyze(cell, telemetry)
    return cell


def run_cell(
    config,
    telemetry: Optional["Telemetry"] = None,  # noqa: F821 - forward ref
    checks: Optional["ValidationSuite"] = None,  # noqa: F821 - forward ref
    analyses: Optional[list] = None,
) -> CellResult:
    """Execute one cell of any registered kind and return its measurements.

    Parameters
    ----------
    config:
        The cell configuration — an instance of any registered kind's
        config dataclass (:func:`repro.experiments.kinds.kind_for`).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` session (registry,
        trace bus, profiler).
    checks:
        Optional :class:`~repro.validate.ValidationSuite`. When given,
        its checkers are attached to the run's trace bus before any
        traffic and finished after the run; the result lands under
        ``manifest["validation"]``. Checkers only observe, so an armed
        run is bit-identical to an unarmed one. If no telemetry session
        is supplied, a private tracer is created for the checkers.
    analyses:
        Optional post-run analyses (see :func:`apply_analyses`). Each
        runs *after* the simulation finished, on the recorded data only,
        and lands under ``manifest[analysis.key]`` — so an analysed run
        is bit-identical to a plain one.
    """
    wall_start = _time.perf_counter()
    kind_cls = kind_for(config)
    config.validate()
    sim = Simulator()
    rng = RngRegistry(seed=config.seed)
    tracer = telemetry.tracer if telemetry is not None else None
    if checks is not None and tracer is None:
        tracer = Tracer()

    kind = kind_cls(config, sim, rng, tracer)
    run = kind.config  # the cell that runs: a wrapper config's resized base
    spec = kind.spec = kind.build_topology()
    if checks is not None:
        # Before any traffic: the conservation ledger must witness every
        # packet's first enqueue.
        checks.attach(sim, spec.network, tracer)
    latency = LatencyCollector().attach(spec.network)

    fluid = None
    if getattr(run, "fidelity", "packet") == "hybrid":
        # Imported here so packet-mode processes never load the fluid tier.
        from repro.sim.fluid import FluidManager

        # Before any traffic: senders self-register at construction.
        fluid = FluidManager(sim, spec.network, latency_credit=latency.credit)

    monitors = []
    interval = getattr(run, "monitor_interval_s", None)
    if interval is not None:
        for port in kind.monitored_ports():
            mon = QueueMonitor(sim, port.qdisc, interval,
                               busiest_only=kind.busiest_snapshot_only,
                               tracer=tracer)
            mon.start()
            monitors.append(mon)

    kind.setup()
    if telemetry is not None:
        telemetry.attach(sim, spec, kind.engine)
    kind.start()
    try:
        sim.run(until=kind.horizon_s)
    except kind.tolerated_errors:
        pass  # the collector reports what the run got to
    for mon in monitors:
        mon.stop()

    metrics = RunMetrics(
        n_nodes=run.n_hosts,
        mean_latency=latency.mean,
        p99_latency=latency.percentile(99),
        packets_delivered=latency.count,
        queue=spec.network.aggregate_switch_stats(),
        **kind.collect(),
    )
    profile = telemetry.finish(sim) if telemetry is not None else None

    manifest = build_manifest(
        config,
        metrics,
        wall_s=_time.perf_counter() - wall_start,
        events=sim.events_processed,
        telemetry_snapshot=(telemetry.snapshot() if telemetry is not None
                            else None),
        profile=profile,
        kind=kind.manifest_kind,
    )
    manifest.update(kind.manifest_blocks)
    if fluid is not None:
        manifest["fluid"] = fluid.summary()
    if checks is not None:
        checks.finish()
        manifest["validation"] = checks.as_dict()
    cell = CellResult(config=config, metrics=metrics,
                      snapshots=[s for mon in monitors for s in mon.snapshots],
                      manifest=manifest)
    return apply_analyses(cell, analyses or (), telemetry)


@register_kind("cell", "cell", ExperimentConfig)
class TerasortCell(CellKind):
    """The paper's cell: a scaled Terasort shuffle on a single rack.

    Also the base of every family whose batch tenant is the Terasort
    (``"mix"``, ``"multirack"``): they override the topology or add
    co-tenants and reuse the job and the time-out accounting.
    """

    #: Figure 1 reads only the busiest snapshot, and a run that stalls
    #: on RTOs would otherwise hold every sample of every hot port.
    busiest_snapshot_only = True

    def job_done(self, _result) -> None:
        """Stop the kernel as soon as the job finishes; otherwise periodic
        monitors would keep the event loop alive until the horizon."""
        self.sim.stop()

    def setup(self) -> None:
        config = self.config
        if config.allow_timeout:
            # A shuffle fetch abandoned after its retry budget: the cell
            # reports as a (horizon-capped) failure. Without allow_timeout
            # the error is a genuine test failure.
            self.tolerated_errors = (MapReduceError,)
        job = terasort_job(
            config.data_bytes,
            block_size=config.block_bytes,
            n_reducers=config.n_reducers,
        )
        self.engine = MapReduceEngine(
            self.sim,
            self.spec,
            ClusterSpec(config.n_hosts, NodeSpec()),
            job,
            config.tcp_config(),
            self.rng.stream("hdfs"),
            shuffle_parallelism=config.shuffle_parallelism,
            replication=config.replication,
            on_job_done=self.job_done,
        )

    def start(self) -> None:
        self.engine.submit()

    def shuffle_outcome(self):
        """``(timed_out, runtime, bytes_shuffled)``; raises
        :class:`ExperimentError` on a time-out the config does not allow."""
        engine, config = self.engine, self.config
        if engine.result is not None:
            return False, engine.result.runtime, engine.result.bytes_shuffled
        if not config.allow_timeout:
            raise ExperimentError(
                f"cell {config.label()} did not finish within "
                f"{config.sim_horizon_s}s of simulated time"
            )
        return (True, config.sim_horizon_s,
                sum(r.fetched_bytes for r in engine.reduces))

    def collect(self):
        engine = self.engine
        timed_out, runtime, bytes_shuffled = self.shuffle_outcome()
        if timed_out:
            map_phase = 0.0
            locality = engine.hdfs.locality_fraction(
                [(m.block.block_id, m.node) for m in engine.maps
                 if m.node is not None]
            )
            remote = 0.0
        else:
            map_phase = engine.result.map_phase_duration
            locality = engine.result.locality_fraction
            remote = float(engine.result.bytes_shuffled_remote)
        return flow_fields(
            engine.shuffle_flow_results(), runtime, bytes_shuffled,
            {
                "map_phase_s": map_phase,
                "locality": locality,
                "bytes_shuffled_remote": remote,
                "timed_out": 1.0 if timed_out else 0.0,
                "fetch_failures": float(engine.fetch_failures()),
            },
        )
