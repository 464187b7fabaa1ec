"""WorkloadMix: run several workloads concurrently on one fabric.

The paper's whole argument is about *mixed-use* clusters — batch shuffle
traffic coexisting with latency-sensitive services. A
:class:`WorkloadMix` owns that composition: any number of named
workloads (open/closed-loop generators, partition-aggregate RPC, latency
probes — anything exposing ``start``/``stop``/``summary_bucket``) run
concurrently on the same hosts, each on its own destination port from
the per-sim :func:`~repro.workloads.ports.port_allocator` (so they can
never collide), each inside an optional ``[start_s, stop_s)`` window,
and each landing its results in its own named bucket.

.. code-block:: python

    mix = WorkloadMix(sim, spec.hosts, spec.link_rate_bps)
    mix.add_rpc("rpc", cfg, rng.stream("workload.rpc"),
                rate_qps=200, fanout=8, deadline_s=0.01)
    mix.add_open_loop("background", cfg, rng.stream("workload.bg"),
                      rate_fps=50, sizes=WEB_SEARCH.truncated(mb(1)))
    mix.start()
    sim.run(until=horizon)
    manifest["workloads"] = mix.summary()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.net.host import Host
from repro.sim.engine import Simulator
from repro.tcp.endpoint import TcpConfig
from repro.workloads.cdf import SizeCDF
from repro.workloads.generators import ClosedLoopGenerator, OpenLoopGenerator
from repro.workloads.rpc import PartitionAggregateWorkload

__all__ = ["WorkloadMix"]


@dataclass
class _Entry:
    name: str
    workload: object
    start_s: float
    stop_s: Optional[float]


class WorkloadMix:
    """Named workloads composed over one simulator + host set.

    Parameters
    ----------
    sim, hosts:
        Kernel and the hosts every added workload runs over (individual
        workloads may be given a subset via the ``hosts`` keyword).
    line_rate_bps:
        Edge line rate; anchors the ideal FCT in slowdown metrics.
    """

    def __init__(self, sim: Simulator, hosts: List[Host],
                 line_rate_bps: float):
        if line_rate_bps <= 0:
            raise ConfigError(
                f"line rate must be positive, got {line_rate_bps}")
        self.sim = sim
        self.hosts = hosts
        self.line_rate_bps = float(line_rate_bps)
        self._entries: List[_Entry] = []
        self._started = False

    # -- registration -------------------------------------------------------

    def add(self, name: str, workload, start_s: float = 0.0,
            stop_s: Optional[float] = None):
        """Register a pre-built workload under ``name``.

        ``workload`` must expose ``start()``, ``stop()`` and
        ``summary_bucket(line_rate_bps)``. ``start_s``/``stop_s`` bound
        its activity window in simulated seconds (``stop_s=None`` runs
        until :meth:`stop_all` or the workload's own flow/query limit).
        """
        if any(e.name == name for e in self._entries):
            raise ConfigError(f"duplicate workload name {name!r}")
        if start_s < 0:
            raise ConfigError(f"start_s must be >= 0, got {start_s}")
        if stop_s is not None and stop_s <= start_s:
            raise ConfigError(
                f"stop_s ({stop_s}) must be after start_s ({start_s})")
        for attr in ("start", "stop", "summary_bucket"):
            if not callable(getattr(workload, attr, None)):
                raise ConfigError(
                    f"workload {name!r} lacks a callable {attr}()")
        self._entries.append(_Entry(name, workload, float(start_s), stop_s))
        return workload

    def add_open_loop(self, name: str, cfg: TcpConfig,
                      rng: np.random.Generator, rate_fps: float,
                      sizes: SizeCDF, arrival: str = "poisson",
                      hosts: Optional[List[Host]] = None,
                      max_flows: Optional[int] = None,
                      start_s: float = 0.0,
                      stop_s: Optional[float] = None) -> OpenLoopGenerator:
        """Create + register an :class:`OpenLoopGenerator`."""
        gen = OpenLoopGenerator(
            self.sim, hosts if hosts is not None else self.hosts, cfg,
            rate_fps=rate_fps, sizes=sizes, rng=rng, arrival=arrival,
            max_flows=max_flows, name=name)
        return self.add(name, gen, start_s, stop_s)

    def add_closed_loop(self, name: str, cfg: TcpConfig,
                        rng: np.random.Generator, n_workers: int,
                        sizes: SizeCDF, think_s: float,
                        think: str = "lognormal", think_sigma: float = 1.0,
                        hosts: Optional[List[Host]] = None,
                        max_flows: Optional[int] = None,
                        start_s: float = 0.0,
                        stop_s: Optional[float] = None) -> ClosedLoopGenerator:
        """Create + register a :class:`ClosedLoopGenerator`."""
        gen = ClosedLoopGenerator(
            self.sim, hosts if hosts is not None else self.hosts, cfg,
            n_workers=n_workers, sizes=sizes, rng=rng, think_s=think_s,
            think=think, think_sigma=think_sigma, max_flows=max_flows,
            name=name)
        return self.add(name, gen, start_s, stop_s)

    def add_rpc(self, name: str, cfg: TcpConfig, rng: np.random.Generator,
                rate_qps: float, fanout: int,
                response_bytes=20_000, deadline_s: Optional[float] = None,
                arrival: str = "poisson",
                hosts: Optional[List[Host]] = None,
                max_queries: Optional[int] = None,
                start_s: float = 0.0,
                stop_s: Optional[float] = None) -> PartitionAggregateWorkload:
        """Create + register a :class:`PartitionAggregateWorkload`."""
        wl = PartitionAggregateWorkload(
            self.sim, hosts if hosts is not None else self.hosts, cfg,
            rng=rng, rate_qps=rate_qps, fanout=fanout,
            response_bytes=response_bytes, deadline_s=deadline_s,
            arrival=arrival, max_queries=max_queries, name=name)
        return self.add(name, wl, start_s, stop_s)

    # -- lifecycle ----------------------------------------------------------

    def __getitem__(self, name: str):
        for e in self._entries:
            if e.name == name:
                return e.workload
        raise KeyError(name)

    def start(self) -> None:
        """Arm every workload's start/stop window. Call once."""
        if self._started:
            raise ConfigError("WorkloadMix.start() called twice")
        if not self._entries:
            raise ConfigError("WorkloadMix has no workloads")
        self._started = True
        now = self.sim.now
        for e in self._entries:
            wl = e.workload
            delay = e.start_s - now
            if delay < 0:
                raise ConfigError(
                    f"workload {e.name!r} window starts in the past "
                    f"(start_s={e.start_s}, now={now})")
            if delay == 0:
                wl.start()
            else:
                self.sim.schedule(delay, wl.start)
            if e.stop_s is not None:
                self.sim.schedule(e.stop_s - now, wl.stop)

    def stop_all(self) -> None:
        """Stop every workload now (in-flight work still completes)."""
        for e in self._entries:
            e.workload.stop()

    def active_count(self) -> int:
        """Workloads still issuing new flows/queries."""
        return sum(1 for e in self._entries
                   if getattr(e.workload, "running", False))

    # -- results ------------------------------------------------------------

    def results(self) -> Dict[str, list]:
        """Raw per-workload result lists (flows or queries)."""
        return {e.name: list(e.workload.results) for e in self._entries}

    def summary(self) -> Dict[str, dict]:
        """Per-workload buckets for ``manifest["workloads"]``."""
        out: Dict[str, dict] = {}
        for e in self._entries:
            bucket = e.workload.summary_bucket(self.line_rate_bps)
            bucket["port"] = getattr(e.workload, "port", None)
            bucket["window_s"] = [e.start_s, e.stop_s]
            out[e.name] = bucket
        return out
