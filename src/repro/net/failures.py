"""Failure injection: scheduled link flaps.

A :class:`LinkFlapper` takes either direction's port (or both) down and
up on a schedule, for fault-tolerance testing: TCP must ride out the
outage via retransmission timeouts, and the MapReduce job must still
complete (the engine has no task-level failure handling — the transport
absorbs the fault, as it does for transient link errors in practice).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import ConfigError
from repro.net.port import Port
from repro.sim.engine import Simulator

__all__ = ["LinkFlapper"]


class LinkFlapper:
    """Schedule (down_at, up_at) outage windows on a set of ports.

    Parameters
    ----------
    sim:
        Simulation kernel.
    ports:
        The ports to fail. Pass both directions of a link for a full
        cable pull, one for a unidirectional fault.
    outages:
        Sequence of (down_at, up_at) absolute times; must be ordered and
        non-overlapping.
    """

    def __init__(
        self,
        sim: Simulator,
        ports: Sequence[Port],
        outages: Sequence[Tuple[float, float]],
    ):
        if not ports:
            raise ConfigError("need at least one port to flap")
        last_up = -1.0
        for down_at, up_at in outages:
            if down_at >= up_at:
                raise ConfigError(f"outage ({down_at}, {up_at}) is empty")
            if down_at < last_up:
                raise ConfigError("outages must be ordered and disjoint")
            last_up = up_at
        self.ports = list(ports)
        self.outages = list(outages)
        self.downs = 0
        self.ups = 0
        for down_at, up_at in self.outages:
            sim.schedule_at(down_at, self._down)
            sim.schedule_at(up_at, self._up)

    def _down(self) -> None:
        self.downs += 1
        for p in self.ports:
            p.set_down()

    def _up(self) -> None:
        self.ups += 1
        for p in self.ports:
            p.set_up()
