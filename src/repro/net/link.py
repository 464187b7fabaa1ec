"""Full-duplex link helper.

A :class:`Link` is a convenience record wiring two nodes together with a
pair of unidirectional :class:`~repro.net.port.Port` instances (one egress
port per endpoint). The qdiscs of the two directions are supplied by
factories so each direction can carry a different discipline — e.g. a RED
queue on the switch side and a plain DropTail on the host NIC side, as in
the paper's NS-2 setup.
"""

from __future__ import annotations

from typing import Callable

from repro.core.qdisc import QueueDisc
from repro.net.node import Node
from repro.net.port import Port
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

__all__ = ["Link", "QdiscFactory"]

#: A factory is called with the port name and returns a fresh qdisc.
QdiscFactory = Callable[[str], QueueDisc]


class Link:
    """Two nodes, two directions, two ports.

    Attributes
    ----------
    fwd:
        Egress port on ``a`` sending toward ``b``.
    rev:
        Egress port on ``b`` sending toward ``a``.
    """

    __slots__ = ("a", "b", "fwd", "rev")

    def __init__(
        self,
        sim: Simulator,
        a: Node,
        b: Node,
        rate_bps: float,
        delay_s: float,
        qdisc_a: QdiscFactory,
        qdisc_b: QdiscFactory,
        tracer: "Tracer | None" = None,
    ):
        self.a = a
        self.b = b
        name_fwd = f"{a.name}->{b.name}"
        name_rev = f"{b.name}->{a.name}"
        self.fwd = Port(sim, name_fwd, rate_bps, delay_s, qdisc_a(name_fwd), tracer)
        self.rev = Port(sim, name_rev, rate_bps, delay_s, qdisc_b(name_rev), tracer)
        self.fwd.connect(b)
        self.rev.connect(a)
