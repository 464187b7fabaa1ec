"""End host: one uplink port and a transport-layer demultiplexer.

The host keeps the last-mile handoff minimal: packets addressed to it are
passed to registered receivers keyed by destination port, which is how
:class:`~repro.tcp.endpoint.TcpEndpoint` instances attach. Mis-addressed
packets raise — a routing bug should never be silently absorbed.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import RoutingError, TcpError
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.port import Port
from repro.sim.engine import Simulator

__all__ = ["Host"]


class Host(Node):
    """A server attached to the fabric by a single uplink port."""

    def __init__(self, node_id: int, name: str, sim: Simulator):
        super().__init__(node_id, name)
        self.sim = sim
        self.uplink: Optional[Port] = None
        #: Trace bus shared with the owning network (set by Network);
        #: transport endpoints on this host emit their ``tcp.*`` events here.
        self.tracer = None
        self._receivers: Dict[int, Callable[[Packet], None]] = {}
        self._delivery_hooks: Tuple[Callable[[Packet, float], None], ...] = ()
        #: The one callable :meth:`receive` hands each packet to: None, the
        #: only hook, or a fan-out over several (set by add_delivery_hook).
        self._on_delivery: Optional[Callable[[Packet, float], None]] = None
        self.rx_packets = 0
        self._next_ephemeral = 49152

    def attach_uplink(self, port: Port) -> None:
        """Set the host's egress port toward its top-of-rack switch."""
        self.uplink = port

    # -- transport layer registration ----------------------------------------

    def bind(self, port_number: int, receiver: Callable[[Packet], None]) -> None:
        """Register a packet receiver on a local TCP port number."""
        if port_number in self._receivers:
            raise TcpError(f"{self.name}: port {port_number} already bound")
        self._receivers[port_number] = receiver

    def unbind(self, port_number: int) -> None:
        """Release a TCP port number. Idempotent."""
        self._receivers.pop(port_number, None)

    def allocate_port(self) -> int:
        """Allocate a fresh ephemeral TCP port number."""
        p = self._next_ephemeral
        self._next_ephemeral += 1
        return p

    def add_delivery_hook(self, hook: Callable[[Packet, float], None]) -> None:
        """Observe every packet delivered to this host (latency stats).

        Hooks run in registration order. :meth:`receive` calls one bound
        callable: the hook itself while it is the only one, a fan-out
        once there are several.
        """
        hooks = self._delivery_hooks + (hook,)
        self._delivery_hooks = hooks
        if len(hooks) == 1:
            self._on_delivery = hook
        else:
            def fan_out(pkt: Packet, now: float) -> None:
                for each in hooks:
                    each(pkt, now)
            self._on_delivery = fan_out

    # -- data path ------------------------------------------------------------

    def send(self, pkt: Packet) -> None:
        """Transmit a packet onto the fabric via the uplink."""
        if self.uplink is None:
            raise RoutingError(f"{self.name}: no uplink attached")
        self.uplink.send(pkt)

    def receive(self, pkt: Packet) -> None:
        if pkt.dst != self.node_id:
            raise RoutingError(
                f"{self.name} (id {self.node_id}) received packet for host {pkt.dst}"
            )
        self.rx_packets += 1
        pkt.hops += 1
        on_delivery = self._on_delivery
        if on_delivery is not None:
            on_delivery(pkt, self.sim.now)
        receiver = self._receivers.get(pkt.dport)
        if receiver is not None:
            receiver(pkt)
        # Unbound destination ports swallow the packet (like a host firewall
        # dropping to a closed port); TCP-level RST modelling is out of scope.
