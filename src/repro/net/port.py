"""Egress port: a queue discipline plus a store-and-forward transmitter.

Every unidirectional attachment of a node to a link is a :class:`Port`.
The port owns a :class:`~repro.core.qdisc.QueueDisc`; arriving packets are
offered to the qdisc, and a self-clocking transmit loop drains it at the
link rate, delivering each packet to the peer node after the propagation
delay. This mirrors the NS-2 queue/link pair the paper instrumented.

Hot-path layout: the transmit loop schedules **bound methods**, never
closures. The packet being serialized sits in the ``_pending_tx`` slot
(there is at most one — the transmitter is half-duplex by construction),
and packets in flight on the wire sit in the ``_wire`` FIFO (propagation
delay is constant per port, so deliveries complete in append order).
This gives the loop profiler stable ``Port._tx_done`` /
``Port._deliver_head`` categories for free.

Counted when read: the transmit counters ``tx_packets`` / ``tx_bytes``
are properties over the qdisc's departure counters (every packet the
transmitter took, minus fluid credits, frames lost to a link failure and
the frame still being serialized), so a successful transmission bumps no
counter of its own.

Wired once: everything that is constant for the port's lifetime is
resolved when the port is built, not per packet. ``__init__`` binds
``sim.schedule``, the qdisc's ``enqueue`` / ``dequeue`` and the two
callbacks the transmit loop schedules (``_tx_done``, ``_deliver_head``);
:meth:`connect` binds the peer's ``receive``. Two consequences: patch
*classes* before building a network (a class-level wrapper on
``Port._tx_done`` or ``RedQueue.enqueue`` is what the bound slot then
holds), never instances after; and ``port.qdisc`` is fixed after
construction — build a new port to change the discipline.

Tracer ownership: **the port owns its qdisc's tracer.** ``Port.__init__``
installs the port's tracer on the qdisc so queue events ("mark",
"enqueue") ride the same bus as port events ("tx", "drop"). A qdisc that
already carries a *different* tracer is a wiring bug (two observers would
silently diverge), so that raises :class:`~repro.errors.TopologyError`
instead of overwriting.
"""

from __future__ import annotations

from typing import Deque, Optional, TYPE_CHECKING
from collections import deque

from repro.core.qdisc import QueueDisc
from repro.errors import TopologyError
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.node import Node

__all__ = ["Port"]


class Port:
    """One egress interface: qdisc + transmitter + attached wire.

    Parameters
    ----------
    sim:
        The simulation kernel.
    name:
        Trace identifier, e.g. ``"switch0.p3"``.
    rate_bps:
        Link serialization rate in bits/second.
    delay_s:
        One-way propagation delay in seconds.
    qdisc:
        The queue discipline buffering this port. Must not already carry
        a different tracer (the port owns that wiring; see module doc).
    tracer:
        Optional tracer; emits ``"drop"`` and ``"tx"`` events.
    """

    __slots__ = ("sim", "name", "port_id", "rate_bps", "delay_s", "qdisc",
                 "tracer", "_peer", "_busy", "_up", "_pending_tx", "_wire",
                 "_ser_s_per_byte", "_schedule", "_enqueue", "_dequeue",
                 "_on_tx_done", "_on_deliver", "_peer_receive",
                 "failed_tx_packets", "failed_tx_bytes")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        delay_s: float,
        qdisc: QueueDisc,
        tracer: Optional[Tracer] = None,
    ):
        if rate_bps <= 0:
            raise TopologyError(f"port {name}: rate must be positive, got {rate_bps}")
        if delay_s < 0:
            raise TopologyError(f"port {name}: delay must be >= 0, got {delay_s}")
        self.sim = sim
        self.name = name
        #: Creation-order id assigned by :meth:`Network.connect`. Routing
        #: sorts ECMP candidate sets by this, not by name, so path
        #: selection is stable under node renaming ("p10" < "p2"
        #: lexicographically). -1 until the port joins a network.
        self.port_id = -1
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.qdisc = qdisc
        qdisc.name = name
        # Let rate-aware qdiscs (RED idle decay) know their drain rate.
        set_rate = getattr(qdisc, "set_link_rate", None)
        if set_rate is not None:
            set_rate(rate_bps)
        self.tracer = tracer
        # Ownership rule: the port wires the shared trace bus into its
        # qdisc. A pre-existing *different* tracer means two components
        # think they own this queue's events — refuse rather than silently
        # detach the first one.
        if qdisc.tracer is not None and qdisc.tracer is not tracer:
            raise TopologyError(
                f"port {name}: qdisc already carries a different tracer; "
                "the owning port installs the trace bus (pass it to Port, "
                "not to the qdisc)"
            )
        qdisc.tracer = tracer  # qdiscs emit "mark"/"enqueue" on the same bus
        self._peer: Optional["Node"] = None
        self._busy = False
        self._up = True
        #: Serialization seconds per byte — one multiply per packet instead
        #: of a division.
        self._ser_s_per_byte = 8.0 / rate_bps
        # Wired once (see module doc): the per-packet path calls these
        # slots instead of re-resolving attribute chains and re-building
        # bound methods for every packet.
        self._schedule = sim.schedule
        self._enqueue = qdisc.enqueue
        self._dequeue = qdisc.dequeue
        self._on_tx_done = self._tx_done
        self._on_deliver = self._deliver_head
        self._peer_receive = None  # bound by connect()
        #: The packet currently being serialized (at most one).
        self._pending_tx: Optional[Packet] = None
        #: Packets propagating on the wire, FIFO — constant per-port delay
        #: means deliveries complete in append order.
        self._wire: Deque[Packet] = deque()
        #: Frames lost because the link failed mid-serialization.
        self.failed_tx_packets = 0
        self.failed_tx_bytes = 0

    @property
    def peer(self) -> Optional["Node"]:
        """The node at the far end of the wire."""
        return self._peer

    def connect(self, peer: "Node") -> None:
        """Attach the far-end node. Must be called exactly once."""
        if self._peer is not None:
            raise TopologyError(f"port {self.name} is already connected")
        self._peer = peer
        self._peer_receive = peer.receive

    @property
    def tx_packets(self) -> int:
        """Frames serialized onto an up link (counted when read)."""
        st = self.qdisc.stats
        return (st.departures - st.fluid_packets - self.failed_tx_packets
                - (self._pending_tx is not None))

    @property
    def tx_bytes(self) -> int:
        """Bytes of the frames :attr:`tx_packets` counts."""
        st = self.qdisc.stats
        pending = self._pending_tx
        return (st.departure_bytes - st.fluid_bytes - self.failed_tx_bytes
                - (pending.size if pending is not None else 0))

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized."""
        return self._busy

    # -- failure injection -----------------------------------------------------

    @property
    def up(self) -> bool:
        """Link state. Packets transmitted while down are lost on the wire."""
        return self._up

    def set_down(self) -> None:
        """Fail the link: queued packets stay queued, transmitted packets
        are lost in flight (the far end never sees them). Idempotent."""
        self._up = False

    def set_up(self) -> None:
        """Restore the link and resume draining the queue. Idempotent."""
        if self._up:
            return
        self._up = True
        if not self._busy:
            self._start_tx()

    def send(self, pkt: Packet) -> None:
        """Offer a packet for transmission (may be dropped by the qdisc)."""
        if self._peer is None:
            raise TopologyError(f"port {self.name} is not connected")
        now = self.sim.now
        if not self._enqueue(pkt, now):
            tr = self.tracer
            if tr is not None and tr.active:
                tr.emit(now, "drop", self.name, pkt)
            return
        if not self._busy and self._up:
            # Inlined _start_tx: one frame less for every packet that
            # finds the transmitter free.
            nxt = self._dequeue(now)
            if nxt is not None:
                self._busy = True
                self._pending_tx = nxt
                self._schedule(nxt.size * self._ser_s_per_byte,
                               self._on_tx_done)

    def _start_tx(self) -> None:
        """Serialize the next queued packet, or go idle.

        :meth:`send` (idle port) and :meth:`_tx_done` (next packet) inline
        this body — keep in sync; :meth:`set_up` calls it.
        """
        if self._up:
            pkt = self._dequeue(self.sim.now)
            if pkt is not None:
                self._busy = True
                self._pending_tx = pkt
                self._schedule(pkt.size * self._ser_s_per_byte,
                               self._on_tx_done)
                return
        self._busy = False

    def _tx_done(self) -> None:
        pkt = self._pending_tx
        self._pending_tx = None
        if not self._up:
            # The link failed mid-serialization: the frame is lost and the
            # transmitter stays idle until set_up() restarts it.
            self.failed_tx_packets += 1
            self.failed_tx_bytes += pkt.size
            self._busy = False
            tr = self.tracer
            if tr is not None and tr.active:
                tr.emit(self.sim.now, "link_loss", self.name, pkt)
            return
        tr = self.tracer
        if tr is not None and tr.active:
            tr.emit(self.sim.now, "tx", self.name, pkt)
        delay_s = self.delay_s
        if delay_s > 0:
            self._wire.append(pkt)
            self._schedule(delay_s, self._on_deliver)
        else:
            self._peer_receive(pkt)
        # Inlined _start_tx; _busy is already True here. The link-state
        # re-check is not redundant: a trace subscriber above may have
        # called set_down().
        if self._up:
            nxt = self._dequeue(self.sim.now)
            if nxt is not None:
                self._pending_tx = nxt
                self._schedule(nxt.size * self._ser_s_per_byte,
                               self._on_tx_done)
                return
        self._busy = False

    def _deliver_head(self) -> None:
        """Propagation done for the oldest in-flight packet: hand it over."""
        self._peer_receive(self._wire.popleft())

    def register_metrics(self, registry) -> None:
        """Bind this port's transmit counters (and its queue) into ``registry``."""
        registry.gauge(
            "port.tx_packets", fn=lambda: self.tx_packets, port=self.name)
        registry.gauge(
            "port.tx_bytes", fn=lambda: self.tx_bytes, port=self.name)
        registry.gauge(
            "port.failed_tx_packets",
            fn=lambda: self.failed_tx_packets, port=self.name)
        self.qdisc.register_metrics(registry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.name} {self.rate_bps/1e9:.1f}Gbps q={len(self.qdisc)}>"
