"""Queue-discipline contract shared by DropTail, RED and SimpleMarking.

A :class:`QueueDisc` sits on one egress :class:`~repro.net.port.Port`. The
port calls :meth:`QueueDisc.enqueue` for every arriving packet (the qdisc
may drop it, mark it, or queue it) and :meth:`QueueDisc.dequeue` whenever
the transmitter goes idle.

Those two calls advance only what a run reads while it runs or what
cannot be rebuilt afterwards: the counters. Time-averaged occupancy is
*counted when read* — :meth:`QueueDisc.mean_queue_packets` derives it on
demand from the residence times the departure path already sums, so no
occupancy integral is advanced per packet. So is the byte backlog:
:attr:`QueueDisc.qlen_bytes` is arrival bytes minus departure bytes minus
the bytes of dropped packets, the last kept by the drop paths alone.

Every qdisc maintains a :class:`QueueStats` block with per-class arrival,
drop and mark counters. The per-class split (ECT data vs non-ECT pure ACKs
vs SYN) is exactly the bookkeeping the paper's Section II argument rests
on, so it lives here rather than in an optional monitor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.errors import QueueError
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids core<->net cycle
    from repro.net.packet import Packet

__all__ = ["QueueStats", "QueueDisc", "VERDICT_ENQUEUED", "VERDICT_DROPPED"]

#: Return values of :meth:`QueueDisc.enqueue`.
VERDICT_ENQUEUED = True
VERDICT_DROPPED = False


@dataclass(slots=True)
class QueueStats:
    """Counters for one queue. All counts are packets unless noted.

    ``slots=True``: counter bumps happen ~ten times per packet per hop,
    and slot access is measurably cheaper than instance-dict access.
    """

    arrivals: int = 0
    arrival_bytes: int = 0
    departures: int = 0
    departure_bytes: int = 0
    drops_tail: int = 0          #: drops because the physical buffer was full
    drops_early: int = 0         #: AQM early drops (the paper's villain)
    marks: int = 0               #: CE marks applied to ECT packets
    protected: int = 0           #: early drops avoided by a protection mode

    # per-class arrivals / drops — the disproportionality evidence
    ect_arrivals: int = 0
    ect_drops: int = 0
    ack_arrivals: int = 0        #: pure ACKs (non-ECT by RFC 3168)
    ack_drops: int = 0
    syn_arrivals: int = 0
    syn_drops: int = 0

    queue_delay_sum: float = 0.0  #: summed per-packet residence time (s)
    queue_delay_count: int = 0

    # analytically-advanced traffic (hybrid fidelity runs; always 0 in
    # packet mode). These transits are *also* included in arrivals /
    # departures (credited equally, so every counter equation holds);
    # the dedicated counters exist so reports can tell the fidelity mix.
    fluid_packets: int = 0
    fluid_bytes: int = 0

    # Inert, always 0.0. Nothing advances or reads these (time-averaged
    # occupancy is QueueDisc.mean_queue_packets); they stay because this
    # field list is serialised into every cache entry and hashed into
    # every benchmark sim_digest -- removing one orphans every cache and
    # moves every digest (tests/test_schema_pin.py).
    _occ_integral_pkts: float = field(default=0.0, repr=False)
    _occ_integral_bytes: float = field(default=0.0, repr=False)
    _occ_last_t: float = field(default=0.0, repr=False)

    @property
    def drops(self) -> int:
        """Total drops of any kind."""
        return self.drops_tail + self.drops_early

    @property
    def mean_queue_delay(self) -> float:
        """Average residence time of departed packets (seconds)."""
        if self.queue_delay_count == 0:
            return 0.0
        return self.queue_delay_sum / self.queue_delay_count

    def ack_drop_rate(self) -> float:
        """Fraction of arriving pure ACKs that were dropped."""
        return self.ack_drops / self.ack_arrivals if self.ack_arrivals else 0.0

    def ect_drop_rate(self) -> float:
        """Fraction of arriving ECT packets that were dropped."""
        return self.ect_drops / self.ect_arrivals if self.ect_arrivals else 0.0


class QueueDisc:
    """Base FIFO queue with physical capacity and per-class accounting.

    Subclasses override :meth:`_admit` to implement AQM behaviour; the base
    class implements the FIFO store, the physical (tail-drop) limit and all
    statistics so that subclasses only contain policy.

    Parameters
    ----------
    limit_packets:
        Physical buffer size in packets. The paper's "shallow" switches
        have ~100 packets per port; "deep" ~10x more.
    name:
        Identifier used in traces (set by the owning port).
    """

    def __init__(self, limit_packets: int, name: str = "q"):
        if limit_packets <= 0:
            raise QueueError(f"queue limit must be positive, got {limit_packets}")
        self.limit_packets = int(limit_packets)
        self.name = name
        self._q: Deque[Packet] = deque()
        #: Bytes of every packet counted as an arrival that will never
        #: depart: tail, early and CoDel head drops. Bumped on a drop
        #: only; :attr:`qlen_bytes` is derived from it.
        self._dropped_bytes = 0
        self.stats = QueueStats()
        #: Optional trace bus, set by the owning port. AQM subclasses emit
        #: ``"mark"`` events through :meth:`_trace`; the base class emits
        #: ``"enqueue"`` when someone subscribed to it.
        self.tracer = None
        #: Fluid-fidelity pressure hook (see repro.sim.fluid). While a
        #: fluid flow owns this queue the threshold is lowered so that
        #: any real enqueue fires the callback and demotes the flow;
        #: otherwise the check is one compare against +inf per enqueue.
        self._pressure_th = float("inf")
        self._pressure_cb = None
        #: The two terms of the occupancy integral (packet-seconds) that
        #: ``stats.queue_delay_sum`` does not already hold; see
        #: :meth:`mean_queue_packets`. Cold path only (head drops, fluid
        #: rounds), and deliberately not :class:`QueueStats` fields.
        self._head_drop_sojourn_s = 0.0
        self._fluid_occupancy_adjust_s = 0.0

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._q)

    @property
    def qlen_packets(self) -> int:
        """Instantaneous queue length in packets."""
        return len(self._q)

    @property
    def qlen_bytes(self) -> int:
        """Instantaneous queue length in bytes (counted when read).

        Inside an admission decision, after the arrival counters moved and
        before the append, this already includes the arriving packet.
        """
        st = self.stats
        return st.arrival_bytes - st.departure_bytes - self._dropped_bytes

    @property
    def is_full(self) -> bool:
        """True when the physical buffer has no space for one more packet."""
        return len(self._q) >= self.limit_packets

    def packets(self):
        """Iterate over queued packets head-first (monitor/snapshot use)."""
        return iter(self._q)

    def mean_queue_packets(self, now: float) -> float:
        """Time-averaged queue length in packets over ``[0, now]``.

        Computed when read, from Little's identity: the integral of the
        queue length over time is the summed residence time of every
        packet that was ever queued — departed packets
        (``stats.queue_delay_sum``), CoDel head drops, and
        ``now - enqueued_at`` for the packets still here. Fluid rounds
        credit a closed-form residence time into ``queue_delay_sum``
        without occupying the queue; the adjust term swaps that credit
        for the standing queue's ``occupancy_pkt_s``. O(queue length),
        nothing per packet (DESIGN §3 "Counted when read").
        """
        if now <= 0:
            return 0.0
        queued = 0.0
        for pkt in self._q:
            queued += now - pkt.enqueued_at
        return (self.stats.queue_delay_sum + self._head_drop_sojourn_s
                + self._fluid_occupancy_adjust_s + queued) / now

    # -- the port-facing API -------------------------------------------------

    def enqueue(self, pkt: "Packet", now: float) -> bool:
        """Offer ``pkt`` to the queue at time ``now``.

        Returns ``VERDICT_ENQUEUED`` (True) if the packet was queued,
        ``VERDICT_DROPPED`` (False) if it was dropped. Marking mutates the
        packet in place (CE codepoint).

        This runs once per packet per hop — the per-class counters read
        the packet's precomputed classification attributes, and nothing
        here feeds a statistic that is only read when the run ends.
        """
        st = self.stats
        size = pkt.size
        st.arrivals += 1
        st.arrival_bytes += size
        is_ect = pkt.is_ect
        is_ack = pkt.is_pure_ack
        is_syn = pkt.is_syn
        if is_ect:
            st.ect_arrivals += 1
        if is_ack:
            st.ack_arrivals += 1
        if is_syn:
            st.syn_arrivals += 1

        verdict = self._admit(pkt, now)
        if verdict:
            pkt.enqueued_at = now
            self._q.append(pkt)
            if len(self._q) >= self._pressure_th:
                self._pressure_cb(self, now)
            tr = self.tracer
            if tr is not None and tr.active and tr.wants("enqueue"):
                tr.emit(now, "enqueue", self.name, pkt)
        else:
            self._dropped_bytes += size
            if is_ect:
                st.ect_drops += 1
            if is_ack:
                st.ack_drops += 1
            if is_syn:
                st.syn_drops += 1
        return verdict

    def dequeue(self, now: float) -> Optional[Packet]:
        """Pop the head packet, or None if empty."""
        q = self._q
        if not q:
            return None
        st = self.stats
        pkt = q.popleft()
        size = pkt.size
        st.departures += 1
        st.departure_bytes += size
        st.queue_delay_sum += now - pkt.enqueued_at
        st.queue_delay_count += 1
        self._on_dequeue(pkt, now)
        return pkt

    # -- fluid fidelity ---------------------------------------------------------

    def fluid_threshold_packets(self, rate_bps: float) -> float:
        """Occupancy (packets) at which this queue starts acting on traffic.

        The hybrid fidelity tier demotes a fluid flow strictly before its
        modeled occupancy reaches ``guard_band`` × this value. AQM
        subclasses override it with their marking/drop onset (RED's
        min_th, SimpleMarking's K, CoDel's target delay in packets); the
        base FIFO acts only at the physical limit.
        """
        return float(self.limit_packets)

    def credit_fluid(self, packets: int, bytes_: int, delay_s: float = 0.0,
                     occupancy_pkt_s: float = 0.0,
                     ect: bool = False, ack: bool = False) -> None:
        """Account for analytically-advanced traffic that transited this queue.

        Arrivals and departures (and their byte counters) are credited
        *equally* — fluid traffic never occupies the physical queue, so
        every counter equation the queue-accounting checker audits
        (occupancy = arrivals − drops − departures, byte conservation,
        per-class bounds) remains valid. ``delay_s`` is the summed
        closed-form residence time of the credited packets;
        ``occupancy_pkt_s`` is the standing queue's contribution to the
        occupancy integral behind :meth:`mean_queue_packets`.
        """
        st = self.stats
        st.arrivals += packets
        st.arrival_bytes += bytes_
        st.departures += packets
        st.departure_bytes += bytes_
        st.queue_delay_sum += delay_s
        st.queue_delay_count += packets
        st.fluid_packets += packets
        st.fluid_bytes += bytes_
        if ect:
            st.ect_arrivals += packets
        if ack:
            st.ack_arrivals += packets
        self._fluid_occupancy_adjust_s += occupancy_pkt_s - delay_s

    # -- policy hooks ----------------------------------------------------------

    def _admit(self, pkt: "Packet", now: float) -> bool:
        """Decide the packet's fate. Base class: pure tail drop."""
        if len(self._q) >= self.limit_packets:  # is_full, minus the property call
            self.stats.drops_tail += 1
            return VERDICT_DROPPED
        return VERDICT_ENQUEUED

    def _on_dequeue(self, pkt: "Packet", now: float) -> None:
        """Subclass hook fired after each departure (e.g. RED idle timing)."""

    # -- telemetry --------------------------------------------------------------

    def _trace(self, kind: str, pkt: "Packet", now: float) -> None:
        """Emit one trace event for this queue (no-op without a tracer).

        ``Tracer.active`` gates the emit so an attached-but-idle tracer
        costs two attribute reads, not a record construction.
        """
        tr = self.tracer
        if tr is not None and tr.active:
            tr.emit(now, kind, self.name, pkt)

    def register_metrics(self, registry) -> None:
        """Bind this queue's counters into a telemetry registry.

        The :class:`QueueStats` block stays the single source of truth on
        the hot path; the registry sees it through pull gauges labeled with
        the queue name.
        """
        st = self.stats
        for attr in (
            "arrivals", "departures", "drops_tail", "drops_early", "marks",
            "protected", "ect_arrivals", "ect_drops", "ack_arrivals",
            "ack_drops", "syn_arrivals", "syn_drops",
        ):
            registry.gauge(
                f"queue.{attr}",
                fn=lambda s=st, a=attr: getattr(s, a),
                queue=self.name,
            )
        registry.gauge(
            "queue.qlen_packets", fn=lambda: self.qlen_packets, queue=self.name)
        registry.gauge(
            "queue.mean_delay_s", fn=lambda s=st: s.mean_queue_delay,
            queue=self.name)

    # -- internals ---------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name} {len(self._q)}/{self.limit_packets}p "
            f"{self.qlen_bytes}B>"
        )
