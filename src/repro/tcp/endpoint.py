"""TCP endpoints: connection setup, sliding window, loss recovery, ECN.

Two classes model a unidirectional bulk transfer, mirroring NS-2's
``Agent/TCP`` + ``Agent/TCPSink`` pair the paper used:

* :class:`TcpSender` — the connection initiator and data source. It
  performs the SYN handshake (with ECN negotiation), runs the sliding
  window with NewReno fast retransmit / fast recovery, RFC 6298 RTO with
  exponential backoff and Karn's rule, the classic once-per-RTT ECE
  reaction (TCP-ECN) or DCTCP's α machinery, and go-back-N after an RTO.
* :class:`TcpListener` — bound to a well-known port on the destination
  host, it spawns per-flow receiver state: cumulative ACKs with an
  out-of-order interval buffer, delayed ACKs, and the two ECN echo
  disciplines (classic latch-until-CWR, or DCTCP's precise per-segment
  echo with immediate ACK on CE-state change).

Packet ECN rules follow RFC 3168 and are the crux of the paper:

====================  ==========================  =====================
packet                IP ECN field                TCP flags
====================  ==========================  =====================
SYN (ECN setup)       Non-ECT                     SYN + ECE + CWR
SYN-ACK (ECN setup)   Non-ECT                     SYN + ACK + ECE
data segment          ECT(0) if negotiated        ACK (+CWR after cut)
pure ACK              **Non-ECT, always**         ACK (+ECE when echoing)
====================  ==========================  =====================

Because pure ACKs can never be ECT, an ECN-enabled AQM will early-drop
them in exactly the situations where it merely marks the data packets —
the asymmetry the paper characterises.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import TcpError
from repro.net.host import Host
from repro.net.packet import (
    ECN_ECT0,
    ECN_NOT_ECT,
    FLAG_ACK,
    FLAG_CWR,
    FLAG_ECE,
    FLAG_SYN,
    Packet,
)
from repro.net.addresses import FlowKey
from repro.sim.engine import EventHandle, Simulator
from repro.tcp.cc import CongestionControl, make_cc
# Importing the concrete CC modules populates the registry; the classes
# themselves are only reached through their string keys.
from repro.tcp.cubic import CubicControl  # noqa: F401  (registers "cubic")
from repro.tcp.d2tcp import D2tcpControl  # noqa: F401  (registers "d2tcp")
from repro.tcp.dctcp import DctcpControl  # noqa: F401  (registers "dctcp")
from repro.tcp.newreno import NewRenoControl  # noqa: F401  (registers "newreno")
from repro.tcp.rto import RttEstimator

__all__ = [
    "TcpVariant",
    "TcpConfig",
    "TcpSender",
    "TcpListener",
    "FLAW_PROFILES",
]


class TcpVariant(enum.Enum):
    """Transport flavours evaluated in the paper."""

    RENO = "newreno"  #: plain NewReno, ECN not negotiated
    ECN = "tcp-ecn"   #: NewReno + classic ECN (RFC 3168)
    DCTCP = "dctcp"   #: DCTCP marking reaction + precise echo

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TcpConfig:
    """Knobs shared by all flows of one experiment.

    The RTO defaults are datacenter-tuned (as DCTCP deployments are):
    10 ms minimum RTO, 50 ms initial RTO for SYNs. ``delack_segments=2``
    yields the standard one-ACK-per-two-segments cadence that puts the
    paper's ACK volume on the wire.
    """

    variant: TcpVariant = TcpVariant.ECN
    mss: int = 1460
    init_cwnd_segments: int = 10
    rwnd_bytes: int = 1 << 20
    min_rto: float = 0.010
    init_rto: float = 0.050
    max_rto: float = 2.0
    max_retries: int = 30
    delack_segments: int = 2
    delack_timeout: float = 500e-6
    dctcp_g: float = 1.0 / 16.0
    #: ECN+ (Kuzmanovic): send SYN / SYN-ACK as ECT(0) so AQMs mark rather
    #: than drop them. Off by default — stock RFC 3168 sends Non-ECT SYNs,
    #: which is exactly what the paper's problem statement relies on. The
    #: ablation benches compare this host-side fix against the paper's
    #: switch-side protection.
    ect_syn: bool = False
    #: RFC 3042 limited transmit: send one new segment on each of the
    #: first two duplicate ACKs, improving loss recovery for the small
    #: windows the shuffle's short flows run at.
    limited_transmit: bool = False
    #: Congestion-control registry key (see :mod:`repro.tcp.cc`). ``None``
    #: selects the variant's historical default: ``dctcp`` for the DCTCP
    #: variant, ``newreno`` otherwise. The key is orthogonal to
    #: ``variant``, which keeps selecting the *receiver echo discipline*
    #: and ECN negotiation — e.g. ``variant=DCTCP, cc="cubic"`` runs CUBIC
    #: against a precise per-segment echo receiver.
    cc: Optional[str] = None
    #: Byte-precise CE echo (the Misund delayed-ACK coalescing fix): the
    #: receiver stamps each ACK with the number of newly-acked bytes that
    #: arrived CE-marked, and DCTCP accumulates those instead of
    #: attributing every byte of an ECE-flagged delayed ACK to the mark.
    #: False reproduces the flawed flag-only accounting.
    precise_ece_accounting: bool = True
    #: RFC 3168 §6.1.5 requires retransmitted segments to go out Non-ECT.
    #: True reproduces the flawed legacy behavior (retransmits sent
    #: ECT(0), so AQMs mark them and the marks feed α during recovery).
    mark_retransmits: bool = False
    #: Reset DCTCP's α observation window on RTO so a stale
    #: ``_window_end``/mark pair from before the stall cannot govern the
    #: first post-RTO window. False reproduces the α-freeze flaw.
    dctcp_rto_window_reset: bool = True

    @property
    def ecn_enabled(self) -> bool:
        """True when the variant negotiates ECN on the handshake."""
        return self.variant is not TcpVariant.RENO

    def cc_key(self) -> str:
        """Resolved congestion-control registry key."""
        if self.cc is not None:
            return self.cc
        return "dctcp" if self.variant is TcpVariant.DCTCP else "newreno"

    def make_cc(self) -> CongestionControl:
        """Build the congestion-control policy for one flow."""
        return make_cc(self.cc_key(), self)

    def with_flaw_profile(self, profile: Optional[str]) -> "TcpConfig":
        """Return a copy with one of :data:`FLAW_PROFILES` applied."""
        if profile is None:
            return self
        try:
            overrides = FLAW_PROFILES[profile]
        except KeyError:
            known = ", ".join(sorted(FLAW_PROFILES)) or "<none>"
            raise TcpError(
                f"unknown flaw profile {profile!r}; known: {known}"
            ) from None
        return dataclasses.replace(self, **overrides)


#: Named bundles of endpoint-fidelity toggles reproducing the Linux DCTCP
#: pathologies from Misund (arXiv:2211.07581). ``linux-dctcp`` is the full
#: flawed stack; the other three isolate one pathology each.
FLAW_PROFILES: Dict[str, Dict[str, bool]] = {
    "linux-dctcp": {
        "precise_ece_accounting": False,
        "mark_retransmits": True,
        "dctcp_rto_window_reset": False,
    },
    "coalesce": {"precise_ece_accounting": False},
    "retx-mark": {"mark_retransmits": True},
    "alpha-freeze": {"dctcp_rto_window_reset": False},
}


@dataclass(slots=True)
class SenderStats:
    """Per-flow sender-side counters."""

    data_packets_sent: int = 0
    retransmits: int = 0
    fast_retransmits: int = 0
    rtos: int = 0
    syn_retries: int = 0
    ece_acks: int = 0
    cwnd_cuts: int = 0


class TcpSender:
    """Connection initiator and unidirectional data source.

    Parameters
    ----------
    sim, host:
        Kernel and local host.
    dst, dport:
        Destination host id and listener port.
    nbytes:
        Payload bytes to transfer.
    config:
        Shared :class:`TcpConfig`.
    on_complete:
        Called as ``on_complete(sender)`` when the last byte is
        cumulatively acknowledged.
    on_fail:
        Called as ``on_fail(sender)`` if retries are exhausted.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst: int,
        dport: int,
        nbytes: int,
        config: TcpConfig,
        on_complete: Optional[Callable[["TcpSender"], None]] = None,
        on_fail: Optional[Callable[["TcpSender"], None]] = None,
        sport: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ):
        if nbytes <= 0:
            raise TcpError(f"flow size must be positive, got {nbytes}")
        self.sim = sim
        self.host = host
        self.dst = dst
        self.dport = dport
        self.nbytes = int(nbytes)
        self.config = config
        self.on_complete = on_complete
        self.on_fail = on_fail
        self.sport = sport if sport is not None else host.allocate_port()
        #: Soft completion deadline relative to flow start (deadline-aware
        #: policies like D2TCP read it through :meth:`bind_flow`).
        self.deadline_s = deadline_s

        self.cc = config.make_cc()
        self.cc.bind_flow(self)
        self.rtt = RttEstimator(config.init_rto, config.min_rto, config.max_rto)
        self.stats = SenderStats()
        # Hot-path hoists: TcpConfig is frozen, so the per-segment and
        # per-ACK paths read plain instance attributes.
        self._mss = config.mss
        self._rwnd = config.rwnd_bytes
        self._precise_ece = config.precise_ece_accounting
        self._mark_retransmits = config.mark_retransmits
        self._cc_ecn_per_ack = self.cc.ecn_per_ack
        # Wired once: constants of the flow's lifetime are resolved here,
        # not per segment (the host's id and send entry point, the run's
        # packet-id counter, the one callback the RTO timer schedules).
        self._src = host.node_id
        self._host_send = host.send
        self._pkt_ids = sim.pkt_ids
        self._rto_cb = self._on_rto

        self.state = "closed"  # closed -> syn_sent -> established -> done/failed
        self.snd_una = 0
        self.snd_nxt = 0
        self.dup_acks = 0
        self.in_recovery = False
        self._recover = 0            # highest snd_nxt at recovery entry
        self._tx_time: Dict[int, float] = {}  # seq_end -> send time (RTT samples)
        self._no_sample_below = 0    # Karn: suppress samples at/below this seq_end
        self._rto_handle: Optional[EventHandle] = None
        self._retries = 0
        self._ecn_negotiated = False
        self._need_cwr = False
        self._ece_gate = 0           # classic ECN: no new cut until una passes this

        self.start_time: Optional[float] = None
        self.established_time: Optional[float] = None
        self.end_time: Optional[float] = None

        # Per-flow timeline events ride the network's trace bus; when no
        # bus is attached (or nobody subscribed) the emit sites reduce to
        # one attribute load + None test.
        self._tracer = getattr(host, "tracer", None)
        self._flow_label = f"{host.name}:{self.sport}->h{dst}:{dport}"

        # Hybrid fidelity (repro.sim.fluid). In packet mode the manager
        # is None and every hook below is a single attribute test;
        # _fluid_wait gates _try_send while the manager drains or
        # analytically advances this flow.
        self._fluid_wait = False
        self._fluid_mgr = getattr(sim, "fluid", None)
        if self._fluid_mgr is not None:
            self._fluid_mgr.adopt(self)

        host.bind(self.sport, self._on_packet)

    # -- public API ----------------------------------------------------------

    @property
    def flow(self) -> FlowKey:
        """Forward-direction flow key."""
        return FlowKey(self._src, self.sport, self.dst, self.dport)

    @property
    def flight_bytes(self) -> int:
        """Unacknowledged bytes in the network."""
        return self.snd_nxt - self.snd_una

    @property
    def done(self) -> bool:
        """True once every payload byte is cumulatively acknowledged."""
        return self.state == "done"

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time (start of SYN to last ACK), if done."""
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    # -- telemetry -----------------------------------------------------------

    def _trace_cwnd(self, event: str) -> None:
        """Emit one ``tcp.cwnd`` timeline sample (call sites guard on tracer)."""
        tr = self._tracer
        if tr is None or not tr.wants("tcp.cwnd"):
            return
        tr.emit(self.sim.now, "tcp.cwnd", self._flow_label, {
            "event": event,
            "cwnd": self.cc.cwnd,
            "ssthresh": min(self.cc.ssthresh, 1e15),
            "flight": self.flight_bytes,
            "rto": self.rtt.rto,
            "state": self.state,
            "in_recovery": self.in_recovery,
            # Sequence-space fields consumed by repro.validate's TCP
            # checker (ack monotonicity, flight accounting, Karn window).
            "snd_una": self.snd_una,
            "snd_nxt": self.snd_nxt,
            "no_sample_below": self._no_sample_below,
            "nbytes": self.nbytes,
        })

    def register_metrics(self, registry) -> None:
        """Bind this flow's :class:`SenderStats` into a telemetry registry.

        Per-flow label cardinality is the caller's problem — register the
        handful of flows under study, not a whole shuffle's worth.
        """
        st = self.stats
        for attr in ("data_packets_sent", "retransmits", "fast_retransmits",
                     "rtos", "syn_retries", "ece_acks", "cwnd_cuts"):
            registry.gauge(
                f"tcp.{attr}",
                fn=lambda s=st, a=attr: getattr(s, a),
                flow=self._flow_label,
            )

    def start(self) -> None:
        """Begin the handshake."""
        if self.state != "closed":
            raise TcpError(f"flow {self.flow}: start() in state {self.state}")
        self.state = "syn_sent"
        self.start_time = self.sim.now
        self._send_syn()

    # -- handshake -----------------------------------------------------------

    def _send_syn(self) -> None:
        flags = FLAG_SYN
        ecn = ECN_NOT_ECT
        if self.config.ecn_enabled:
            flags |= FLAG_ECE | FLAG_CWR  # RFC 3168 ECN-setup SYN
            if self.config.ect_syn:
                ecn = ECN_ECT0  # ECN+: let AQMs mark the SYN, not drop it
        self._host_send(Packet(
            src=self._src, sport=self.sport,
            dst=self.dst, dport=self.dport,
            seq=0, ack=0, payload=0, flags=flags,
            ecn=ecn, created_at=self.sim.now,
            pkt_id=next(self._pkt_ids),
        ))
        self._arm_rto()

    # -- transmit path ---------------------------------------------------------

    def _send_segment(self, seq: int, retransmit: bool) -> int:
        """Send one data segment starting at ``seq``; returns its length."""
        seglen = min(self._mss, self.nbytes - seq)
        if seglen <= 0:
            return 0
        flags = FLAG_ACK
        if self._need_cwr:
            flags |= FLAG_CWR
            self._need_cwr = False
        now = self.sim.now
        # RFC 3168 §6.1.5: retransmissions MUST NOT be ECT. The
        # mark_retransmits toggle reproduces the legacy flaw where
        # retransmits go out ECT(0) and their marks feed DCTCP's α.
        ecn = (
            ECN_ECT0
            if self._ecn_negotiated and (not retransmit or self._mark_retransmits)
            else ECN_NOT_ECT
        )
        # Positional (matching 12 keywords per segment is measurable).
        pkt = Packet(
            self._src, self.sport, self.dst, self.dport,
            seq, 0, seglen, flags,  # seq, ack, payload, flags
            ecn, None, now, next(self._pkt_ids),  # ecn, size, created_at, pkt_id
        )
        end = seq + seglen
        if retransmit:
            self.stats.retransmits += 1
            self._tx_time.pop(end, None)  # Karn: never sample a retransmit
            tr = self._tracer
            if tr is not None and tr.wants("tcp.retx"):
                tr.emit(now, "tcp.retx", self._flow_label, {
                    "seq": seq, "len": seglen,
                    "in_recovery": self.in_recovery,
                })
        elif end > self._no_sample_below:
            self._tx_time[end] = now
        self.stats.data_packets_sent += 1
        self._host_send(pkt)
        return seglen

    def _try_send(self) -> None:
        if self.state != "established" or self._fluid_wait:
            return
        sent_any = False
        # Loop invariants: _send_segment never touches cwnd, snd_una or
        # _no_sample_below, so the window bound and rollback frontier are
        # hoisted out of the clocking loop.
        nbytes = self.nbytes
        mss = self._mss
        wnd = int(min(self.cc.cwnd, self._rwnd))
        snd_una = self.snd_una
        no_sample = self._no_sample_below
        while True:
            snd_nxt = self.snd_nxt
            remaining = nbytes - snd_nxt
            if remaining <= 0:
                break
            if wnd - (snd_nxt - snd_una) < (mss if mss < remaining else remaining):
                break
            # After an RTO rollback, bytes below the old frontier are
            # retransmits even though the loop treats them as new sends.
            n = self._send_segment(snd_nxt, retransmit=snd_nxt < no_sample)
            if n == 0:
                break
            self.snd_nxt = snd_nxt + n
            sent_any = True
        if sent_any:
            self._arm_rto()

    # -- receive path -------------------------------------------------------------

    def _on_packet(self, pkt: Packet) -> None:
        state = self.state
        if state == "established":  # first: every ACK of a transfer
            if pkt.flags & FLAG_ACK:
                self._on_ack(pkt)
        elif state == "syn_sent":
            if pkt.is_syn and (pkt.flags & FLAG_ACK):
                self._on_syn_ack(pkt)
        # closed / done / failed: nothing to receive.

    def _on_syn_ack(self, pkt: Packet) -> None:
        self._cancel_rto()
        self._retries = 0
        self._ecn_negotiated = self.config.ecn_enabled and pkt.has_ece
        self.state = "established"
        self.established_time = self.sim.now
        if self.start_time is not None:
            self.rtt.sample(self.sim.now - self.start_time)
        # Handshake-completing pure ACK (non-ECT, like every pure ACK).
        self._host_send(Packet(
            src=self._src, sport=self.sport,
            dst=self.dst, dport=self.dport,
            seq=0, ack=0, payload=0, flags=FLAG_ACK,
            ecn=ECN_NOT_ECT, created_at=self.sim.now,
            pkt_id=next(self._pkt_ids),
        ))
        self._try_send()

    def _on_ack(self, pkt: Packet) -> None:
        ack = pkt.ack
        ece = pkt.has_ece
        if ece:
            self.stats.ece_acks += 1
            tr = self._tracer
            if tr is not None and tr.wants("tcp.ece"):
                tr.emit(self.sim.now, "tcp.ece", self._flow_label,
                        {"ack": ack, "cwnd": self.cc.cwnd})

        if ack > self.snd_una:
            self._on_ack_advance(ack, ece, pkt.marked_bytes)
        elif ack == self.snd_una and self.snd_nxt > ack:  # bytes in flight
            self._on_dup_ack(ece)
        # ACKs below snd_una are stale; ignore.

        if self._fluid_mgr is not None and self.state == "established":
            self._fluid_mgr.on_ack(self)
        if self.state == "established":
            self._try_send()

    def _classic_ecn_gate(self, ece: bool) -> None:
        """Classic ECN: cut at most once per window of data (RFC 3168)."""
        if not ece or not self._ecn_negotiated or self._cc_ecn_per_ack:
            # Policies that consume every ECE themselves (DCTCP family)
            # disable the gate; without negotiation ECE never arrives.
            return
        if self.snd_una >= self._ece_gate:
            self.cc.on_ecn_signal(self.flight_bytes)
            self.stats.cwnd_cuts += 1
            self._ece_gate = self.snd_nxt
            self._need_cwr = True

    def _on_ack_advance(self, ack: int, ece: bool, marked_bytes: int = 0) -> None:
        acked = ack - self.snd_una

        # RTT sampling keyed by segment end; purge everything acked. New
        # data is sent in sequence order and an RTO clears the dict, so
        # keys sit in ascending insertion order: the acked ones are at the
        # front and the scan stops at the first one past ``ack``.
        tx_time = self._tx_time
        t = tx_time.pop(ack, None)
        if t is not None:
            self.rtt.sample(self.sim.now - t)
        if tx_time:
            acked_ends = []
            for end in tx_time:
                if end > ack:
                    break
                acked_ends.append(end)
            for end in acked_ends:
                del tx_time[end]

        self.snd_una = ack
        # An RTO collapses snd_nxt back to snd_una + mss (go-back-N), but
        # ACKs for segments already in flight before the collapse can
        # still arrive and overtake it. The send point must never trail
        # the cumulative ACK: snd_nxt < snd_una means negative flight and
        # retransmission of bytes the peer has acknowledged.
        if self.snd_nxt < ack:
            self.snd_nxt = ack
        self.dup_acks = 0
        self.rtt.reset_backoff()
        self._retries = 0

        # ECN reactions (order matters: DCTCP bookkeeping sees every ACK).
        if self.cc.on_ack_info(
            acked, ece, ack, self.snd_nxt,  # ack is the new snd_una
            marked_bytes if self._precise_ece else None,  # marked_bytes
            self.in_recovery,  # in_recovery
        ):
            self.stats.cwnd_cuts += 1
            self._need_cwr = True
        if ece:  # gate is a no-op without ECE; skip the frame on most ACKs
            self._classic_ecn_gate(ece)

        if self.in_recovery:
            if ack >= self._recover:
                # Full ACK: leave fast recovery, deflate to ssthresh.
                self.in_recovery = False
                self.cc.cwnd = self.cc.ssthresh
            else:
                # Partial ACK (NewReno): retransmit the next hole, stay in
                # recovery, deflate by the amount acked.
                self._send_segment(self.snd_una, retransmit=True)
                mss = self._mss
                self.cc.cwnd = max(self.cc.cwnd - acked + mss, float(mss))
        else:
            self.cc.on_ack_progress(acked)

        if self._tracer is not None:
            self._trace_cwnd("ack")

        if self.snd_una >= self.nbytes:
            self._complete()
        else:
            self._arm_rto()

    def _on_dup_ack(self, ece: bool) -> None:
        self.dup_acks += 1
        if ece:  # gate is a no-op without ECE; skip the frame on most ACKs
            self._classic_ecn_gate(ece)
        if (
            self.config.limited_transmit
            and not self.in_recovery
            and self.dup_acks in (1, 2)
            and self.snd_nxt < self.nbytes
            and self.flight_bytes
            <= min(self.cc.cwnd, self._rwnd) + 2 * self._mss
        ):
            # RFC 3042: each of the first two dup ACKs may clock out one
            # new segment without touching cwnd.
            n = self._send_segment(self.snd_nxt, retransmit=False)
            if n > 0:
                self.snd_nxt += n
                self._arm_rto()
        if not self.in_recovery and self.dup_acks == 3:
            # Fast retransmit + fast recovery.
            self.in_recovery = True
            self._recover = self.snd_nxt
            self.cc.on_loss_event(self.flight_bytes)
            self.stats.cwnd_cuts += 1
            self.stats.fast_retransmits += 1
            self._send_segment(self.snd_una, retransmit=True)
            self.cc.cwnd = self.cc.ssthresh + 3.0 * self._mss
            if self._tracer is not None:
                self._trace_cwnd("fast_retransmit")
            self._arm_rto()
        elif self.in_recovery:
            self.cc.cwnd += self._mss  # window inflation

    # -- timers -----------------------------------------------------------------

    def _arm_rto(self) -> None:
        # Inlined _cancel_rto (keep in sync) — re-arming happens per ACK.
        sim = self.sim
        h = self._rto_handle
        if h is not None:
            sim.cancel(h)
        self._rto_handle = sim.schedule(self.rtt.rto, self._rto_cb)

    def _cancel_rto(self) -> None:
        if self._rto_handle is not None:
            self.sim.cancel(self._rto_handle)
            self._rto_handle = None

    def _on_rto(self) -> None:
        self._rto_handle = None
        if self.state in ("done", "failed"):
            return
        self._retries += 1
        if self._retries > self.config.max_retries:
            self._fail()
            return
        self.rtt.backoff()

        if self.state == "syn_sent":
            self.stats.syn_retries += 1
            self._send_syn()
            return

        # Data RTO: collapse to one segment and go-back-N from snd_una.
        self.stats.rtos += 1
        if self._fluid_mgr is not None:
            self._fluid_mgr.on_congestion(self)
        tr = self._tracer
        if tr is not None and tr.wants("tcp.rto"):
            tr.emit(self.sim.now, "tcp.rto", self._flow_label, {
                "retries": self._retries, "rto": self.rtt.rto,
                "snd_una": self.snd_una, "snd_nxt": self.snd_nxt,
            })
        self.cc.on_rto(self.flight_bytes)
        self.stats.cwnd_cuts += 1
        self.in_recovery = False
        self.dup_acks = 0
        self._tx_time.clear()
        self._no_sample_below = max(self._no_sample_below, self.snd_nxt)
        self.snd_nxt = self.snd_una
        self._send_segment(self.snd_una, retransmit=True)
        self.snd_nxt = min(self.snd_una + self._mss, self.nbytes)
        if self._tracer is not None:
            self._trace_cwnd("rto")
        self._arm_rto()

    # -- terminal states ------------------------------------------------------------

    def _complete(self) -> None:
        self._cancel_rto()
        self.state = "done"
        self.end_time = self.sim.now
        self.host.unbind(self.sport)
        if self._fluid_mgr is not None:
            self._fluid_mgr.on_flow_done(self)
        if self.on_complete is not None:
            self.on_complete(self)

    def _fail(self) -> None:
        self._cancel_rto()
        self.state = "failed"
        self.end_time = self.sim.now
        self.host.unbind(self.sport)
        if self._fluid_mgr is not None:
            self._fluid_mgr.on_flow_done(self)
        if self.on_fail is not None:
            self.on_fail(self)
        else:
            raise TcpError(f"flow {self.flow} exhausted retries")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpSender {self.flow} {self.state} una={self.snd_una} "
            f"nxt={self.snd_nxt}/{self.nbytes} cwnd={self.cc.cwnd:.0f}>"
        )


# ---------------------------------------------------------------------------
# Receiver side
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _ReceiverState:
    """Per-flow receive state inside a listener."""

    peer: int
    peer_port: int
    ecn_ok: bool
    rcv_nxt: int = 0
    ooo: List[Tuple[int, int]] = field(default_factory=list)  # merged intervals
    bytes_received: int = 0          # cumulative in-order bytes delivered
    segs_since_ack: int = 0
    delack_handle: Optional[EventHandle] = None
    # classic ECN echo: latch ECE until a CWR data segment arrives
    ece_latch: bool = False
    # DCTCP precise echo state
    ce_state: bool = False
    ce_packets: int = 0
    data_packets: int = 0
    # Byte-precise CE echo: payload bytes that arrived CE but whose
    # cumulative ACK has not gone out yet, and the rcv_nxt covered by the
    # last ACK sent (to attribute marked bytes to exactly one ACK).
    ce_bytes_pending: int = 0
    last_acked: int = 0
    # Coalesced (flawed) DCTCP echo: any CE since the last ACK latches the
    # next ACK's ECE, so one mark claims the whole delayed-ACK window.
    ce_seen: bool = False
    #: Full flow key, built once at SYN time (the per-packet demux keys on
    #: the cheaper ``(src, sport)`` tuple instead).
    key: Optional[FlowKey] = None
    #: Per-flow delayed-ACK closure, built once at SYN time so re-arming
    #: the timer never allocates a new one.
    delack_cb: Optional[Callable[[], None]] = None


class TcpListener:
    """Accepts connections on (host, port) and runs per-flow receivers.

    Parameters
    ----------
    sim, host, port:
        Where to listen.
    config:
        Shared :class:`TcpConfig`; the ``variant`` selects the ECN echo
        discipline (classic latch vs DCTCP precise echo).
    on_progress:
        Optional ``on_progress(flow_key, state)`` callback fired whenever
        in-order data advances (the shuffle layer tracks fetch progress
        through this).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        port: int,
        config: TcpConfig,
        on_progress: Optional[Callable[[FlowKey, _ReceiverState], None]] = None,
    ):
        self.sim = sim
        self.host = host
        self.port = port
        self.config = config
        self.on_progress = on_progress
        # Demux by (src, sport): the local (host, port) half of the flow
        # key is constant for a listener, so the per-packet lookup key is
        # a plain 2-tuple; the full FlowKey lives in _ReceiverState.key.
        self.flows: Dict[tuple, _ReceiverState] = {}
        # Hot-path hoists (TcpConfig is frozen).
        self._variant = config.variant
        self._delack_segments = config.delack_segments
        self._delack_timeout = config.delack_timeout
        self._precise_echo = config.precise_ece_accounting
        # Wired once, as in TcpSender.
        self._src = host.node_id
        self._host_send = host.send
        self._pkt_ids = sim.pkt_ids
        host.bind(port, self._on_packet)

    def close(self) -> None:
        """Stop listening and drop all flow state."""
        self.host.unbind(self.port)
        for st in self.flows.values():
            if st.delack_handle is not None:
                self.sim.cancel(st.delack_handle)
        self.flows.clear()

    # -- packet handling -------------------------------------------------------

    def _on_packet(self, pkt: Packet) -> None:
        st = self.flows.get((pkt.src, pkt.sport))
        if pkt.is_syn:
            self._on_syn(pkt, st)
            return
        if st is None:
            return  # data for an unknown flow (e.g. SYN state dropped); ignore
        if pkt.payload > 0:
            self._on_data(st, pkt)
        # Pure ACKs from the sender (handshake third step) need no action.

    def _on_syn(self, pkt: Packet, st: Optional[_ReceiverState]) -> None:
        if st is None:
            ecn_ok = self.config.ecn_enabled and pkt.has_ece and pkt.has_cwr
            st = _ReceiverState(peer=pkt.src, peer_port=pkt.sport, ecn_ok=ecn_ok)
            st.key = FlowKey(pkt.src, pkt.sport, self._src, self.port)
            st.delack_cb = lambda st=st: self._delack_fire(st)
            self.flows[(pkt.src, pkt.sport)] = st
        # Reply (or re-reply on retransmitted SYN) with a SYN-ACK; ECN-setup
        # SYN-ACK carries ECE in the TCP header (RFC 3168).
        flags = FLAG_SYN | FLAG_ACK
        ecn = ECN_NOT_ECT
        if st.ecn_ok:
            flags |= FLAG_ECE
            if self.config.ect_syn:
                ecn = ECN_ECT0  # ECN+ applies to the SYN-ACK as well
        self._host_send(Packet(
            src=self._src, sport=self.port,
            dst=st.peer, dport=st.peer_port,
            seq=0, ack=0, payload=0, flags=flags,
            ecn=ecn, created_at=self.sim.now,
            pkt_id=next(self._pkt_ids),
        ))

    # -- data path ------------------------------------------------------------------

    def _on_data(self, st: _ReceiverState, pkt: Packet) -> None:
        st.data_packets += 1
        seg_ce = pkt.is_ce
        if seg_ce:
            st.ce_packets += 1

        # ECN echo discipline.
        immediate_echo = False
        variant = self._variant
        if variant is TcpVariant.DCTCP:
            if not self._precise_echo:
                # Flawed (coalesced) echo: no state-change ACK; any CE in
                # the delayed-ACK window latches ECE on the next ACK, so
                # one mark claims every byte that ACK covers (the Misund
                # delayed-ACK mark-coalescing pathology).
                st.ce_state = seg_ce
                if seg_ce:
                    st.ce_seen = True
            elif seg_ce != st.ce_state:
                # DCTCP: CE state change -> ACK everything so far with the
                # *old* state immediately, then flip.
                self._send_ack(st, ece=st.ce_state)
                st.ce_state = seg_ce
                immediate_echo = True
        elif variant is TcpVariant.ECN:
            if seg_ce:
                st.ece_latch = True
            if pkt.has_cwr:
                st.ece_latch = seg_ce  # CWR clears the latch (re-set if CE too)

        start, end = pkt.seq, pkt.seq + pkt.payload
        if seg_ce and end > st.rcv_nxt:
            # Byte-precise echo bookkeeping: remember how many *new*
            # payload bytes arrived CE-marked. Runs after the echo
            # discipline so a state-change ACK (which covers only older
            # bytes) cannot claim this segment's marks. Old duplicates are
            # excluded — their bytes were already attributed.
            new_bytes = end - st.rcv_nxt
            st.ce_bytes_pending += (
                pkt.payload if pkt.payload < new_bytes else new_bytes
            )
        if end <= st.rcv_nxt:
            # Old duplicate: ACK immediately so the sender resynchronises.
            self._send_ack(st)
            return
        if start > st.rcv_nxt:
            # Out of order: buffer and emit an immediate dup ACK.
            self._insert_ooo(st, start, end)
            self._send_ack(st)
            return

        # In-order (possibly overlapping) segment: advance rcv_nxt.
        st.rcv_nxt = max(st.rcv_nxt, end)
        if st.ooo:
            self._drain_ooo(st)
        st.bytes_received = st.rcv_nxt

        if self.on_progress is not None:
            self.on_progress(st.key, st)

        if immediate_echo:
            # The state-change ACK already went out; still count this
            # segment toward the delayed-ACK cadence for the next one.
            st.segs_since_ack = 1
            self._arm_delack(st)
            return

        st.segs_since_ack += 1
        if st.segs_since_ack >= self._delack_segments:
            self._send_ack(st)
        else:
            self._arm_delack(st)

    @staticmethod
    def _insert_ooo(st: _ReceiverState, start: int, end: int) -> None:
        """Insert [start, end) into the merged out-of-order interval list."""
        intervals = st.ooo
        intervals.append((start, end))
        intervals.sort()
        merged: List[Tuple[int, int]] = []
        for s, e in intervals:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        st.ooo = merged

    @staticmethod
    def _drain_ooo(st: _ReceiverState) -> None:
        """Advance rcv_nxt through any now-contiguous buffered intervals."""
        while st.ooo and st.ooo[0][0] <= st.rcv_nxt:
            s, e = st.ooo.pop(0)
            st.rcv_nxt = max(st.rcv_nxt, e)

    # -- ACK generation -----------------------------------------------------------

    def _send_ack(self, st: _ReceiverState, ece: Optional[bool] = None) -> None:
        h = st.delack_handle
        if h is not None:
            self.sim.cancel(h)
            st.delack_handle = None
        st.segs_since_ack = 0
        # Byte-precise CE echo: attribute pending marked bytes to the
        # first ACK whose cumulative number covers them (dup ACKs carry 0
        # and leave the pending count for the eventual cumulative ACK).
        marked = 0
        newly = st.rcv_nxt - st.last_acked
        if newly > 0:
            st.last_acked = st.rcv_nxt
            pending = st.ce_bytes_pending
            if pending > 0:
                marked = pending if pending < newly else newly
                st.ce_bytes_pending = pending - marked
        flags = FLAG_ACK
        if st.ecn_ok:
            # The echo discipline: an explicit ``ece`` (DCTCP state-change
            # ACK) wins; otherwise DCTCP echoes its CE state (or the
            # coalesced latch), classic ECN its latch-until-CWR.
            if ece is None:
                if self._variant is TcpVariant.DCTCP:
                    ece = st.ce_state if self._precise_echo else st.ce_seen
                else:
                    ece = st.ece_latch
            if ece:
                flags |= FLAG_ECE
        st.ce_seen = False  # the coalesced latch is consumed by this ACK
        # Positional, as in TcpSender._send_segment.
        self._host_send(Packet(
            self._src, self.port, st.peer, st.peer_port,
            0, st.rcv_nxt, 0, flags,  # seq, ack, payload, flags
            ECN_NOT_ECT,  # pure ACKs are never ECT — the paper's crux
            None, self.sim.now, next(self._pkt_ids),  # size, created_at, pkt_id
            marked,  # marked_bytes
        ))

    def _arm_delack(self, st: _ReceiverState) -> None:
        if st.delack_handle is None:
            st.delack_handle = self.sim.schedule(
                self._delack_timeout, st.delack_cb
            )

    def _delack_fire(self, st: _ReceiverState) -> None:
        st.delack_handle = None
        if st.segs_since_ack > 0:
            self._send_ack(st)
