"""The simulated packet.

One :class:`Packet` instance models an Ethernet frame carrying an IPv4/TCP
segment. Only the fields the paper's mechanisms read are modelled:

* the **IP ECN field** (Table II of the paper): Non-ECT / ECT(0) / ECT(1) /
  CE — this is what AQMs inspect when deciding to mark or drop;
* the **TCP flags byte** including **ECE** and **CWR** (Table I) — this is
  what the paper's ECE-bit protection inspects, and what distinguishes pure
  ACKs and SYNs from data segments;
* sequence/ack numbers and payload length for the TCP machinery;
* timestamps for end-to-end and per-queue latency accounting.

Packets use ``__slots__`` and plain attributes: in a shuffle-phase run the
simulator creates hundreds of thousands of them, and attribute access is
the single hottest operation in the repository. The classification
predicates that a hop reads (``is_ect``, ``is_ce``, ``has_ece``,
``has_cwr``, ``is_syn``, ``is_pure_ack``) are therefore **plain attributes
computed once at construction**, not ``property`` descriptors: every AQM
enqueue reads several of them, and a descriptor call per read cost more
than the whole set of stores at construction. The four flag-derived ones
come from one lookup in :data:`FLAG_CLASS`, indexed by the flags byte.
``is_fin`` and ``is_data``, which no hop reads, are properties. The
attributes stay correct because nothing in the stack mutates ``flags``,
``payload`` or ``ecn`` after construction except :meth:`Packet.mark_ce`,
which refreshes the two ECN-derived attributes itself.

Packet ids come from a counter. Constructors on the simulation hot path
pass ``pkt_id=next(sim.pkt_ids)`` (the per-run counter owned by
:class:`~repro.sim.engine.Simulator`) so that back-to-back runs in one
process emit identical ids and therefore byte-identical traces; bare
``Packet(...)`` construction (tests, examples) falls back to a module
counter whose only guarantee is uniqueness within the process.
"""

from __future__ import annotations

from itertools import count
from typing import Optional

from repro.net.addresses import FlowKey

__all__ = [
    "ECN_NOT_ECT",
    "ECN_ECT0",
    "ECN_ECT1",
    "ECN_CE",
    "ECN_NAMES",
    "FLAG_FIN",
    "FLAG_SYN",
    "FLAG_RST",
    "FLAG_PSH",
    "FLAG_ACK",
    "FLAG_URG",
    "FLAG_ECE",
    "FLAG_CWR",
    "flag_names",
    "FLAG_CLASS",
    "IP_TCP_HEADER_BYTES",
    "DEFAULT_MSS",
    "PURE_ACK_BYTES",
    "Packet",
]

# -- IP ECN codepoints (2-bit field, RFC 3168 / paper Table II) -------------
ECN_NOT_ECT = 0b00  #: Non ECN-Capable Transport
ECN_ECT1 = 0b01     #: ECN Capable Transport, ECT(1)
ECN_ECT0 = 0b10     #: ECN Capable Transport, ECT(0)
ECN_CE = 0b11       #: Congestion Encountered

ECN_NAMES = {
    ECN_NOT_ECT: "Non-ECT",
    ECN_ECT1: "ECT(1)",
    ECN_ECT0: "ECT(0)",
    ECN_CE: "CE",
}

# -- TCP header flags (RFC 793 + RFC 3168, paper Table I for ECE/CWR) -------
FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
FLAG_URG = 0x20
FLAG_ECE = 0x40  #: ECN-Echo flag
FLAG_CWR = 0x80  #: Congestion Window Reduced

_FLAG_NAME_ORDER = (
    (FLAG_SYN, "SYN"),
    (FLAG_FIN, "FIN"),
    (FLAG_RST, "RST"),
    (FLAG_PSH, "PSH"),
    (FLAG_ACK, "ACK"),
    (FLAG_URG, "URG"),
    (FLAG_ECE, "ECE"),
    (FLAG_CWR, "CWR"),
)


def flag_names(flags: int) -> str:
    """Human-readable ``"SYN|ACK|ECE"`` rendering of a flags byte."""
    names = [name for bit, name in _FLAG_NAME_ORDER if flags & bit]
    return "|".join(names) if names else "-"


#: ``FLAG_CLASS[flags]`` is ``(has_ece, has_cwr, is_syn, ack_only)`` for
#: every flags byte, where ``ack_only`` is "ACK set, SYN and FIN clear": a
#: packet is a pure ACK when that holds and it carries no payload.
FLAG_CLASS = tuple(
    (f & FLAG_ECE != 0, f & FLAG_CWR != 0, f & FLAG_SYN != 0,
     f & FLAG_ACK != 0 and f & (FLAG_SYN | FLAG_FIN) == 0)
    for f in range(256)
)


#: Combined IPv4 (20 B) + TCP (20 B) header size modelled per packet.
IP_TCP_HEADER_BYTES = 40

#: Default maximum segment size; with the 40 B header this yields the
#: classic 1500 B MTU used in the paper's NS-2 setup.
DEFAULT_MSS = 1460

#: Wire size of a pure ACK. The paper quotes "typically 150 bytes" for
#: ACKs observed on its clusters (headers + options + link overheads); we
#: keep that figure so byte-mode thresholds see the same proportions.
PURE_ACK_BYTES = 150


class Packet:
    """A simulated TCP/IP packet.

    Parameters
    ----------
    src, sport, dst, dport:
        Flow addressing (host ids and TCP ports).
    seq:
        First sequence number carried (bytes-based sequence space).
    ack:
        Cumulative acknowledgement number (valid when ``FLAG_ACK`` set).
    payload:
        TCP payload bytes carried (0 for pure ACK / SYN / FIN).
    flags:
        TCP flag bits (``FLAG_*`` constants).
    ecn:
        IP ECN codepoint (``ECN_*`` constants). Data segments of an
        ECN-negotiated connection are sent ECT(0); pure ACKs, SYN and
        SYN-ACK are Non-ECT per RFC 3168 — the root of the paper's problem.
    size:
        Total wire size in bytes. Defaults to ``payload + 40`` for data
        packets and :data:`PURE_ACK_BYTES` for zero-payload packets.
    created_at:
        Send timestamp (for end-to-end latency).
    pkt_id:
        Explicit packet id. Hot-path constructors pass
        ``next(sim.pkt_ids)`` (per-run, trace-deterministic); when omitted
        the id comes from a process-wide fallback counter.

    Classification attributes (``is_ect``, ``is_ce``, ``has_ece``,
    ``has_cwr``, ``is_syn``, ``is_pure_ack``) are plain bools computed at
    construction — see the module docstring for why they are not
    properties; ``is_fin`` and ``is_data`` are properties.
    """

    __slots__ = (
        "src",
        "sport",
        "dst",
        "dport",
        "seq",
        "ack",
        "payload",
        "flags",
        "ecn",
        "size",
        "created_at",
        "enqueued_at",
        "pkt_id",
        "hops",
        "marked_bytes",
        # -- classification, computed once at construction ------------------
        "is_ect",
        "is_ce",
        "has_ece",
        "has_cwr",
        "is_syn",
        "is_pure_ack",
    )

    #: Fallback id source for packets built without an explicit ``pkt_id``
    #: (tests, examples). Simulation runs use the per-run ``sim.pkt_ids``
    #: counter instead, so traces do not depend on process history.
    _fallback_ids = count()

    def __init__(
        self,
        src: int,
        sport: int,
        dst: int,
        dport: int,
        seq: int = 0,
        ack: int = 0,
        payload: int = 0,
        flags: int = 0,
        ecn: int = ECN_NOT_ECT,
        size: Optional[int] = None,
        created_at: float = 0.0,
        pkt_id: Optional[int] = None,
        marked_bytes: int = 0,
    ):
        self.src = src
        self.sport = sport
        self.dst = dst
        self.dport = dport
        self.seq = seq
        self.ack = ack
        self.payload = payload
        self.flags = flags
        self.ecn = ecn
        if size is None:
            size = payload + IP_TCP_HEADER_BYTES if payload > 0 else PURE_ACK_BYTES
        self.size = size
        self.created_at = created_at
        self.enqueued_at = 0.0
        self.hops = 0
        # Receiver-to-sender byte-precise CE echo (DCTCP precise
        # accounting): how many newly-acked payload bytes arrived CE.
        self.marked_bytes = marked_bytes
        self.pkt_id = next(Packet._fallback_ids) if pkt_id is None else pkt_id
        # Classification (read many times per hop by AQMs and stats;
        # computed once here, the flag bits by one table lookup).
        self.is_ect = ecn != ECN_NOT_ECT
        self.is_ce = ecn == ECN_CE
        self.has_ece, self.has_cwr, self.is_syn, ack_only = FLAG_CLASS[flags]
        # The packets the paper finds being disproportionately dropped:
        # they cannot be ECT-capable, so ECN-enabled AQMs early-drop them
        # while merely marking the data packets around them.
        self.is_pure_ack = ack_only and payload == 0

    @property
    def is_fin(self) -> bool:
        """FIN flag set."""
        return self.flags & FLAG_FIN != 0

    @property
    def is_data(self) -> bool:
        """Carries TCP payload."""
        return self.payload > 0

    @property
    def flow(self) -> FlowKey:
        """Directed flow key of this packet."""
        return FlowKey(self.src, self.sport, self.dst, self.dport)

    def mark_ce(self) -> None:
        """Set the CE codepoint (AQM 'mark' action). Only valid on ECT packets."""
        self.ecn = ECN_CE
        self.is_ce = True
        self.is_ect = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.pkt_id} {self.flow} seq={self.seq} ack={self.ack} "
            f"len={self.payload} [{flag_names(self.flags)}] {ECN_NAMES[self.ecn]}>"
        )

