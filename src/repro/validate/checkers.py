"""Invariant checkers fed by the Tracer bus.

The paper's argument is an *accounting* argument — which ACK/SYN packets an
AQM drops versus marks — so a single conservation or stale-state bug
silently corrupts every figure. This module provides an always-available,
off-by-default validation layer: each :class:`Checker` subscribes to the
existing trace bus (and host delivery hooks), accumulates
:class:`InvariantViolation` records, and performs a final ground-truth
sweep at :meth:`Checker.finish`.

Checkers **only observe**: they never schedule events, never draw from any
RNG stream and never mutate packets or queues. Arming a
:class:`ValidationSuite` therefore cannot perturb a run — armed and
unarmed runs are bit-identical (a property the test-suite asserts).

The four checkers:

* :class:`ConservationChecker` — a packet ledger: every packet that enters
  the fabric is delivered, dropped, or physically in flight exactly once
  at sim end. Each sighting also re-derives the packet's classification
  attributes from its raw header fields, which catches a cached
  attribute that a header mutation (``mark_ce``) failed to refresh.
* :class:`QueueAccountingChecker` — per-queue counter equations
  (occupancy = arrivals − drops − departures, protected ≤ arrivals,
  marks ≤ ECT arrivals, byte totals) checked on every queue event and
  once exhaustively at the end.
* :class:`TcpChecker` — sequence-space invariants per flow over the
  ``tcp.cwnd`` stream: the cumulative ACK point never regresses,
  ``flight == snd_nxt − snd_una``, Karn's suppression window is
  monotone, RTO stays within configured bounds.
* :class:`EngineChecker` — samples
  :meth:`~repro.sim.engine.Simulator.check_invariants` between events
  (heap property, truthful cancelled-entry counts, no events in the
  past) and verifies trace timestamps agree with the simulation clock.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import ValidationError
from repro.net.packet import (
    ECN_CE,
    ECN_NOT_ECT,
    FLAG_ACK,
    FLAG_CWR,
    FLAG_ECE,
    FLAG_FIN,
    FLAG_SYN,
    Packet,
)

__all__ = [
    "InvariantViolation",
    "Checker",
    "ConservationChecker",
    "QueueAccountingChecker",
    "TcpChecker",
    "EngineChecker",
    "ValidationSuite",
    "CHECKER_NAMES",
    "checkers_from_names",
    "build_suite",
]


class InvariantViolation(NamedTuple):
    """One invariant breach observed during a run."""

    time: float      #: simulation time of the observation
    checker: str     #: which checker flagged it
    where: str       #: component name (queue/port/flow) or ``"-"``
    message: str     #: human-readable description

    def __str__(self) -> str:
        return f"t={self.time:.6f} [{self.checker}] {self.where}: {self.message}"


def _iter_ports(network) -> Iterable:
    """Every egress port in the network: switch ports plus host uplinks."""
    for sw in network.switches:
        yield from sw.ports
    for host in network.hosts:
        if host.uplink is not None:
            yield host.uplink


class Checker:
    """Base class: violation list with a bounded memory footprint.

    Pathological runs can breach an invariant once per packet; retaining
    every instance would turn a diagnostic layer into a memory leak, so
    each checker keeps at most :attr:`max_violations` records and counts
    the overflow in :attr:`suppressed`.
    """

    name = "checker"
    max_violations = 200

    def __init__(self) -> None:
        self.violations: List[InvariantViolation] = []
        self.suppressed = 0

    def _flag(self, time: float, where: str, message: str) -> None:
        if len(self.violations) < self.max_violations:
            self.violations.append(
                InvariantViolation(time, self.name, where, message))
        else:
            self.suppressed += 1

    # -- lifecycle ----------------------------------------------------------

    def attach(self, sim, network, tracer) -> None:
        """Subscribe to the trace bus. Must run before the first event."""
        raise NotImplementedError

    def finish(self, now: float) -> None:
        """End-of-run ground-truth sweep (default: nothing)."""

    def stats(self) -> Dict[str, int]:
        """Checker-specific summary counters for the run manifest."""
        return {}


# -- packet conservation ------------------------------------------------------

# Ledger states. A packet id is absent until first sighted on the bus.
_QUEUED = "queued"        # sitting in some qdisc (or being serialized)
_INFLIGHT = "inflight"    # transmitted, propagating on a wire
_DELIVERED = "delivered"  # handed to a destination host (terminal)
_DROPPED = "dropped"      # rejected/early-dropped by a queue (terminal)
_LOST = "lost"            # lost to a link failure mid-flight (terminal)

_TERMINAL = (_DELIVERED, _DROPPED, _LOST)


def _classification_errors(pkt: Packet) -> List[str]:
    """Re-derive the cached classification attrs from the raw header.

    The cached attributes are computed once at construction; a header
    mutation (``Packet.mark_ce``) that missed refreshing one will
    disagree with its own header here.
    """
    flags = pkt.flags
    ecn = pkt.ecn
    payload = pkt.payload
    expected = (
        ("is_ect", ecn != ECN_NOT_ECT),
        ("is_ce", ecn == ECN_CE),
        ("has_ece", flags & FLAG_ECE != 0),
        ("has_cwr", flags & FLAG_CWR != 0),
        ("is_syn", flags & FLAG_SYN != 0),
        ("is_fin", flags & FLAG_FIN != 0),
        ("is_data", payload > 0),
        ("is_pure_ack",
         flags & FLAG_ACK != 0 and payload == 0
         and flags & (FLAG_SYN | FLAG_FIN) == 0),
    )
    errs = []
    for attr, want in expected:
        if getattr(pkt, attr) != want:
            errs.append(
                f"stale classification: {attr}={getattr(pkt, attr)} but header "
                f"(flags={flags:#04x} ecn={ecn} payload={payload}) implies {want}"
            )
    return errs


class ConservationChecker(Checker):
    """Packet-conservation ledger over the trace bus.

    Tracks every packet id through a small state machine driven by
    ``enqueue``/``drop``/``tx``/``link_loss`` events and host delivery
    hooks, then sweeps the physical network at the end of the run: every
    packet must be delivered, dropped, lost, or still physically present
    (in a queue, a serializer slot, or on a wire) **exactly once**.
    Catches double delivery, use-after-drop, vanished packets, and — via
    the per-sighting classification recompute — cached classification
    attributes that have drifted from the header.
    """

    name = "conservation"

    def __init__(self) -> None:
        super().__init__()
        self._state: Dict[int, str] = {}
        self._loc: Dict[int, str] = {}
        self.created = 0
        self.delivered = 0
        self.dropped = 0
        self.lost = 0
        self._network = None

    def attach(self, sim, network, tracer) -> None:
        self._network = network
        tracer.subscribe("enqueue", self._on_enqueue)
        tracer.subscribe("drop", self._on_drop)
        tracer.subscribe("tx", self._on_tx)
        tracer.subscribe("link_loss", self._on_link_loss)
        tracer.subscribe("mark", self._on_mark)
        for host in network.hosts:
            host.add_delivery_hook(self._make_delivery_hook(host.name))

    # -- transitions --------------------------------------------------------

    def _sight(self, pkt: Packet, time: float, where: str) -> None:
        errs = _classification_errors(pkt)
        for e in errs:
            self._flag(time, where, f"pkt #{pkt.pkt_id}: {e}")

    def _on_enqueue(self, rec) -> None:
        pkt = rec.data
        pid = pkt.pkt_id
        self._sight(pkt, rec.time, rec.where)
        st = self._state.get(pid)
        if st is None:
            self.created += 1
        elif st == _QUEUED:
            self._flag(rec.time, rec.where,
                       f"pkt #{pid} enqueued while already queued at "
                       f"{self._loc.get(pid)} (duplicate presence)")
        elif st in _TERMINAL:
            self._flag(rec.time, rec.where,
                       f"pkt #{pid} enqueued after terminal state {st!r} "
                       f"at {self._loc.get(pid)}")
        self._state[pid] = _QUEUED
        self._loc[pid] = rec.where

    def _on_drop(self, rec) -> None:
        pkt = rec.data
        pid = pkt.pkt_id
        self._sight(pkt, rec.time, rec.where)
        st = self._state.get(pid)
        if st is None:
            # First sighting: rejected at its very first queue.
            self.created += 1
        elif st in _TERMINAL:
            self._flag(rec.time, rec.where,
                       f"pkt #{pid} dropped after terminal state {st!r} "
                       f"at {self._loc.get(pid)}")
        # _QUEUED is legal here: CoDel drops queued packets at dequeue
        # time; _INFLIGHT is legal: rejected at the next hop's queue.
        self._state[pid] = _DROPPED
        self._loc[pid] = rec.where
        self.dropped += 1

    def _on_tx(self, rec) -> None:
        pkt = rec.data
        pid = pkt.pkt_id
        st = self._state.get(pid)
        if st != _QUEUED:
            self._flag(rec.time, rec.where,
                       f"pkt #{pid} transmitted from state {st!r} "
                       f"(expected a queued packet)")
        self._state[pid] = _INFLIGHT
        self._loc[pid] = rec.where

    def _on_link_loss(self, rec) -> None:
        pkt = rec.data
        pid = pkt.pkt_id
        st = self._state.get(pid)
        if st != _QUEUED:
            self._flag(rec.time, rec.where,
                       f"pkt #{pid} lost on a failed link from state {st!r}")
        self._state[pid] = _LOST
        self._loc[pid] = rec.where
        self.lost += 1

    def _on_mark(self, rec) -> None:
        pkt = rec.data
        if not (pkt.is_ce and pkt.is_ect):
            self._flag(rec.time, rec.where,
                       f"pkt #{pkt.pkt_id} CE-marked but carries "
                       f"ecn={pkt.ecn} (is_ce={pkt.is_ce}, is_ect={pkt.is_ect})")

    def _make_delivery_hook(self, host_name: str):
        def hook(pkt: Packet, now: float) -> None:
            pid = pkt.pkt_id
            st = self._state.get(pid)
            if st == _DELIVERED:
                self._flag(now, host_name, f"pkt #{pid} delivered twice")
            elif st != _INFLIGHT:
                self._flag(now, host_name,
                           f"pkt #{pid} delivered from state {st!r} "
                           f"(expected in-flight)")
            self._state[pid] = _DELIVERED
            self._loc[pid] = host_name
            self.delivered += 1
        return hook

    # -- end-of-run sweep ---------------------------------------------------

    def finish(self, now: float) -> None:
        network = self._network
        if network is None:
            return
        # Where every non-terminal packet must physically be.
        physical: Dict[int, Tuple[str, str]] = {}  # pid -> (state, place)
        for port in _iter_ports(network):
            for pkt, state, place in self._physical_packets(port):
                pid = pkt.pkt_id
                prev = physical.get(pid)
                if prev is not None:
                    self._flag(now, port.name,
                               f"pkt #{pid} physically present twice: "
                               f"{prev[1]} and {place} (aliased instance?)")
                physical[pid] = (state, place)

        for pid, (state, place) in physical.items():
            ledger = self._state.get(pid)
            if ledger is None:
                self._flag(now, place,
                           f"pkt #{pid} physically present but never "
                           f"sighted on the trace bus")
            elif ledger != state:
                self._flag(now, place,
                           f"pkt #{pid} ledger says {ledger!r} but it is "
                           f"physically {state} at {place}")

        in_flight = 0
        for pid, st in self._state.items():
            if st in _TERMINAL:
                continue
            in_flight += 1
            if pid not in physical:
                self._flag(now, self._loc.get(pid, "-"),
                           f"pkt #{pid} vanished: ledger state {st!r} but "
                           f"not found in any queue, serializer or wire")

        total = self.delivered + self.dropped + self.lost + in_flight
        if total != self.created:
            self._flag(now, "-",
                       f"conservation broken: created={self.created} but "
                       f"delivered={self.delivered} + dropped={self.dropped} "
                       f"+ lost={self.lost} + in_flight={in_flight} = {total}")

    @staticmethod
    def _physical_packets(port):
        for pkt in port.qdisc.packets():
            yield pkt, _QUEUED, f"queue {port.name}"
        pending = port._pending_tx
        if pending is not None:
            # Being serialized: the ledger still counts it as queued
            # (no event separates dequeue from tx-complete).
            yield pending, _QUEUED, f"serializer {port.name}"
        for pkt in port._wire:
            yield pkt, _INFLIGHT, f"wire {port.name}"

    def stats(self) -> Dict[str, int]:
        in_flight = sum(1 for s in self._state.values() if s not in _TERMINAL)
        return {
            "created": self.created,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "lost": self.lost,
            "in_flight_at_end": in_flight,
        }


# -- queue accounting ---------------------------------------------------------

class QueueAccountingChecker(Checker):
    """Counter-equation checks on every queue of the network.

    Per queue event (cheap, O(1)): instantaneous occupancy must equal
    ``arrivals − drops_tail − drops_early − departures``, stay within the
    physical limit, and the per-class counters must be mutually
    consistent (``protected ≤ arrivals``, ``marks ≤ ect_arrivals``, class
    drops ≤ class arrivals). RED's ``avg`` must stay finite and
    non-negative. At :meth:`finish`, an exhaustive sweep additionally
    re-sums queued bytes against ``qlen_bytes`` for every queue (the byte
    check: ``qlen_bytes`` is counted when read from the arrival,
    departure and dropped-byte counters), checks the dropped-byte counter
    against the sizes of the queue's ``drop`` records, and audits what
    :meth:`~repro.core.qdisc.QueueDisc.mean_queue_packets` rests on: no
    queued packet was enqueued in the future, and the mean itself lies in
    ``[0, limit_packets]``.
    """

    name = "queues"

    def __init__(self) -> None:
        super().__init__()
        self._queues: Dict[str, object] = {}
        #: Bytes of the ``drop`` records each queue emitted.
        self._drop_bytes: Dict[str, int] = {}
        self.events_checked = 0

    def attach(self, sim, network, tracer) -> None:
        for port in _iter_ports(network):
            self._queues[port.name] = port.qdisc
            self._drop_bytes[port.name] = 0
        tracer.subscribe("enqueue", self._on_event)
        tracer.subscribe("drop", self._on_drop)
        tracer.subscribe("mark", self._on_event)

    def _on_drop(self, rec) -> None:
        if rec.where in self._drop_bytes:
            self._drop_bytes[rec.where] += rec.data.size
        self._on_event(rec)

    def _on_event(self, rec) -> None:
        q = self._queues.get(rec.where)
        if q is None:
            self._flag(rec.time, rec.where,
                       f"{rec.kind} event from a queue not present in the "
                       f"network port map")
            return
        self.events_checked += 1
        # "mark" is emitted from inside the admit decision: RED and the
        # simple marker trace it mid-enqueue, after the arrival counters
        # but before the append, so at that instant the occupancy may
        # legitimately trail the counter equation by the one packet being
        # admitted. (CoDel marks at dequeue with settled counters, so the
        # slack must be a tolerance, not a fixed offset.)
        self._check_counters(q, rec.time,
                             slack=1 if rec.kind == "mark" else 0)

    def _check_counters(self, q, now: float, slack: int = 0) -> None:
        st = q.stats
        qlen = q.qlen_packets
        expected = st.arrivals - st.drops_tail - st.drops_early - st.departures
        if not (expected - slack <= qlen <= expected):
            self._flag(now, q.name,
                       f"occupancy {qlen} != arrivals {st.arrivals} - drops "
                       f"{st.drops_tail}+{st.drops_early} - departures "
                       f"{st.departures} (= {expected})")
        if qlen > q.limit_packets:
            self._flag(now, q.name,
                       f"occupancy {qlen} exceeds physical limit "
                       f"{q.limit_packets}")
        if q.qlen_bytes < 0:
            self._flag(now, q.name, f"negative byte count {q.qlen_bytes}")
        if st.protected > st.arrivals:
            self._flag(now, q.name,
                       f"protected {st.protected} > arrivals {st.arrivals}")
        if st.marks > st.ect_arrivals:
            self._flag(now, q.name,
                       f"marks {st.marks} > ECT arrivals {st.ect_arrivals}")
        if st.ect_drops > st.ect_arrivals:
            self._flag(now, q.name,
                       f"ECT drops {st.ect_drops} > ECT arrivals "
                       f"{st.ect_arrivals}")
        if st.ack_drops > st.ack_arrivals:
            self._flag(now, q.name,
                       f"ACK drops {st.ack_drops} > ACK arrivals "
                       f"{st.ack_arrivals}")
        if st.syn_drops > st.syn_arrivals:
            self._flag(now, q.name,
                       f"SYN drops {st.syn_drops} > SYN arrivals "
                       f"{st.syn_arrivals}")
        if st.drops_tail + st.drops_early + st.departures > st.arrivals:
            self._flag(now, q.name,
                       f"drops+departures exceed arrivals "
                       f"({st.drops_tail}+{st.drops_early}+{st.departures} "
                       f"> {st.arrivals})")
        avg = getattr(q, "avg", None)
        if avg is not None and not (math.isfinite(avg) and avg >= 0.0):
            self._flag(now, q.name, f"RED avg is {avg!r}")

    def finish(self, now: float) -> None:
        for where, q in self._queues.items():
            self._check_counters(q, now)
            byte_sum = sum(p.size for p in q.packets())
            if byte_sum != q.qlen_bytes:
                self._flag(now, q.name,
                           f"queued packets sum to {byte_sum} B but "
                           f"qlen_bytes={q.qlen_bytes}")
            traced = self._drop_bytes[where]
            if q._dropped_bytes != traced:
                self._flag(now, q.name,
                           f"dropped bytes {q._dropped_bytes} != {traced} B "
                           f"of drop records")
            # What the derived time-averaged occupancy rests on: no
            # residence time is negative, and the mean is a queue length.
            for pkt in q.packets():
                if pkt.enqueued_at > now + 1e-12:
                    self._flag(now, q.name,
                               f"queued packet {pkt.pkt_id} has enqueued_at="
                               f"{pkt.enqueued_at} which is in the future")
            mean = q.mean_queue_packets(now)
            if not -1e-9 <= mean <= q.limit_packets + 1e-9:
                self._flag(now, q.name,
                           f"time-averaged occupancy {mean!r} outside "
                           f"[0, limit {q.limit_packets}]")

    def stats(self) -> Dict[str, int]:
        return {"queues": len(self._queues),
                "events_checked": self.events_checked}


# -- TCP sequence space -------------------------------------------------------

class TcpChecker(Checker):
    """Per-flow sequence-space invariants over the ``tcp.cwnd`` stream.

    Parameters
    ----------
    min_rto, max_rto:
        Optional RTO bounds from the run's
        :class:`~repro.tcp.endpoint.TcpConfig`; when given, every traced
        RTO must lie within them (Karn backoff saturation included).
    """

    name = "tcp"

    def __init__(self, min_rto: Optional[float] = None,
                 max_rto: Optional[float] = None) -> None:
        super().__init__()
        self.min_rto = min_rto
        self.max_rto = max_rto
        self._flows: Dict[str, Dict[str, float]] = {}
        self.samples = 0

    def attach(self, sim, network, tracer) -> None:
        tracer.subscribe("tcp.cwnd", self._on_cwnd)
        tracer.subscribe("tcp.rto", self._on_rto)

    def _on_cwnd(self, rec) -> None:
        d = rec.data
        una = d.get("snd_una")
        if una is None:
            # An emitter predating the sequence-space extension: nothing
            # to check (and flagging it would fail old pickled traces).
            return
        self.samples += 1
        flow = rec.where
        nxt = d["snd_nxt"]
        nsb = d["no_sample_below"]
        flight = d["flight"]
        nbytes = d.get("nbytes")
        prev = self._flows.get(flow)
        if prev is not None:
            if una < prev["snd_una"]:
                self._flag(rec.time, flow,
                           f"cumulative ACK regressed: snd_una {una} < "
                           f"previous {prev['snd_una']}")
            if nsb < prev["no_sample_below"]:
                self._flag(rec.time, flow,
                           f"Karn suppression window regressed: {nsb} < "
                           f"previous {prev['no_sample_below']}")
        if nxt < una:
            self._flag(rec.time, flow, f"snd_nxt {nxt} < snd_una {una}")
        if flight != nxt - una:
            self._flag(rec.time, flow,
                       f"flight {flight} != snd_nxt {nxt} - snd_una {una}")
        if nbytes is not None and nxt > nbytes:
            self._flag(rec.time, flow,
                       f"snd_nxt {nxt} beyond flow size {nbytes}")
        if d["cwnd"] <= 0:
            self._flag(rec.time, flow, f"non-positive cwnd {d['cwnd']}")
        rto = d["rto"]
        if rto <= 0:
            self._flag(rec.time, flow, f"non-positive RTO {rto}")
        if self.max_rto is not None and rto > self.max_rto + 1e-9:
            self._flag(rec.time, flow,
                       f"RTO {rto} exceeds max_rto {self.max_rto}")
        if self.min_rto is not None and rto < self.min_rto - 1e-9:
            self._flag(rec.time, flow,
                       f"RTO {rto} below min_rto {self.min_rto}")
        self._flows[flow] = {"snd_una": una, "no_sample_below": nsb}

    def _on_rto(self, rec) -> None:
        d = rec.data
        una, nxt = d.get("snd_una"), d.get("snd_nxt")
        if una is not None and nxt is not None and nxt < una:
            self._flag(rec.time, rec.where,
                       f"RTO with snd_nxt {nxt} < snd_una {una}")

    def stats(self) -> Dict[str, int]:
        return {"flows": len(self._flows), "samples": self.samples}


# -- event engine -------------------------------------------------------------

class EngineChecker(Checker):
    """Samples the kernel's self-diagnosis between events.

    Every ``stride``-th enqueue event (and once at the end) this runs
    :meth:`Simulator.check_invariants` — heap property, truthful
    cancelled-entry counts across compactions, no pending events in the
    past — and verifies that trace timestamps agree with ``sim.now``
    (an emitter stamping stale times would corrupt every recorder).
    Piggybacking on trace events rather than scheduling its own sampler
    keeps the event sequence — and thus the run — bit-identical.
    """

    name = "engine"

    def __init__(self, stride: int = 512) -> None:
        super().__init__()
        if stride <= 0:
            raise ValidationError(f"stride must be positive, got {stride}")
        self.stride = stride
        self._sim = None
        self._n = 0
        self._last_time = float("-inf")
        self.audits = 0

    def attach(self, sim, network, tracer) -> None:
        self._sim = sim
        tracer.subscribe("enqueue", self._on_event)

    def _audit(self, now: float) -> None:
        self.audits += 1
        for msg in self._sim.check_invariants():
            self._flag(now, "sim", msg)

    def _on_event(self, rec) -> None:
        sim = self._sim
        if rec.time != sim.now:
            self._flag(rec.time, rec.where,
                       f"trace timestamp {rec.time} != sim clock {sim.now}")
        if rec.time < self._last_time:
            self._flag(rec.time, rec.where,
                       f"trace time went backwards ({rec.time} after "
                       f"{self._last_time})")
        self._last_time = rec.time
        self._n += 1
        if self._n % self.stride == 0:
            self._audit(rec.time)

    def finish(self, now: float) -> None:
        if self._sim is not None:
            self._audit(now)

    def stats(self) -> Dict[str, int]:
        return {"audits": self.audits}


# -- the suite ----------------------------------------------------------------

#: CLI-facing checker registry (``repro check --checkers ...``).
_CHECKERS = {c.name: c for c in (ConservationChecker, QueueAccountingChecker,
                                  TcpChecker, EngineChecker)}
CHECKER_NAMES = tuple(_CHECKERS)


def checkers_from_names(names: Iterable[str]) -> List[Checker]:
    """Build checker instances from registry names.

    Raises :class:`ValidationError` on an unknown name so CLI typos fail
    loudly instead of silently validating nothing.
    """
    out: List[Checker] = []
    for n in names:
        if n not in _CHECKERS:
            raise ValidationError(
                f"unknown checker {n!r}; available: {', '.join(CHECKER_NAMES)}")
        out.append(_CHECKERS[n]())
    return out


def build_suite(config, checker_names: Optional[List[str]] = None,
                ) -> "ValidationSuite":
    """A suite for one cell (default: every checker), with the cell's
    ``tcp_config()`` RTO bounds wired into the TCP checker."""
    checkers = checkers_from_names(checker_names or CHECKER_NAMES)
    tcp_cfg = config.tcp_config()
    for c in checkers:
        if isinstance(c, TcpChecker):
            c.min_rto = tcp_cfg.min_rto
            c.max_rto = tcp_cfg.max_rto
    return ValidationSuite(checkers)


class ValidationSuite:
    """A set of checkers wired to one run.

    Usage::

        suite = ValidationSuite()            # all four checkers
        suite.attach(sim, network, tracer)   # before the first event
        sim.run()
        suite.finish()                       # end-of-run sweeps
        if not suite.ok:
            print(suite.report())

    ``attach`` must happen before any traffic: the conservation ledger
    needs to see every packet's first enqueue.
    """

    def __init__(self, checkers: Optional[Iterable[Checker]] = None):
        self.checkers: List[Checker] = list(
            checkers_from_names(CHECKER_NAMES) if checkers is None
            else checkers)
        self._sim = None
        self._finished = False

    def attach(self, sim, network, tracer) -> "ValidationSuite":
        """Subscribe every checker. Returns self for chaining."""
        if tracer is None:
            raise ValidationError(
                "ValidationSuite needs the run's tracer; build the network "
                "with a Tracer before attaching checkers")
        if self._sim is not None:
            raise ValidationError("ValidationSuite is already attached")
        for c in self.checkers:
            c.attach(sim, network, tracer)
        self._sim = sim
        return self

    def finish(self) -> List[InvariantViolation]:
        """Run every checker's end-of-run sweep; return all violations."""
        if self._sim is None:
            raise ValidationError(
                "ValidationSuite.finish() called before attach()")
        if not self._finished:
            now = self._sim.now
            for c in self.checkers:
                c.finish(now)
            self._finished = True
        return self.violations

    @property
    def violations(self) -> List[InvariantViolation]:
        """All violations accumulated so far, in checker order."""
        return [v for c in self.checkers for v in c.violations]

    @property
    def suppressed(self) -> int:
        """Violations dropped by the per-checker retention cap."""
        return sum(c.suppressed for c in self.checkers)

    @property
    def ok(self) -> bool:
        """True when no checker flagged anything."""
        return not any(c.violations for c in self.checkers)

    def report(self) -> str:
        """Multi-line human-readable summary of all violations."""
        lines = [str(v) for v in self.violations]
        if self.suppressed:
            lines.append(f"... and {self.suppressed} more suppressed")
        return "\n".join(lines) if lines else "all invariants hold"

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary for run manifests."""
        return {
            "ok": self.ok,
            "violation_count": len(self.violations) + self.suppressed,
            "violations": [
                {"time": v.time, "checker": v.checker,
                 "where": v.where, "message": v.message}
                for v in self.violations
            ],
            "checkers": {c.name: c.stats() for c in self.checkers},
        }
