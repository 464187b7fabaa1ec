"""Protocol-level TCP tests: the sender driven by hand-crafted packets.

A stub host captures every packet the sender emits and lets the test
inject arbitrary replies, giving precise control over ACK sequences —
the only way to pin down corner cases like the once-per-window ECE gate
or NewReno partial ACKs.
"""

import pytest

from repro.net.packet import (
    ECN_ECT0,
    ECN_NOT_ECT,
    FLAG_ACK,
    FLAG_CWR,
    FLAG_ECE,
    FLAG_SYN,
    Packet,
)
from repro.sim import Simulator
from repro.tcp import RttEstimator, TcpConfig, TcpSender, TcpVariant

MSS = 1460


class StubHost:
    """Captures outbound packets; lets tests deliver inbound ones."""

    def __init__(self, node_id=0):
        self.node_id = node_id
        self.name = f"stub{node_id}"
        self.sent = []
        self._receivers = {}
        self._next_port = 40000

    def send(self, pkt):
        self.sent.append(pkt)

    def bind(self, port, receiver):
        self._receivers[port] = receiver

    def unbind(self, port):
        self._receivers.pop(port, None)

    def allocate_port(self):
        self._next_port += 1
        return self._next_port

    def deliver(self, pkt):
        self._receivers[pkt.dport](pkt)

    # -- helpers -------------------------------------------------------------

    def data_packets(self):
        return [p for p in self.sent if p.payload > 0]

    def last(self):
        return self.sent[-1]


def make_sender(sim, variant=TcpVariant.ECN, nbytes=100 * MSS, **cfg_kw):
    cfg = TcpConfig(variant=variant, **cfg_kw)
    host = StubHost()
    sender = TcpSender(sim, host, dst=1, dport=5000, nbytes=nbytes, config=cfg,
                       on_fail=lambda s: None)
    return host, sender


def synack(sender, ece=True):
    flags = FLAG_SYN | FLAG_ACK | (FLAG_ECE if ece else 0)
    return Packet(src=1, sport=5000, dst=0, dport=sender.sport,
                  flags=flags, ecn=ECN_NOT_ECT)


def ack(sender, ack_no, ece=False, marked_bytes=0):
    flags = FLAG_ACK | (FLAG_ECE if ece else 0)
    return Packet(src=1, sport=5000, dst=0, dport=sender.sport,
                  ack=ack_no, flags=flags, ecn=ECN_NOT_ECT,
                  marked_bytes=marked_bytes)


def establish(sim, host, sender, ece=True):
    sender.start()
    host.deliver(synack(sender, ece=ece))
    return host.data_packets()


class TestHandshake:
    def test_syn_first(self):
        sim = Simulator()
        host, sender = make_sender(sim)
        sender.start()
        assert len(host.sent) == 1
        syn = host.sent[0]
        assert syn.is_syn and syn.has_ece and syn.has_cwr
        assert syn.ecn == ECN_NOT_ECT

    def test_initial_window_sent_after_synack(self):
        sim = Simulator()
        host, sender = make_sender(sim, init_cwnd_segments=10)
        data = establish(sim, host, sender)
        assert len(data) == 10
        assert [p.seq for p in data] == [i * MSS for i in range(10)]

    def test_ecn_negotiation_success(self):
        sim = Simulator()
        host, sender = make_sender(sim)
        data = establish(sim, host, sender, ece=True)
        assert all(p.ecn == ECN_ECT0 for p in data)

    def test_ecn_negotiation_refused(self):
        """Peer SYN-ACK without ECE: fall back to Non-ECT data."""
        sim = Simulator()
        host, sender = make_sender(sim)
        data = establish(sim, host, sender, ece=False)
        assert all(p.ecn == ECN_NOT_ECT for p in data)

    def test_reno_never_requests_ecn(self):
        sim = Simulator()
        host, sender = make_sender(sim, variant=TcpVariant.RENO)
        sender.start()
        assert not host.sent[0].has_ece

    def test_syn_retransmitted_on_timeout(self):
        sim = Simulator()
        host, sender = make_sender(sim, init_rto=0.05)
        sender.start()
        sim.run(until=0.26)
        # initial + retries at ~0.05, 0.15 (backoff x2), ... at least 2 more
        syns = [p for p in host.sent if p.is_syn]
        assert len(syns) >= 3
        assert sender.stats.syn_retries >= 2


class TestSlidingWindow:
    def test_ack_advances_and_sends_more(self):
        sim = Simulator()
        host, sender = make_sender(sim, init_cwnd_segments=4)
        establish(sim, host, sender)
        assert len(host.data_packets()) == 4
        host.deliver(ack(sender, 2 * MSS))
        # slow start: +2 segments for 2 acked -> window 6, 2 acked => 6 in flight
        assert sender.snd_una == 2 * MSS
        assert len(host.data_packets()) == 8

    def test_flight_never_exceeds_cwnd(self):
        sim = Simulator()
        host, sender = make_sender(sim, init_cwnd_segments=5)
        establish(sim, host, sender)
        assert sender.flight_bytes <= sender.cc.cwnd

    def test_rwnd_caps_flight(self):
        sim = Simulator()
        host, sender = make_sender(sim, init_cwnd_segments=50,
                                   rwnd_bytes=4 * MSS)
        establish(sim, host, sender)
        assert len(host.data_packets()) == 4

    def test_completion_callback(self):
        sim = Simulator()
        done = []
        cfg = TcpConfig(variant=TcpVariant.RENO)
        host = StubHost()
        sender = TcpSender(sim, host, 1, 5000, 3 * MSS, cfg,
                           on_complete=lambda s: done.append(s))
        sender.start()
        host.deliver(synack(sender, ece=False))
        host.deliver(ack(sender, 3 * MSS))
        assert done == [sender]
        assert sender.done
        assert sender.fct is not None and sender.fct >= 0

    def test_final_segment_may_be_short(self):
        sim = Simulator()
        host, sender = make_sender(sim, nbytes=MSS + 100)
        establish(sim, host, sender)
        sizes = [p.payload for p in host.data_packets()]
        assert sizes == [MSS, 100]


class TestFastRetransmit:
    def setup_established(self, sim, **kw):
        host, sender = make_sender(sim, variant=TcpVariant.RENO, **kw)
        establish(sim, host, sender, ece=False)
        return host, sender

    def test_three_dup_acks_trigger_retransmit(self):
        sim = Simulator()
        host, sender = self.setup_established(sim, init_cwnd_segments=10)
        n_before = len(host.data_packets())
        for _ in range(2):
            host.deliver(ack(sender, 0))
        assert sender.stats.fast_retransmits == 0
        host.deliver(ack(sender, 0))  # third dup
        assert sender.stats.fast_retransmits == 1
        retx = host.data_packets()[n_before]
        assert retx.seq == 0  # the hole

    def test_window_halved_on_fast_retransmit(self):
        sim = Simulator()
        host, sender = self.setup_established(sim, init_cwnd_segments=10)
        flight = sender.flight_bytes
        for _ in range(3):
            host.deliver(ack(sender, 0))
        assert sender.cc.ssthresh == pytest.approx(flight / 2)

    def test_full_ack_exits_recovery(self):
        sim = Simulator()
        host, sender = self.setup_established(sim, init_cwnd_segments=10)
        recover_point = sender.snd_nxt
        for _ in range(3):
            host.deliver(ack(sender, 0))
        assert sender.in_recovery
        host.deliver(ack(sender, recover_point))
        assert not sender.in_recovery
        assert sender.cc.cwnd == pytest.approx(sender.cc.ssthresh)

    def test_partial_ack_retransmits_next_hole(self):
        sim = Simulator()
        host, sender = self.setup_established(sim, init_cwnd_segments=10)
        for _ in range(3):
            host.deliver(ack(sender, 0))
        n = len(host.data_packets())
        host.deliver(ack(sender, 2 * MSS))  # partial: below recover point
        assert sender.in_recovery
        retx = host.data_packets()[n]
        assert retx.seq == 2 * MSS


class TestRto:
    def test_rto_collapses_window_and_resends_from_una(self):
        sim = Simulator()
        host, sender = make_sender(sim, variant=TcpVariant.RENO,
                                   init_cwnd_segments=10, init_rto=0.05,
                                   min_rto=0.05)
        establish(sim, host, sender, ece=False)
        n = len(host.data_packets())
        sim.run(until=1.0)  # no ACKs ever arrive -> repeated RTOs
        assert sender.stats.rtos >= 1
        assert sender.cc.cwnd == pytest.approx(MSS)
        assert host.data_packets()[n].seq == 0

    def test_backoff_doubles_retransmission_spacing(self):
        sim = Simulator()
        host, sender = make_sender(sim, variant=TcpVariant.RENO,
                                   init_cwnd_segments=1, init_rto=0.05,
                                   min_rto=0.05, max_rto=10.0)
        establish(sim, host, sender, ece=False)
        sim.run(until=1.0)
        times = [sender.start_time]  # not used; compute gaps of retransmits
        datas = host.data_packets()
        # Packets after the first are all retransmits of seq 0.
        assert all(p.seq == 0 for p in datas)
        assert sender.stats.rtos >= 3

    def test_max_retries_fails_flow(self):
        sim = Simulator()
        failed = []
        cfg = TcpConfig(variant=TcpVariant.RENO, max_retries=2, init_rto=0.02)
        host = StubHost()
        sender = TcpSender(sim, host, 1, 5000, MSS, cfg,
                           on_fail=lambda s: failed.append(s))
        sender.start()
        host.deliver(synack(sender, ece=False))
        sim.run(until=10.0)
        assert failed == [sender]
        assert sender.state == "failed"


class TestClassicEcnReaction:
    def test_ece_cuts_once_per_window(self):
        sim = Simulator()
        host, sender = make_sender(sim, variant=TcpVariant.ECN,
                                   init_cwnd_segments=10)
        establish(sim, host, sender)
        cuts_before = sender.stats.cwnd_cuts
        host.deliver(ack(sender, 1 * MSS, ece=True))
        assert sender.stats.cwnd_cuts == cuts_before + 1
        gate = sender.snd_nxt
        # More ECE acks within the same window: no further cuts.
        host.deliver(ack(sender, 2 * MSS, ece=True))
        host.deliver(ack(sender, 3 * MSS, ece=True))
        assert sender.stats.cwnd_cuts == cuts_before + 1
        # Once the gate sequence is passed, a new ECE cuts again.
        host.deliver(ack(sender, gate, ece=True))
        assert sender.stats.cwnd_cuts == cuts_before + 2

    def test_cwr_set_on_next_data_after_cut(self):
        sim = Simulator()
        host, sender = make_sender(sim, variant=TcpVariant.ECN,
                                   init_cwnd_segments=4)
        establish(sim, host, sender)
        host.deliver(ack(sender, 2 * MSS, ece=True))
        # The cut shrank the window below the in-flight bytes, so nothing
        # was transmitted yet; the CWR flag is pending on the next data.
        host.deliver(ack(sender, 4 * MSS))
        newly_sent = [p for p in host.data_packets() if p.seq >= 4 * MSS]
        assert newly_sent, "window should reopen after the acked bytes"
        assert newly_sent[0].has_cwr
        if len(newly_sent) > 1:
            assert not newly_sent[1].has_cwr

    def test_reno_ignores_ece(self):
        sim = Simulator()
        host, sender = make_sender(sim, variant=TcpVariant.RENO)
        establish(sim, host, sender, ece=False)
        cwnd = sender.cc.cwnd
        host.deliver(ack(sender, MSS, ece=True))
        assert sender.cc.cwnd >= cwnd  # grew, no cut


class TestDctcpReaction:
    def test_marked_window_cuts_proportionally(self):
        sim = Simulator()
        host, sender = make_sender(sim, variant=TcpVariant.DCTCP,
                                   init_cwnd_segments=10, dctcp_g=1.0)
        establish(sim, host, sender)
        window_end = sender.snd_nxt
        # ACK the full first window, everything marked.
        cwnd_before = sender.cc.cwnd
        una = 0
        while una < window_end:
            una += MSS
            host.deliver(ack(sender, una, ece=True, marked_bytes=MSS))
        # With g=1 alpha jumped to 1: cut to half at the window boundary.
        assert sender.cc.alpha == pytest.approx(1.0)
        assert sender.stats.cwnd_cuts >= 1

    def test_unmarked_window_never_cuts(self):
        sim = Simulator()
        host, sender = make_sender(sim, variant=TcpVariant.DCTCP,
                                   init_cwnd_segments=10)
        establish(sim, host, sender)
        for i in range(1, 30):
            host.deliver(ack(sender, i * MSS))
        assert sender.stats.cwnd_cuts == 0


class _AuditedSender(TcpSender):
    """Checks every advancing ACK against the full-scan purge.

    ``_tx_time`` is purged from the front of the dict, stopping at the
    first key past the ACK; this is only right while keys stay in
    ascending insertion order. The audit recomputes what deleting *every*
    key ``<= ack`` (a full scan) leaves behind and which RTT sample it
    takes, and compares contents, order and samples.
    """

    def __init__(self, *args, **kwargs):
        self.audits = 0
        self.expected_samples = []
        self.new_data_on_dup_ack = 0
        self._karn_pops = []
        super().__init__(*args, **kwargs)

    def _send_segment(self, seq, retransmit):
        if retransmit:
            self._karn_pops.append(seq + min(self._mss, self.nbytes - seq))
        elif self.dup_acks in (1, 2) and not self.in_recovery:
            self.new_data_on_dup_ack += 1
        return super()._send_segment(seq, retransmit)

    def _on_ack_advance(self, ack, ece, marked_bytes=0):
        before = dict(self._tx_time)
        self._karn_pops.clear()
        super()._on_ack_advance(ack, ece, marked_bytes)
        if ack in before:
            self.expected_samples.append(self.sim.now - before[ack])
        expected = {end: t for end, t in before.items() if end > ack}
        for end in self._karn_pops:  # a partial ACK's hole retransmit
            expected.pop(end, None)
        assert list(self._tx_time.items()) == list(expected.items())
        self.audits += 1


class TestTxTimePurge:
    def test_front_purge_matches_full_scan(self):
        sim = Simulator()
        cfg = TcpConfig(variant=TcpVariant.ECN, limited_transmit=True,
                        rwnd_bytes=4000 * MSS)
        host = StubHost()
        sender = _AuditedSender(sim, host, dst=1, dport=5000,
                                nbytes=20000 * MSS, config=cfg,
                                on_fail=lambda s: None)
        samples = []

        class RecordingRtt(RttEstimator):
            def sample(self, rtt):
                samples.append(rtt)
                super().sample(rtt)

        sender.rtt = RecordingRtt(cfg.init_rto, cfg.min_rto, cfg.max_rto)

        script_time = 100e-6

        def at_next(fn, gap=1e-6):
            nonlocal script_time
            script_time += gap
            sim.schedule_at(script_time, fn)

        def deliver_ack(segments=0, offset=0):
            """ACK ``segments`` whole segments past snd_una (+ ``offset``)."""
            def fire():
                host.deliver(ack(sender, sender.snd_una + segments * MSS + offset))
            return fire

        def open_window():
            sender.cc.cwnd = 700.0 * MSS
            sender._try_send()
            assert len(sender._tx_time) == 700

        sender.start()
        sim.schedule_at(100e-6, lambda: host.deliver(synack(sender)))
        at_next(open_window)
        for _ in range(150):                 # delayed-ACK cadence, 2 segments
            at_next(deliver_ack(2))
        at_next(deliver_ack(50))             # stretch ACK: 50 keys in one go
        at_next(deliver_ack(3, offset=-100))  # mid-segment: purge, no sample
        at_next(deliver_ack(1, offset=100))   # ...and back onto a boundary
        for _ in range(2):                   # limited transmit: new data
            at_next(deliver_ack(0))
        at_next(deliver_ack(0))              # third dup: fast retransmit
        for _ in range(5):
            at_next(deliver_ack(0))          # window inflation
        for _ in range(6):
            at_next(deliver_ack(4))          # partial ACKs: hole retransmits
        at_next(lambda: host.deliver(ack(sender, sender._recover)))  # full ACK
        for _ in range(20):
            at_next(deliver_ack(2))
        sim.run(until=script_time + 1e-6)
        assert sender.stats.rtos == 0
        assert sender.stats.fast_retransmits == 1
        assert sender.new_data_on_dup_ack == 2
        assert not sender.in_recovery

        # Silence until the RTO rolls snd_nxt back to snd_una (+1 segment).
        flight_before = sender.flight_bytes
        sim.run(until=sim.now + 2 * sender.rtt.rto)
        assert sender.stats.rtos >= 1
        assert sender._tx_time == {}
        assert sender.flight_bytes < flight_before
        script_time = sim.now
        # ACKs for the pre-collapse flight overtake the rolled-back send
        # point, then go-back-N resends sit below the Karn horizon (no
        # samples) until new data passes it.
        at_next(deliver_ack(10))
        for _ in range(400):
            at_next(deliver_ack(2))
        sim.run(until=script_time + 1e-6)
        assert sender.snd_una > sender._no_sample_below
        assert sender._tx_time  # sampling resumed past the horizon

        assert samples[0] == pytest.approx(100e-6)  # the SYN's own sample
        assert samples[1:] == sender.expected_samples
        assert len(sender.expected_samples) > 200
        assert sender.audits > 550
