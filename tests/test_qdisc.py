"""Tests for the base QueueDisc contract and DropTail."""

import pytest

from repro.core import DropTail
from repro.errors import QueueError
from repro.net.packet import ECN_ECT0, FLAG_ACK, FLAG_SYN, Packet


def data(seq=0, ecn=ECN_ECT0):
    return Packet(src=0, sport=1, dst=1, dport=2, seq=seq, payload=1460, ecn=ecn)


def ack():
    return Packet(src=1, sport=2, dst=0, dport=1, flags=FLAG_ACK)


def syn():
    return Packet(src=0, sport=1, dst=1, dport=2, flags=FLAG_SYN)


class TestFifoOrder:
    def test_fifo(self):
        q = DropTail(10)
        pkts = [data(seq=i) for i in range(5)]
        for p in pkts:
            assert q.enqueue(p, 0.0)
        out = [q.dequeue(1.0) for _ in range(5)]
        assert [p.seq for p in out] == [0, 1, 2, 3, 4]

    def test_dequeue_empty_returns_none(self):
        assert DropTail(10).dequeue(0.0) is None

    def test_len_tracks_occupancy(self):
        q = DropTail(10)
        q.enqueue(data(), 0.0)
        q.enqueue(data(), 0.0)
        assert len(q) == 2
        q.dequeue(0.0)
        assert len(q) == 1


class TestTailDrop:
    def test_accepts_until_full(self):
        q = DropTail(3)
        assert all(q.enqueue(data(), 0.0) for _ in range(3))
        assert q.is_full

    def test_drops_when_full(self):
        q = DropTail(2)
        q.enqueue(data(), 0.0)
        q.enqueue(data(), 0.0)
        assert not q.enqueue(data(), 0.0)
        assert q.stats.drops_tail == 1
        assert q.stats.drops_early == 0

    def test_never_marks(self):
        q = DropTail(2)
        p = data()
        q.enqueue(p, 0.0)
        assert not p.is_ce
        assert q.stats.marks == 0

    def test_space_reopens_after_dequeue(self):
        q = DropTail(1)
        q.enqueue(data(), 0.0)
        assert not q.enqueue(data(), 0.0)
        q.dequeue(0.0)
        assert q.enqueue(data(), 0.0)

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(QueueError):
            DropTail(0)


class TestStats:
    def test_arrival_and_departure_counters(self):
        q = DropTail(10)
        q.enqueue(data(), 0.0)
        q.enqueue(ack(), 0.0)
        q.dequeue(0.5)
        st = q.stats
        assert st.arrivals == 2
        assert st.departures == 1
        assert st.arrival_bytes == 1500 + 150
        assert st.departure_bytes == 1500

    def test_per_class_arrival_counters(self):
        q = DropTail(10)
        q.enqueue(data(), 0.0)        # ECT data
        q.enqueue(ack(), 0.0)         # pure ACK
        q.enqueue(syn(), 0.0)         # SYN
        st = q.stats
        assert st.ect_arrivals == 1
        assert st.ack_arrivals == 1
        assert st.syn_arrivals == 1

    def test_per_class_drop_counters(self):
        q = DropTail(1)
        q.enqueue(data(), 0.0)
        q.enqueue(ack(), 0.0)   # dropped
        q.enqueue(syn(), 0.0)   # dropped
        st = q.stats
        assert st.ack_drops == 1
        assert st.syn_drops == 1
        assert st.drops == 2

    def test_queue_delay_measurement(self):
        q = DropTail(10)
        q.enqueue(data(), 1.0)
        q.dequeue(1.25)
        assert q.stats.mean_queue_delay == pytest.approx(0.25)

    def test_ack_drop_rate(self):
        q = DropTail(1)
        q.enqueue(data(), 0.0)
        q.enqueue(ack(), 0.0)
        q.enqueue(ack(), 0.0)
        assert q.stats.ack_drop_rate() == pytest.approx(1.0)

    def test_rates_zero_when_no_arrivals(self):
        st = DropTail(1).stats
        assert st.ack_drop_rate() == 0.0
        assert st.ect_drop_rate() == 0.0

    def test_bytes_tracking(self):
        q = DropTail(10)
        q.enqueue(data(), 0.0)
        assert q.qlen_bytes == 1500
        q.enqueue(ack(), 0.0)
        assert q.qlen_bytes == 1650
        q.dequeue(0.0)
        assert q.qlen_bytes == 150

    def test_mean_queue_packets_time_average(self):
        q = DropTail(10)
        q.enqueue(data(), 0.0)   # 1 pkt from t=0
        q.enqueue(data(), 1.0)   # 2 pkts from t=1
        q.dequeue(2.0)           # 1 pkt from t=2
        # integral = 1*1 + 2*1 + 1*2 = 5 over 4s: the departed packet
        # stayed 2 s, the one still queued has been there 3 s.
        assert q.mean_queue_packets(4.0) == 5 / 4
        assert q.mean_queue_packets(0.0) == 0.0
