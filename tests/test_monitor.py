"""Tests for queue monitoring and Figure-1 snapshots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DropTail, QueueMonitor
from repro.core.monitor import take_snapshot
from repro.net.packet import (
    ECN_CE,
    ECN_ECT0,
    ECN_NOT_ECT,
    FLAG_ACK,
    FLAG_SYN,
    Packet,
)
from repro.sim import Simulator, Tracer


def data(ect=True, seq=0):
    return Packet(src=0, sport=1, dst=1, dport=2, seq=seq, payload=1460,
                  ecn=ECN_ECT0 if ect else ECN_NOT_ECT)


class TestSnapshot:
    def test_classifies_queue_contents(self):
        q = DropTail(100)
        q.enqueue(data(), 0.0)
        q.enqueue(data(ect=False), 0.0)
        q.enqueue(Packet(src=1, sport=2, dst=0, dport=1, flags=FLAG_ACK), 0.0)
        q.enqueue(Packet(src=0, sport=1, dst=1, dport=2, flags=FLAG_SYN), 0.0)
        ce = data()
        ce.mark_ce()
        q.enqueue(ce, 0.0)
        s = take_snapshot(q, 1.0)
        assert s.ect_data == 1
        assert s.nonect_data == 1
        assert s.pure_acks == 1
        assert s.syns == 1
        assert s.ce_marked == 1
        assert s.qlen_packets == 5

    def test_occupancy_fraction(self):
        q = DropTail(10)
        for i in range(5):
            q.enqueue(data(seq=i), 0.0)
        s = take_snapshot(q, 0.0)
        assert s.occupancy == pytest.approx(0.5)

    def test_ect_fraction(self):
        q = DropTail(10)
        q.enqueue(data(), 0.0)
        q.enqueue(data(ect=False), 0.0)
        s = take_snapshot(q, 0.0)
        assert s.ect_fraction == pytest.approx(0.5)

    def test_empty_queue_snapshot(self):
        s = take_snapshot(DropTail(10), 0.0)
        assert s.qlen_packets == 0
        assert s.ect_fraction == 0.0


class TestMonitor:
    def test_samples_at_interval(self):
        sim = Simulator()
        q = DropTail(10)
        mon = QueueMonitor(sim, q, interval=0.1)
        mon.start()
        q.enqueue(data(), 0.0)
        sim.run(until=0.55)
        assert len(mon.snapshots) == 5
        assert all(s.qlen_packets == 1 for s in mon.snapshots)

    def test_stop(self):
        sim = Simulator()
        mon = QueueMonitor(sim, DropTail(10), interval=0.1)
        mon.start()
        sim.schedule(0.25, mon.stop)
        sim.run(until=1.0)
        assert len(mon.snapshots) == 2

    def test_aggregates(self):
        # busiest() is the one aggregate left: the first maximum
        sim = Simulator()
        q = DropTail(10)
        mon = QueueMonitor(sim, q, interval=0.1)
        mon.start()
        q.enqueue(data(), 0.0)
        sim.schedule(0.15, lambda: q.enqueue(data(), sim.now))
        sim.run(until=0.35)
        # samples at .1 (1 pkt), .2 (2), .3 (2)
        assert mon.busiest() is mon.snapshots[1]

    def test_empty_monitor_aggregates(self):
        sim = Simulator()
        mon = QueueMonitor(sim, DropTail(10), interval=0.1)
        assert mon.busiest() is None


def _resize(q, n, now):
    """Bring ``q`` to ``n`` packets, alternating ECT and non-ECT data."""
    while q.qlen_packets > n:
        q.dequeue(now)
    while q.qlen_packets < n:
        q.enqueue(data(ect=q.qlen_packets % 2 == 0), now)


class TestBusiestOnly:
    """A busiest-only monitor keeps exactly the snapshot that
    ``max(series, key=qlen_packets)`` picks from the full series."""

    @settings(max_examples=80, deadline=None)
    @given(lengths=st.lists(st.integers(0, 10), max_size=25),
           traced=st.booleans())
    def test_keeps_the_first_busiest_of_the_full_series(self, lengths,
                                                        traced):
        sim, tracer = Simulator(), Tracer()
        rows = []
        if traced:
            tracer.subscribe("queue.sample", rows.append)
        q = DropTail(10, name="q0")
        full = QueueMonitor(sim, q, interval=0.1)
        busy = QueueMonitor(sim, q, interval=0.1, busiest_only=True,
                            tracer=tracer)
        for i, n in enumerate(lengths):
            sim.schedule_at(i * 0.1 + 0.05,
                            lambda n=n: _resize(q, n, sim.now))
        full.start()
        busy.start()
        sim.run(until=len(lengths) * 0.1 + 0.01)
        assert len(full.snapshots) == len(lengths)
        expected = ([max(full.snapshots, key=lambda s: s.qlen_packets)]
                    if full.snapshots else [])
        assert busy.snapshots == expected
        assert busy.busiest() == full.busiest()
        # a subscriber still sees every sample, in order
        assert [r.data for r in rows] == (full.snapshots if traced else [])
