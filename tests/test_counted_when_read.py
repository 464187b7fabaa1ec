"""Equivalence tests for the statistics that are counted when read
(DESIGN §3): each deferred form against the eager one it replaced.

* ``QueueDisc.mean_queue_packets(now)`` (Little's identity over residence
  times) against a brute-force step integral of the queue length;
* ``QueueDisc.qlen_bytes`` (arrival minus departure minus dropped bytes)
  against a re-sum of the queued packets' sizes;
* ``Port.tx_packets``/``tx_bytes`` (the qdisc's departures, less fluid
  credits, failed frames and the frame on the serializer) against the
  port's ``tx`` trace records, read after every record;
* the batched ``LatencyCollector`` against the per-packet accumulation it
  replaced, kept here as the reference — equal with ``==``, not approx;
* ``Simulator.heap_high_water`` against a max-of-lengths model.

``TestAqmConservation`` holds the per-port counters the reports read to
the trace records of every AQM port, host egress included.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CodelParams, CodelQueue, RedParams, RedQueue
from repro.experiments import (BulkConfig, ExperimentConfig, QueueSetup,
                               Scenario, run_cell)
from repro.net.packet import Packet
from repro.sim import Simulator
from repro.stats import LatencyCollector
from repro.stats.collect import DRAIN_AT
from repro.tcp import TcpVariant
from repro.units import us
from repro.validate.checkers import Checker, ValidationSuite, _iter_ports
from tests.test_property_qdisc import _kinds, build_queue, make_packet

# -- time-averaged occupancy ----------------------------------------------------

#: Every time in these scenarios is a multiple of 2**-10 s, so both sides'
#: float arithmetic is exact and the 1e-9 tolerance has nothing to absorb.
TICK = 1.0 / 1024


def _build(qkind, limit):
    if qkind == "codel":
        # Non-ECN so that the control law's action is a head drop.
        return CodelQueue(limit, CodelParams(target_s=2 * TICK,
                                             interval_s=8 * TICK, ecn=False))
    if qkind == "red-bytes":
        # Byte-mode EWMA: the one admission path that reads qlen_bytes.
        return RedQueue(limit, RedParams(min_th=max(1, limit // 8),
                                         max_th=max(2, limit // 3),
                                         byte_mode=True, max_p=0.5))
    return build_queue(qkind, limit)


def _replay(q, ops):
    """Drive ``q`` through ``ops``; yield (now, brute-force integral)."""
    now = integral = 0.0
    for i, (op, kind, ticks) in enumerate(ops):
        dt = ticks * TICK
        integral += len(q) * dt  # the interval was spent at the old length
        now += dt
        if op == "enqueue":
            q.enqueue(make_packet(kind, i), now)
        elif op == "dequeue":
            q.dequeue(now)  # CoDel may drop heads on the way
        else:
            q.credit_fluid(3, 4500, delay_s=3 * dt, occupancy_pkt_s=2 * dt,
                           ect=True)
            integral += 2 * dt
        yield now, integral


_ops = st.lists(
    st.tuples(st.sampled_from(["enqueue", "enqueue", "dequeue", "fluid"]),
              _kinds, st.integers(0, 40)),
    min_size=1, max_size=150)


class TestMeanQueuePackets:
    @given(qkind=st.sampled_from(["droptail", "red-default", "red-acksyn",
                                  "marking", "codel"]),
           limit=st.integers(2, 32), ops=_ops)
    @settings(max_examples=120, deadline=None)
    def test_equals_step_integral(self, qkind, limit, ops):
        q = _build(qkind, limit)
        for now, integral in _replay(q, ops):
            if now > 0:
                assert q.mean_queue_packets(now) == pytest.approx(
                    integral / now, rel=1e-9, abs=1e-12)
                assert 0.0 <= q.mean_queue_packets(now) <= limit + 2.0

    def test_codel_head_drops_are_counted(self):
        """A standing non-ECT queue drained slower than it fills: CoDel
        drops heads, which never reach ``queue_delay_sum``."""
        q = _build("codel", 64)
        ops = [("enqueue", "data_nonect", 0)] * 30
        ops += [("dequeue", "data_nonect", 3)] * 25
        steps = list(_replay(q, ops))
        assert q.stats.drops_early > 0
        assert q._head_drop_sojourn_s > 0.0
        now, integral = steps[-1]
        assert q.mean_queue_packets(now) == pytest.approx(integral / now,
                                                          rel=1e-9)

    def test_inert_fields_stay_zero(self):
        q = _build("red-default", 16)
        list(_replay(q, [("enqueue", "data_ect", 1), ("dequeue", "ack", 2),
                         ("fluid", "ack", 3)]))
        st_ = q.stats
        assert (st_._occ_integral_pkts, st_._occ_integral_bytes,
                st_._occ_last_t) == (0.0, 0.0, 0.0)


# -- byte backlog -------------------------------------------------------------------

class TestQlenBytes:
    @given(qkind=st.sampled_from(["droptail", "red-default", "red-ece",
                                  "red-acksyn", "red-bytes", "marking",
                                  "codel"]),
           limit=st.integers(1, 24), ops=_ops)
    @settings(max_examples=120, deadline=None)
    def test_equals_resum_after_every_operation(self, qkind, limit, ops):
        q = _build(qkind, limit)
        for _now, _integral in _replay(q, ops):
            assert q.qlen_bytes == sum(p.size for p in q._q)

    def test_codel_head_drops_leave_the_backlog(self):
        q = _build("codel", 64)
        ops = [("enqueue", "data_nonect", 0)] * 30
        ops += [("dequeue", "ack", 3)] * 25
        for _ in _replay(q, ops):
            assert q.qlen_bytes == sum(p.size for p in q._q)
        assert q.stats.drops_early > 0 and q.stats.drops_tail == 0
        assert q._dropped_bytes == 1500 * q.stats.drops_early

    def test_tail_drops_leave_the_backlog(self):
        q = _build("droptail", 3)
        for _ in _replay(q, [("enqueue", "ack", 1)] * 5
                         + [("dequeue", "ack", 1)]):
            assert q.qlen_bytes == sum(p.size for p in q._q)
        assert q.stats.drops_tail == 2 and q.qlen_bytes == 2 * 150


# -- port transmit counters ------------------------------------------------------------

class _TxLedger(Checker):
    """Counts each port's ``tx`` records and reads the port's counters at
    every one of them; ``drop`` and ``mark`` records are tallied for
    :class:`TestAqmConservation`."""

    name = "tx-ledger"

    def attach(self, sim, network, tracer):
        self.ports = {p.name: p for p in _iter_ports(network)}
        self.tx = Counter()
        self.tx_bytes = Counter()
        self.records = Counter()
        self.mismatches = []
        tracer.subscribe("tx", self._on_tx)
        tracer.subscribe("drop", self._on_record)
        tracer.subscribe("mark", self._on_record)

    def _on_tx(self, rec):
        self.records["tx"] += 1
        self.tx[rec.where] += 1
        self.tx_bytes[rec.where] += rec.data.size
        port = self.ports[rec.where]
        seen = (self.tx[rec.where], self.tx_bytes[rec.where])
        if (port.tx_packets, port.tx_bytes) != seen:
            self.mismatches.append((rec.time, rec.where,
                                    (port.tx_packets, port.tx_bytes), seen))

    def _on_record(self, rec):
        self.records[rec.kind] += 1

    def finish(self, now):
        for name, port in self.ports.items():
            seen = (self.tx[name], self.tx_bytes[name])
            if (port.tx_packets, port.tx_bytes) != seen:
                self.mismatches.append((now, name, (port.tx_packets,
                                                    port.tx_bytes), seen))


def _run_with_ledger(config):
    ledger = _TxLedger()
    result = run_cell(config, checks=ValidationSuite([ledger]))
    return result, ledger


#: The 0.01-scale TCP-ECN red-default@50us shallow cell of the paper grid.
RED_50US = ExperimentConfig(
    queue=QueueSetup(kind="red", target_delay_s=us(50)),
    variant=TcpVariant.ECN, seed=42, allow_timeout=True).scaled(0.01)


@pytest.fixture(scope="module")
def red_50us():
    return _run_with_ledger(RED_50US)


class TestPortTxCounters:
    def test_finished_cell(self, red_50us):
        _result, ledger = red_50us
        assert ledger.mismatches == []
        assert sum(ledger.tx.values()) == ledger.records["tx"] > 1000

    def test_link_down_mid_serialization(self):
        """The fuzzer's link-flap scenario at seed 1 fails its hot port
        while a frame is on the serializer: that frame is no tx."""
        _result, ledger = _run_with_ledger(Scenario(link_flap=True, seed=1))
        assert ledger.mismatches == []
        failed = [p for p in ledger.ports.values() if p.failed_tx_packets]
        assert len(failed) == 1
        assert failed[0].failed_tx_bytes > 0

    def test_hybrid_bulk_cell(self):
        """Fluid credits move the qdisc's departures, never a port's tx."""
        _result, ledger = _run_with_ledger(BulkConfig(fidelity="hybrid"))
        assert ledger.mismatches == []
        assert sum(p.qdisc.stats.fluid_packets
                   for p in ledger.ports.values()) > 0


# -- every AQM port ---------------------------------------------------------------------

class TestAqmConservation:
    def test_drop_and_mark_totals_equal_the_trace(self, red_50us):
        """Summed over every AQM port, switch and host egress, the queue
        counters equal the run's ``drop`` and ``mark`` records. The
        switch-only ``metrics.queue`` block reads 0 and 0 here: at this
        scale the congestion sits at host NICs."""
        result, ledger = red_50us
        ports = ledger.ports.values()
        drops = sum(p.qdisc.stats.drops for p in ports)
        marks = sum(p.qdisc.stats.marks for p in ports)
        assert (drops, marks) == (ledger.records["drop"],
                                  ledger.records["mark"]) == (632, 626)
        assert (result.metrics.queue.drops, result.metrics.queue.marks) == (
            0, 0)


# -- latency collector ------------------------------------------------------------

class _EagerCollector:
    """The per-packet accumulation the batched collector replaced."""

    N_BINS, LO, HI = LatencyCollector.N_BINS, LatencyCollector.LO, LatencyCollector.HI

    def __init__(self, data_only=False):
        self.data_only = data_only
        self.count = 0
        self.total = 0.0
        self._bins = [0] * (self.N_BINS + 2)
        self._log_lo = math.log(self.LO)
        self._log_ratio = (math.log(self.HI) - self._log_lo) / self.N_BINS
        self.max_latency = 0.0

    def _bin(self, lat):
        if lat <= self.LO:
            return 0
        if lat >= self.HI:
            return self.N_BINS + 1
        return 1 + int((math.log(lat) - self._log_lo) / self._log_ratio)

    def hook(self, pkt, now):
        if self.data_only and pkt.payload == 0:
            return
        lat = now - pkt.created_at
        self.count += 1
        self.total += lat
        if lat > self.max_latency:
            self.max_latency = lat
        self._bins[self._bin(lat)] += 1

    def credit(self, lat, n, data=True):
        if n <= 0 or (self.data_only and not data):
            return
        self.count += n
        self.total += lat * n
        if lat > self.max_latency:
            self.max_latency = lat
        self._bins[self._bin(lat)] += n

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, q):
        if self.count == 0:
            return 0.0
        target = self.count * q / 100.0
        cum = np.cumsum(np.asarray(self._bins, dtype=np.int64))
        idx = int(np.searchsorted(cum, target))
        if idx <= 0:
            return self.LO
        if idx >= self.N_BINS + 1:
            return self.max_latency
        lo_edge = math.exp(self._log_lo + (idx - 1) * self._log_ratio)
        hi_edge = math.exp(self._log_lo + idx * self._log_ratio)
        return math.sqrt(lo_edge * hi_edge)


def _summary(c):
    # count first: it is what drains the batched collector before _bins.
    return (c.count, c.total, c.max_latency, list(c._bins), c.mean,
            c.percentile(50), c.percentile(99))


class TestBatchedLatencyCollector:
    BOUNDARY = DRAIN_AT

    @given(seed=st.integers(0, 2**32 - 1),
           n=st.sampled_from([1, BOUNDARY - 1, BOUNDARY, BOUNDARY + 1,
                              2 * BOUNDARY, 2 * BOUNDARY + 905]),
           data_only=st.booleans(),
           credit_every=st.sampled_from([0, 7, 1000]),
           read_every=st.sampled_from([0, 13, 3000]))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_eager(self, seed, n, data_only, credit_every,
                                    read_every):
        rng = random.Random(seed)
        batched = LatencyCollector(data_only=data_only)
        eager = _EagerCollector(data_only=data_only)
        pkt = Packet(src=0, sport=1, dst=1, dport=2)
        for i in range(1, n + 1):
            pkt.payload = rng.choice((0, 1460))
            pkt.created_at = rng.random()
            # log-uniform over 1e-8 .. 100 s: both overflow bins get hit
            now = pkt.created_at + 10.0 ** rng.uniform(-8, 2)
            batched.hook(pkt, now)
            eager.hook(pkt, now)
            if credit_every and i % credit_every == 0:
                args = (rng.random() * 1e-3, rng.randrange(0, 50),
                        rng.random() < 0.5)
                batched.credit(*args)
                eager.credit(*args)
            if read_every and i % read_every == 0:
                assert batched.count == eager.count
        assert len(batched._pending) < self.BOUNDARY
        assert _summary(batched) == _summary(eager)
        assert batched._pending == []

    def test_buffer_is_bounded(self):
        c = LatencyCollector()
        pkt = Packet(src=0, sport=1, dst=1, dport=2, payload=10)
        pkt.created_at = 0.0
        for i in range(3 * self.BOUNDARY + 5):
            c.hook(pkt, 0.001)
            assert len(c._pending) < self.BOUNDARY
        assert c.count == 3 * self.BOUNDARY + 5


# -- heap high-water mark -----------------------------------------------------------

class _Peak:
    """Max-of-lengths model: the heap only grows by a push, so its peak is
    the largest length seen right after one."""

    def __init__(self, sim):
        self.sim = sim
        self.value = 0

    def schedule(self, delay, callback):
        handle = self.sim.schedule(delay, callback)
        self.value = max(self.value, self.sim.pending_events)
        return handle


class TestHeapHighWater:
    def test_scheduled_before_run(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(1.0 + i, lambda: None)
        assert sim.heap_high_water == 10  # the read folds in the length
        sim.run()
        assert sim.pending_events == 0
        assert sim.heap_high_water == 10  # run() saw it before the first pop

    def test_scheduled_between_steps_and_runs(self):
        sim = Simulator()
        peak = _Peak(sim)
        peak.schedule(1.0, lambda: None)
        assert sim.step()
        for i in range(5):
            peak.schedule(1.0 + i, lambda: None)
        assert sim.step() and sim.step()
        assert sim.heap_high_water == peak.value == 5
        for i in range(4):
            peak.schedule(10.0 + i, lambda: None)
        sim.run(until=5.0)   # two fire, five stay beyond the horizon
        assert sim.heap_high_water == peak.value == 7
        sim.run()
        assert sim.heap_high_water == 7

    @given(seed=st.integers(0, 2**32 - 1), stepped=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_trees_match_model(self, seed, stepped):
        rng = random.Random(seed)
        sim = Simulator()
        peak = _Peak(sim)
        budget = [400]

        def node():
            for _ in range(rng.randrange(0, 4)):
                if budget[0] > 0:
                    budget[0] -= 1
                    peak.schedule(rng.choice((0.0, 0.5, 1.0, 2.5)), node)
            assert sim.heap_high_water == peak.value  # mid-callback read

        for _ in range(rng.randrange(1, 30)):
            peak.schedule(rng.random(), node)
        if stepped:
            while sim.step():
                assert sim.heap_high_water == peak.value
        else:
            sim.run()
        assert sim.heap_high_water == peak.value

    @pytest.mark.parametrize("stepped", [False, True])
    def test_cancel_storm_compacts_inside_callback(self, stepped):
        """A callback arms 200 timers and cancels 150: the heap compacts
        mid-callback, so by the time the loop looks the peak is gone."""
        sim = Simulator()
        peak = _Peak(sim)
        shrunk = []

        def storm():
            timers = [peak.schedule(5.0 + i, lambda: None) for i in range(200)]
            before = sim.pending_events
            for handle in timers[:150]:
                sim.cancel(handle)
            shrunk.append(before - sim.pending_events)

        peak.schedule(1.0, storm)
        peak.schedule(2.0, lambda: None)
        if stepped:
            while sim.step():
                pass
        else:
            sim.run()
        assert shrunk[0] > 0                      # _compact ran inside storm()
        assert sim.heap_high_water == peak.value == 201
        assert sim.check_invariants() == []
