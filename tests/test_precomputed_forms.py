"""Forms of the packet path chosen once, at construction or in a table,
each against the per-call form it replaced.

* RED's average form, picked by ``RedQueue.__init__`` (``_plain_ewma``,
  ``_inst_packets``), against the pre-change base-class path that
  re-tested byte mode and instantaneous mode on every arrival over an
  eagerly summed backlog;
* ``FLAG_CLASS`` plus the ``is_fin``/``is_data`` properties against the
  per-field formulas, for every flags byte, payload and ECN codepoint;
* ``RngRegistry.uniform_fn``, bound to its stream once, against scalar
  draws;
* ``Host.add_delivery_hook``'s single callable against a hook list walk.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ProtectionMode, RedParams, RedQueue
from repro.core.qdisc import QueueDisc
from repro.net.host import Host
from repro.net.packet import (
    ECN_CE,
    ECN_ECT0,
    ECN_ECT1,
    ECN_NOT_ECT,
    FLAG_ACK,
    FLAG_CLASS,
    FLAG_CWR,
    FLAG_ECE,
    FLAG_FIN,
    FLAG_SYN,
    Packet,
)
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from tests.test_property_qdisc import _kinds, make_packet

# -- RED's EWMA form ------------------------------------------------------------

TICK = 1.0 / 1024


class _EagerRed(RedQueue):
    """RED as it was before the EWMA form became a per-queue constant:
    every arrival runs ``QueueDisc.enqueue`` → ``_admit``, whose average
    tests byte mode and instantaneous mode each time, over a backlog
    summed from the queued packets."""

    enqueue = QueueDisc.enqueue
    dequeue = QueueDisc.dequeue

    def _update_avg(self, now, size):
        backlog = sum(p.size for p in self._q)
        q = backlog / self._mean_pktsize if self._byte_mode else float(len(self._q))
        if self._use_inst:
            self.avg = q
        else:
            if not self._q and self._idle_since is not None:
                if self._idle_pkt_time:
                    m = (now - self._idle_since) / self._idle_pkt_time
                    if m > 0:
                        self.avg *= (1.0 - self._wq) ** m
                self._idle_since = None
            self.avg += self._wq * (q - self.avg)


def _pair(params, limit, rate_bps):
    queues = []
    for cls in (RedQueue, _EagerRed):
        gen = np.random.Generator(np.random.PCG64(7))
        q = cls(limit, params, rand=lambda g=gen: float(g.random()))
        if rate_bps:
            q.set_link_rate(rate_bps)
        queues.append(q)
    return queues


def _state(q):
    return (q.avg, q._count, q._idle_since, dataclasses.astuple(q.stats),
            q.qlen_bytes, [p.pkt_id for p in q._q])


class TestRedEwmaForm:
    @given(byte_mode=st.booleans(), inst=st.booleans(), gentle=st.booleans(),
           protection=st.sampled_from(list(ProtectionMode)),
           band=st.tuples(st.integers(1, 6), st.integers(0, 8)),
           wq=st.sampled_from([0.002, 0.1, 0.5, 1.0]),
           rate_bps=st.sampled_from([0.0, 1e6, 1e9]),
           limit=st.integers(2, 24),
           ops=st.lists(st.tuples(st.sampled_from(["enqueue", "enqueue",
                                                   "dequeue"]),
                                  _kinds, st.integers(0, 30)),
                        min_size=1, max_size=150))
    @settings(max_examples=150, deadline=None)
    def test_fused_enqueue_matches_eager_path(self, byte_mode, inst, gentle,
                                              protection, band, wq, rate_bps,
                                              limit, ops):
        min_th, width = band
        params = RedParams(min_th=min_th, max_th=min_th + width, max_p=0.3,
                           wq=wq, gentle=gentle, use_instantaneous=inst,
                           byte_mode=byte_mode, protection=protection)
        fused, eager = _pair(params, limit, rate_bps)
        assert fused._plain_ewma is not (byte_mode or inst)
        assert fused._inst_packets is (inst and not byte_mode)
        now = 0.0
        for i, (op, kind, ticks) in enumerate(ops):
            now += ticks * TICK
            if op == "enqueue":
                a, b = make_packet(kind, i), make_packet(kind, i)
                a.pkt_id = b.pkt_id = i
                assert fused.enqueue(a, now) == eager.enqueue(b, now)
                assert a.ecn == b.ecn
            else:
                a, b = fused.dequeue(now), eager.dequeue(now)
                assert (a and a.pkt_id) == (b and b.pkt_id)
            assert _state(fused) == _state(eager)


# -- the flags table ------------------------------------------------------------

ALL_ECN = (ECN_NOT_ECT, ECN_ECT1, ECN_ECT0, ECN_CE)


def _formulas(flags, payload, ecn):
    """The per-field classification formulas the table replaced."""
    is_syn = flags & FLAG_SYN != 0
    is_fin = flags & FLAG_FIN != 0
    return {
        "is_ect": ecn != ECN_NOT_ECT,
        "is_ce": ecn == ECN_CE,
        "has_ece": flags & FLAG_ECE != 0,
        "has_cwr": flags & FLAG_CWR != 0,
        "is_syn": is_syn,
        "is_fin": is_fin,
        "is_data": payload > 0,
        "is_pure_ack": (flags & FLAG_ACK != 0 and payload == 0
                        and not (is_syn or is_fin)),
    }


class TestFlagTable:
    def test_table_is_one_row_per_flags_byte(self):
        assert len(FLAG_CLASS) == 256
        assert all(len(row) == 4 for row in FLAG_CLASS)

    @pytest.mark.parametrize("payload", [0, 1, 1460])
    @pytest.mark.parametrize("ecn", ALL_ECN)
    def test_every_flags_byte_matches_the_formulas(self, payload, ecn):
        for flags in range(256):
            pkt = Packet(src=0, sport=1, dst=1, dport=2, payload=payload,
                         flags=flags, ecn=ecn)
            for attr, want in _formulas(flags, payload, ecn).items():
                got = getattr(pkt, attr)
                assert type(got) is bool and got == want, (attr, flags)
            if pkt.is_ect:
                pkt.mark_ce()
                assert (pkt.is_ect, pkt.is_ce) == (True, True)

    def test_fin_and_data_are_properties_not_slots(self):
        assert "is_fin" not in Packet.__slots__
        assert "is_data" not in Packet.__slots__
        assert isinstance(Packet.__dict__["is_fin"], property)
        assert isinstance(Packet.__dict__["is_data"], property)


# -- the uniform sampler ----------------------------------------------------------

class TestUniformSampler:
    @pytest.mark.parametrize("name", ["red.tor->h0", "curvyred.h3->tor"])
    def test_yields_the_scalar_sequence(self, name):
        sampler = RngRegistry(seed=42).uniform_fn(name)
        gen = RngRegistry(seed=42).stream(name)
        got = [sampler() for _ in range(600)]
        assert all(type(v) is float for v in got)
        assert got == [float(gen.random()) for _ in range(600)]

    def test_interleaved_streams_stay_independent(self):
        reg = RngRegistry(seed=3)
        a, b = reg.uniform_fn("red.a"), reg.uniform_fn("red.b")
        got_a, got_b = [], []
        for i in range(515):
            got_a.append(a())
            if i % 3 == 0:
                got_b.append(b())
        ref = RngRegistry(seed=3)
        ga, gb = ref.stream("red.a"), ref.stream("red.b")
        assert got_a == [float(ga.random()) for _ in got_a]
        assert got_b == [float(gb.random()) for _ in got_b]

    def test_samplers_of_one_name_share_its_stream(self):
        """Two samplers on one name, and ``uniform``, draw from the one
        stream, so their draws interleave exactly as scalar draws do."""
        reg = RngRegistry(seed=9)
        f, g = reg.uniform_fn("red.x"), reg.uniform_fn("red.x")
        got = [f(), g(), reg.uniform("red.x"), f()]
        gen = RngRegistry(seed=9).stream("red.x")
        assert got == [float(gen.random()) for _ in range(4)]


# -- one delivery callable ------------------------------------------------------

class TestDeliveryHook:
    def _deliver(self, host, n=3):
        for i in range(n):
            host.receive(Packet(src=1, sport=1, dst=host.node_id, dport=9,
                                pkt_id=i))

    def test_no_hook(self):
        host = Host(0, "h0", Simulator())
        assert host._on_delivery is None
        self._deliver(host)
        assert host.rx_packets == 3

    def test_one_hook_is_called_directly(self):
        host = Host(0, "h0", Simulator())
        seen = []

        def hook(pkt, now):
            seen.append(pkt.pkt_id)

        host.add_delivery_hook(hook)
        assert host._on_delivery is hook
        self._deliver(host)
        assert seen == [0, 1, 2]

    def test_several_hooks_fan_out_in_registration_order(self):
        host = Host(0, "h0", Simulator())
        seen = []
        for tag in "abc":
            host.add_delivery_hook(
                lambda pkt, now, tag=tag: seen.append((tag, pkt.pkt_id, now)))
        self._deliver(host, n=2)
        assert seen == [(t, i, 0.0) for i in range(2) for t in "abc"]
