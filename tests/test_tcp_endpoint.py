"""Integration tests for the TCP endpoints over a real simulated network."""

import pytest

from repro.core import DropTail, RedQueue, RedParams, SimpleMarkingQueue, ProtectionMode
from repro.errors import TcpError
from repro.net import build_single_rack
from repro.net.packet import ECN_ECT0, ECN_NOT_ECT, FLAG_ECE, FLAG_SYN
from repro.sim import Simulator
from repro.tcp import TcpConfig, TcpListener, TcpVariant, start_bulk_flow
from repro.units import gbps, kb, mb, us


def rack(sim, qf=None, n=4, rate=gbps(1)):
    return build_single_rack(sim, n, qf or (lambda nm: DropTail(200, name=nm)),
                             link_rate_bps=rate, link_delay_s=us(20))


def transfer(sim, spec, nbytes, variant=TcpVariant.ECN, src=0, dst=1,
             cfg=None, until=20.0):
    cfg = cfg or TcpConfig(variant=variant)
    listener = TcpListener(sim, spec.hosts[dst], 5000, cfg)
    results = []
    start_bulk_flow(sim, spec.hosts[src], spec.hosts[dst], 5000, nbytes, cfg,
                    on_done=lambda r: results.append(r))
    sim.run(until=until)
    return results, listener


class TestHandshake:
    def test_connection_establishes(self):
        sim = Simulator()
        spec = rack(sim)
        results, _ = transfer(sim, spec, kb(10))
        assert len(results) == 1
        assert results[0].established_time is not None
        assert results[0].established_time > results[0].start_time

    def test_ecn_negotiated_data_is_ect(self):
        sim = Simulator()
        spec = rack(sim)
        seen = []
        spec.hosts[1].add_delivery_hook(lambda p, t: seen.append(p))
        transfer(sim, spec, kb(10), variant=TcpVariant.ECN)
        data = [p for p in seen if p.payload > 0]
        assert data and all(p.ecn == ECN_ECT0 for p in data)

    def test_reno_data_is_not_ect(self):
        sim = Simulator()
        spec = rack(sim)
        seen = []
        spec.hosts[1].add_delivery_hook(lambda p, t: seen.append(p))
        transfer(sim, spec, kb(10), variant=TcpVariant.RENO)
        data = [p for p in seen if p.payload > 0]
        assert data and all(p.ecn == ECN_NOT_ECT for p in data)

    def test_syn_carries_ece_cwr_when_ecn(self):
        sim = Simulator()
        spec = rack(sim)
        seen = []
        spec.hosts[1].add_delivery_hook(lambda p, t: seen.append(p))
        transfer(sim, spec, kb(1), variant=TcpVariant.ECN)
        syns = [p for p in seen if p.flags & FLAG_SYN]
        assert syns and all(p.has_ece and p.has_cwr for p in syns)
        assert all(not p.is_ect for p in syns)  # SYN itself is Non-ECT

    def test_plain_syn_without_ecn(self):
        sim = Simulator()
        spec = rack(sim)
        seen = []
        spec.hosts[1].add_delivery_hook(lambda p, t: seen.append(p))
        transfer(sim, spec, kb(1), variant=TcpVariant.RENO)
        syns = [p for p in seen if p.flags & FLAG_SYN]
        assert syns and all(not p.has_ece for p in syns)

    def test_acks_are_never_ect(self):
        """RFC 3168: pure ACKs are sent Non-ECT — the paper's crux."""
        sim = Simulator()
        spec = rack(sim)
        seen = []
        spec.hosts[0].add_delivery_hook(lambda p, t: seen.append(p))  # sender side
        transfer(sim, spec, mb(1), variant=TcpVariant.ECN)
        acks = [p for p in seen if p.is_pure_ack]
        assert len(acks) > 50
        assert all(p.ecn == ECN_NOT_ECT for p in acks)


class TestBulkTransfer:
    @pytest.mark.parametrize("variant", list(TcpVariant))
    def test_full_delivery_all_variants(self, variant):
        sim = Simulator()
        spec = rack(sim)
        results, listener = transfer(sim, spec, mb(1), variant=variant)
        assert len(results) == 1
        assert not results[0].failed
        st = next(iter(listener.flows.values()))
        assert st.rcv_nxt == mb(1)

    def test_goodput_near_line_rate(self):
        sim = Simulator()
        spec = rack(sim)
        results, _ = transfer(sim, spec, mb(4))
        # 4 MB on an uncongested 1 Gbps path: expect > 80% of line rate.
        assert results[0].goodput_bps > 0.8e9

    def test_no_retransmits_without_congestion(self):
        sim = Simulator()
        spec = rack(sim)
        results, _ = transfer(sim, spec, mb(1))
        assert results[0].retransmits == 0
        assert results[0].rtos == 0

    def test_tiny_flow(self):
        sim = Simulator()
        spec = rack(sim)
        results, _ = transfer(sim, spec, 100)
        assert not results[0].failed

    def test_flow_size_must_be_positive(self):
        sim = Simulator()
        spec = rack(sim)
        cfg = TcpConfig()
        with pytest.raises(TcpError):
            start_bulk_flow(sim, spec.hosts[0], spec.hosts[1], 5000, 0, cfg)


class TestLossRecovery:
    def test_recovers_through_tiny_buffer(self):
        """A 10-packet DropTail forces losses; the flow must still finish."""
        sim = Simulator()
        spec = rack(sim, qf=lambda nm: DropTail(10, name=nm))
        # two competing flows to force drops
        cfg = TcpConfig(variant=TcpVariant.RENO)
        l1 = TcpListener(sim, spec.hosts[1], 5000, cfg)
        l2 = TcpListener(sim, spec.hosts[1], 5001, cfg)
        results = []
        start_bulk_flow(sim, spec.hosts[0], spec.hosts[1], 5000, mb(1), cfg,
                        on_done=lambda r: results.append(r))
        start_bulk_flow(sim, spec.hosts[2], spec.hosts[1], 5001, mb(1), cfg,
                        on_done=lambda r: results.append(r))
        sim.run(until=60.0)
        assert len(results) == 2
        assert all(not r.failed for r in results)
        assert sum(r.retransmits for r in results) > 0

    def test_receiver_data_complete_despite_loss(self):
        sim = Simulator()
        spec = rack(sim, qf=lambda nm: DropTail(8, name=nm))
        cfg = TcpConfig(variant=TcpVariant.RENO)
        listener = TcpListener(sim, spec.hosts[1], 5000, cfg)
        done = []
        for src in (0, 2, 3):
            start_bulk_flow(sim, spec.hosts[src], spec.hosts[1], 5000, kb(500),
                            cfg, on_done=lambda r: done.append(r))
        sim.run(until=60.0)
        assert len(done) == 3
        for st in listener.flows.values():
            assert st.rcv_nxt == kb(500)


class TestEcnReaction:
    def test_ecn_flow_sees_marks_and_cuts(self):
        sim = Simulator()
        params = RedParams(min_th=5, max_th=15, use_instantaneous=True, ecn=True)
        spec = rack(sim, qf=lambda nm: RedQueue(100, params, name=nm))
        cfg = TcpConfig(variant=TcpVariant.ECN)
        listener = TcpListener(sim, spec.hosts[1], 5000, cfg)
        results = []
        for src in (0, 2, 3):
            start_bulk_flow(sim, spec.hosts[src], spec.hosts[1], 5000, mb(1),
                            cfg, on_done=lambda r: results.append(r))
        sim.run(until=60.0)
        assert len(results) == 3
        st = spec.network.aggregate_switch_stats()
        assert st.marks > 0

    def test_dctcp_keeps_queue_near_threshold(self):
        sim = Simulator()
        K = 10
        spec = rack(sim, qf=lambda nm: SimpleMarkingQueue(500, K, name=nm))
        cfg = TcpConfig(variant=TcpVariant.DCTCP)
        listener = TcpListener(sim, spec.hosts[1], 5000, cfg)
        results = []
        for src in (0, 2, 3):
            start_bulk_flow(sim, spec.hosts[src], spec.hosts[1], 5000, mb(2),
                            cfg, on_done=lambda r: results.append(r))
        sim.run(until=60.0)
        assert len(results) == 3
        # The congested ToR downlink queue should have stayed shallow:
        # DCTCP holds occupancy near K, far below the 500-packet buffer.
        hot = spec.hot_ports[1].qdisc  # downlink toward hosts[1]
        mean_q = hot.mean_queue_packets(results[-1].end_time)
        assert mean_q < 5 * K

    def test_dctcp_no_drops_with_marking_queue(self):
        sim = Simulator()
        spec = rack(sim, qf=lambda nm: SimpleMarkingQueue(500, 10, name=nm))
        cfg = TcpConfig(variant=TcpVariant.DCTCP)
        listener = TcpListener(sim, spec.hosts[1], 5000, cfg)
        results = []
        for src in (0, 2, 3):
            start_bulk_flow(sim, spec.hosts[src], spec.hosts[1], 5000, mb(1),
                            cfg, on_done=lambda r: results.append(r))
        sim.run(until=60.0)
        st = spec.network.aggregate_switch_stats()
        assert st.drops == 0
        assert all(r.retransmits == 0 for r in results)


class TestDelayedAcks:
    def test_delack_reduces_ack_count(self):
        sim = Simulator()
        spec = rack(sim)
        acks = []
        spec.hosts[0].add_delivery_hook(
            lambda p, t: acks.append(p) if p.is_pure_ack else None
        )
        cfg = TcpConfig(variant=TcpVariant.RENO, delack_segments=2)
        listener = TcpListener(sim, spec.hosts[1], 5000, cfg)
        start_bulk_flow(sim, spec.hosts[0], spec.hosts[1], 5000, mb(1), cfg)
        sim.run(until=20.0)
        n_segments = mb(1) // cfg.mss + 1
        # About one ACK per two segments (plus handshake/timeout extras).
        assert len(acks) < 0.75 * n_segments

    def test_delack_timeout_flushes(self):
        """A flow smaller than the delack threshold still gets ACKed."""
        sim = Simulator()
        spec = rack(sim)
        cfg = TcpConfig(variant=TcpVariant.RENO, delack_segments=4,
                        delack_timeout=0.001)
        listener = TcpListener(sim, spec.hosts[1], 5000, cfg)
        results = []
        start_bulk_flow(sim, spec.hosts[0], spec.hosts[1], 5000, 500, cfg,
                        on_done=lambda r: results.append(r))
        sim.run(until=5.0)
        assert len(results) == 1 and not results[0].failed


class TestListener:
    def test_one_listener_serves_many_flows(self):
        sim = Simulator()
        spec = rack(sim, n=6)
        cfg = TcpConfig()
        listener = TcpListener(sim, spec.hosts[0], 5000, cfg)
        results = []
        for src in range(1, 6):
            start_bulk_flow(sim, spec.hosts[src], spec.hosts[0], 5000, kb(100),
                            cfg, on_done=lambda r: results.append(r))
        sim.run(until=30.0)
        assert len(results) == 5
        assert len(listener.flows) == 5

    def test_progress_callback_monotonic(self):
        sim = Simulator()
        spec = rack(sim)
        seen = []
        cfg = TcpConfig()
        listener = TcpListener(sim, spec.hosts[1], 5000, cfg,
                               on_progress=lambda k, st: seen.append(st.rcv_nxt))
        start_bulk_flow(sim, spec.hosts[0], spec.hosts[1], 5000, kb(200), cfg)
        sim.run(until=10.0)
        assert seen == sorted(seen)
        assert seen[-1] == kb(200)

    def test_close_unbinds(self):
        sim = Simulator()
        spec = rack(sim)
        cfg = TcpConfig()
        listener = TcpListener(sim, spec.hosts[1], 5000, cfg)
        listener.close()
        # Port free again: rebinding must not raise.
        TcpListener(sim, spec.hosts[1], 5000, cfg)
