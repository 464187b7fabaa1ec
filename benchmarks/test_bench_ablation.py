"""Ablation benchmarks for the design choices DESIGN.md §5 calls out.

Each ablation runs a small all-to-all transfer (the shuffle pattern
without the MapReduce machinery, for speed) and checks the directional
effect the literature predicts.
"""

import pytest

from repro.core import ProtectionMode, RedParams, RedQueue, SimpleMarkingQueue
from repro.net import build_single_rack
from repro.sim import Simulator
from repro.stats import LatencyCollector
from repro.tcp import TcpConfig, TcpVariant
from repro.units import gbps, kb, us
from repro.workloads import all_to_all

from conftest import run_once

N_HOSTS = 8
FLOW_BYTES = kb(256)


def run_a2a(qdisc_factory, variant=TcpVariant.ECN, delack_segments=2):
    """One all-to-all round; returns (finish time, mean latency, stats)."""
    sim = Simulator()
    spec = build_single_rack(sim, N_HOSTS, qdisc_factory,
                             host_qdisc=qdisc_factory,
                             link_rate_bps=gbps(1), link_delay_s=us(20))
    lat = LatencyCollector().attach(spec.network)
    done = []
    cfg = TcpConfig(variant=variant, delack_segments=delack_segments)
    all_to_all(sim, spec.hosts, FLOW_BYTES, cfg,
               on_done=lambda r: done.append(r), stagger=0.001)
    sim.run(until=120.0)
    assert len(done) == N_HOSTS * (N_HOSTS - 1)
    finish = max(r.end_time for r in done)
    return finish, lat.mean, spec.network.aggregate_switch_stats(), done


class TestPerPacketVsPerByte:
    """A1 — the paper blames *per-packet* RED thresholds for treating a
    150 B ACK like a 1500 B data packet. In byte mode an ACK weighs 1/10
    of a data packet, so the early-drop probability applied to ACKs
    drops sharply."""

    def test_byte_mode_spares_acks(self, benchmark):
        def ablation():
            pkt_params = RedParams(min_th=8, max_th=24, ecn=True)
            byte_params = RedParams(min_th=8, max_th=24, ecn=True,
                                    byte_mode=True)
            _, _, st_pkt, _ = run_a2a(
                lambda nm: RedQueue(100, pkt_params, name=nm))
            _, _, st_byte, _ = run_a2a(
                lambda nm: RedQueue(100, byte_params, name=nm))
            return st_pkt, st_byte

        st_pkt, st_byte = run_once(benchmark, ablation)
        assert st_pkt.ack_drops > 0
        assert st_byte.ack_drop_rate() < st_pkt.ack_drop_rate()


class TestInstantaneousVsEwma:
    """A2 — Wu et al. recommend the instantaneous queue length over the
    EWMA: the slow average lets bursts overflow the buffer before the
    AQM reacts, so EWMA shows more tail drops under bursty traffic.

    It does not follow that the instantaneous marker marks *more*: it
    marks each excursion as it starts, the senders back off before the
    queue builds, and fewer packets ever arrive above ``min_th`` (105
    marks against the EWMA's 438 here). What the early reaction buys is a
    shorter standing queue, so that is what is asserted."""

    def test_instantaneous_reduces_tail_drops(self, benchmark):
        def ablation():
            ewma = RedParams(min_th=8, max_th=24, ecn=True, wq=0.002)
            inst = RedParams(min_th=8, max_th=24, ecn=True,
                             use_instantaneous=True)
            _, _, st_ewma, _ = run_a2a(lambda nm: RedQueue(100, ewma, name=nm))
            _, _, st_inst, _ = run_a2a(lambda nm: RedQueue(100, inst, name=nm))
            return st_ewma, st_inst

        st_ewma, st_inst = run_once(benchmark, ablation)
        assert st_inst.drops_tail <= st_ewma.drops_tail
        assert st_inst.mean_queue_delay < st_ewma.mean_queue_delay


class TestDelayedAcks:
    """A3 — delayed ACKs halve the ACK volume sharing the bottleneck."""

    def test_delack_halves_ack_pressure(self, benchmark):
        def ablation():
            q = lambda nm: SimpleMarkingQueue(100, 8, name=nm)
            _, _, st_on, _ = run_a2a(q, delack_segments=2)
            _, _, st_off, _ = run_a2a(q, delack_segments=1)
            return st_on, st_off

        st_on, st_off = run_once(benchmark, ablation)
        assert st_on.ack_arrivals < 0.7 * st_off.ack_arrivals


class TestDctcpGain:
    """A4 — DCTCP's g controls how fast α adapts; any sane g must keep
    the marking queue loss-free and the completion times close."""

    @pytest.mark.parametrize("g", [1 / 4, 1 / 16, 1 / 64])
    def test_g_sensitivity(self, benchmark, g):
        def ablation():
            sim_finish, lat, st, done = run_a2a(
                lambda nm: SimpleMarkingQueue(100, 8, name=nm),
                variant=TcpVariant.DCTCP,
            )
            return sim_finish, st

        finish, st = run_once(benchmark, ablation)
        assert st.drops_early == 0
        assert finish < 0.5


class TestEctSynAblation:
    """A7 — host-side ECN+ (ECT-capable SYNs) vs the paper's switch-side
    protection: both eliminate SYN losses under an aggressive default
    AQM; the switch-side patch needs no end-host change."""

    def test_ect_syn_vs_protection(self, benchmark):
        from repro.tcp import TcpConfig

        def ablation():
            params = RedParams(min_th=2, max_th=6, max_p=1.0, gentle=False,
                               use_instantaneous=True, ecn=True)
            qf = lambda nm: RedQueue(100, params, name=nm)

            sim_stats = {}
            # stock hosts, stock AQM: SYNs exposed
            _, _, st, flows = run_a2a(qf)
            sim_stats["stock"] = (st, sum(f.syn_retries for f in flows))
            # host-side fix: ECT SYNs
            sim2 = Simulator()
            spec = build_single_rack(sim2, N_HOSTS, qf, host_qdisc=qf,
                                     link_rate_bps=gbps(1), link_delay_s=us(20))
            done = []
            all_to_all(sim2, spec.hosts, FLOW_BYTES,
                       TcpConfig(variant=TcpVariant.ECN, ect_syn=True),
                       on_done=lambda r: done.append(r), stagger=0.001)
            sim2.run(until=120.0)
            st2 = spec.network.aggregate_switch_stats()
            sim_stats["ect-syn"] = (st2, sum(f.syn_retries for f in done))
            # switch-side fix: ACK+SYN protection
            prot = lambda nm: RedQueue(
                100, params.with_protection(ProtectionMode.ACK_SYN), name=nm)
            _, _, st3, flows3 = run_a2a(prot)
            sim_stats["protected"] = (st3, sum(f.syn_retries for f in flows3))
            return sim_stats

        stats = run_once(benchmark, ablation)
        assert stats["ect-syn"][0].syn_drops == 0
        assert stats["protected"][0].syn_drops == 0
        # both fixes leave no SYN retransmissions
        assert stats["ect-syn"][1] == 0
        assert stats["protected"][1] == 0


class TestCodelGenerality:
    """A6 — "RED and any other AQM queue that supports ECN" (paper,
    Section II): the ACK-drop pathology and the protection patch both
    reproduce on CoDel, a delay-based AQM the paper never ran."""

    def test_codel_drops_acks_and_protection_fixes_it(self, benchmark):
        from repro.core import CodelParams, CodelQueue

        def ablation():
            default = CodelParams(target_s=us(100), interval_s=us(1000))
            protected = CodelParams(target_s=us(100), interval_s=us(1000),
                                    protection=ProtectionMode.ACK_SYN)
            _, _, st_default, _ = run_a2a(
                lambda nm: CodelQueue(200, default, name=nm))
            _, _, st_protected, _ = run_a2a(
                lambda nm: CodelQueue(200, protected, name=nm))
            return st_default, st_protected

        st_default, st_protected = run_once(benchmark, ablation)
        # Same asymmetry as RED: ECT data marked, non-ECT ACKs dropped...
        assert st_default.marks > 0
        assert st_default.ack_drops > 0
        # ...and the paper's patch closes it.
        assert st_protected.ack_drops < st_default.ack_drops
        assert st_protected.protected > 0


class TestBufferDepthSweep:
    """A5 — the Bufferbloat curve: DropTail latency grows with buffer
    depth; marking latency does not."""

    def test_bufferbloat_curve(self, benchmark):
        from repro.core import DropTail

        def ablation():
            out = {}
            for depth in (50, 400, 1600):
                _, lat_dt, _, _ = run_a2a(
                    lambda nm, d=depth: DropTail(d, name=nm),
                    variant=TcpVariant.RENO)
                _, lat_mk, _, _ = run_a2a(
                    lambda nm, d=depth: SimpleMarkingQueue(d, 8, name=nm),
                    variant=TcpVariant.DCTCP)
                out[depth] = (lat_dt, lat_mk)
            return out

        curve = run_once(benchmark, ablation)
        # DropTail: latency strictly grows with depth (Bufferbloat).
        assert curve[50][0] < curve[400][0] < curve[1600][0]
        # Marking: flat within 3x across a 32x depth range.
        mk = [curve[d][1] for d in (50, 400, 1600)]
        assert max(mk) <= 3 * min(mk)
        # And marking at any depth beats DropTail at deep settings.
        assert max(mk) < curve[1600][0]
