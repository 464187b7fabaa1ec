"""Tests for the Linux-DCTCP flaws pack (Misund, arXiv:2211.07581).

Three layers: the :data:`FLAW_PROFILES` config toggles, the endpoint
behaviors they flip (Non-ECT retransmits, receiver-side mark
coalescing), and the pinned flawed-vs-fixed experiment cell whose
α-inflation the CI smoke gate relies on.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments.flaws import (
    FLAWS_PROFILES,
    flaws_cell,
    flaws_grid,
    render_flaws_table,
)
from repro.experiments.runner import run_cell
from repro.net.packet import ECN_CE, ECN_ECT0, ECN_NOT_ECT, FLAG_CWR, FLAG_ECE, FLAG_SYN, Packet
from repro.sim import Simulator
from repro.tcp import TcpConfig, TcpVariant
from repro.tcp.endpoint import FLAW_PROFILES, TcpListener
from tests.test_tcp_protocol import MSS, StubHost, ack, establish, make_sender


class TestFlawProfiles:
    def test_known_profiles(self):
        assert set(FLAW_PROFILES) == {
            "linux-dctcp", "coalesce", "retx-mark", "alpha-freeze",
        }
        # The pack's table order: corrected stack first, then the union.
        assert FLAWS_PROFILES[0] is None
        assert set(FLAWS_PROFILES[1:]) == set(FLAW_PROFILES)

    def test_none_keeps_corrected_defaults(self):
        cfg = TcpConfig(variant=TcpVariant.DCTCP).with_flaw_profile(None)
        assert cfg.precise_ece_accounting
        assert not cfg.mark_retransmits
        assert cfg.dctcp_rto_window_reset

    def test_linux_dctcp_flips_all_three(self):
        cfg = TcpConfig(variant=TcpVariant.DCTCP).with_flaw_profile("linux-dctcp")
        assert not cfg.precise_ece_accounting
        assert cfg.mark_retransmits
        assert not cfg.dctcp_rto_window_reset

    def test_single_flaw_profiles_flip_one_knob_each(self):
        base = TcpConfig(variant=TcpVariant.DCTCP)
        assert not base.with_flaw_profile("coalesce").precise_ece_accounting
        assert base.with_flaw_profile("coalesce").dctcp_rto_window_reset
        assert base.with_flaw_profile("retx-mark").mark_retransmits
        assert not base.with_flaw_profile("alpha-freeze").dctcp_rto_window_reset

    def test_unknown_profile_raises_with_known_names(self):
        from repro.errors import TcpError

        with pytest.raises(TcpError, match="coalesce"):
            TcpConfig().with_flaw_profile("nagle")


class TestRetransmitMarking:
    def force_fast_retransmit(self, **cfg_kw):
        sim = Simulator()
        host, sender = make_sender(sim, variant=TcpVariant.DCTCP, **cfg_kw)
        first = establish(sim, host, sender)
        assert all(p.ecn == ECN_ECT0 for p in first)
        n_before = len(host.data_packets())
        for _ in range(3):  # three dup ACKs for seq 0
            host.deliver(ack(sender, 0))
        retx = host.data_packets()[n_before]
        assert retx.seq == 0  # the lost head was resent
        return retx

    def test_retransmits_are_nonect_by_default(self):
        # RFC 3168 §6.1.5: retransmitted packets must not be ECT — the
        # corrected stack keeps their marks out of the α estimate.
        retx = self.force_fast_retransmit()
        assert retx.ecn == ECN_NOT_ECT

    def test_retx_mark_flaw_sends_retransmits_ect(self):
        retx = self.force_fast_retransmit(mark_retransmits=True)
        assert retx.ecn == ECN_ECT0


def listener(precise=True, delack_segments=2):
    sim = Simulator()
    host = StubHost(node_id=0)
    cfg = TcpConfig(variant=TcpVariant.DCTCP,
                    precise_ece_accounting=precise,
                    delack_segments=delack_segments)
    lst = TcpListener(sim, host, 5000, cfg)
    host.deliver(Packet(src=1, sport=2, dst=0, dport=5000,
                        flags=FLAG_SYN | FLAG_ECE | FLAG_CWR))
    host.sent.clear()  # drop the SYN-ACK; tests look at data ACKs only
    return sim, host, lst


def seg(seq, ce=False):
    return Packet(src=1, sport=2, dst=0, dport=5000, seq=seq, payload=MSS,
                  ecn=ECN_CE if ce else ECN_ECT0)


class TestReceiverEcho:
    def test_precise_echo_acks_on_ce_state_change(self):
        # SIGCOMM'10 receiver: a CE state flip sends an immediate ACK
        # carrying the *old* state, so the flag stream is byte-accurate.
        sim, host, lst = listener(precise=True)
        host.deliver(seg(0, ce=False))
        assert host.sent == []  # delayed: one unmarked segment pending
        host.deliver(seg(MSS, ce=True))
        assert len(host.sent) == 1  # state change -> immediate ACK
        a = host.sent[0]
        assert not a.has_ece  # old state: not CE
        assert a.ack == MSS  # covers only the bytes seen under that state

    def test_precise_echo_attributes_marked_bytes_once(self):
        sim, host, lst = listener(precise=True)
        host.deliver(seg(0, ce=False))
        host.deliver(seg(MSS, ce=True))       # state-change ACK
        host.deliver(seg(2 * MSS, ce=False))  # state-change ACK (CE -> ECT)
        host.deliver(seg(3 * MSS, ce=False))  # delayed-ACK cadence fires
        assert sum(p.marked_bytes for p in host.sent) == MSS
        assert host.sent[-1].ack == 4 * MSS

    def test_coalesced_echo_latches_one_mark_over_whole_window(self):
        # The Misund coalescing flaw: no state-change ACKs, and a single
        # CE segment sets ECE on the covering delayed ACK — the flag-only
        # sender then counts both segments' bytes as marked.
        sim, host, lst = listener(precise=False)
        host.deliver(seg(0, ce=True))
        assert host.sent == []  # no state-change ACK in coalesced mode
        host.deliver(seg(MSS, ce=False))
        assert len(host.sent) == 1
        a = host.sent[0]
        assert a.has_ece
        assert a.ack == 2 * MSS

    def test_coalesced_latch_consumed_by_ack(self):
        sim, host, lst = listener(precise=False)
        host.deliver(seg(0, ce=True))
        host.deliver(seg(MSS, ce=False))
        host.deliver(seg(2 * MSS, ce=False))
        host.deliver(seg(3 * MSS, ce=False))
        assert host.sent[0].has_ece
        assert not host.sent[1].has_ece  # clean window, clean flag


class TestFlawsCells:
    def test_grid_covers_all_profiles(self):
        grid = flaws_grid()
        assert len(grid) == len(FLAWS_PROFILES)
        assert grid[0].flaw_profile is None
        assert {c.flaw_profile for c in grid[1:]} == set(FLAW_PROFILES)

    def test_labels_carry_flaw_suffix(self):
        assert "!" not in flaws_cell(None).label()
        assert flaws_cell("coalesce").label().endswith("!coalesce")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            flaws_cell("quic")

    def test_pinned_cell_reproduces_alpha_inflation(self):
        # The acceptance pathology on a short horizon: the coalescing
        # flaw shows measurably higher time-averaged α and no higher
        # goodput than the corrected stack on the pinned tiny-buffer
        # incast (the CI smoke runs the full 1 s version of this).
        fixed = run_cell(flaws_cell(None, duration_s=0.3))
        flawed = run_cell(flaws_cell("coalesce", duration_s=0.3))
        a_fixed = fixed.metrics.extra["dctcp_alpha_timeavg"]
        a_flawed = flawed.metrics.extra["dctcp_alpha_timeavg"]
        assert a_flawed > a_fixed * 1.01
        assert (flawed.metrics.extra["goodput_bps"]
                <= fixed.metrics.extra["goodput_bps"] * 1.005)
        # Round-trip: the profile and cc knobs land in the manifest.
        assert flawed.manifest["config"]["flaw_profile"] == "coalesce"
        assert "cc" in flawed.manifest["config"]

    def test_render_table_shows_delta_vs_fixed(self):
        rows = [
            {"profile": "fixed", "label": "a", "alpha_timeavg": 0.5,
             "alpha_mean": 0.5, "alpha_max": 0.6, "goodput_bps": 1e9,
             "retransmits": 1, "rtos": 0, "marks": 10, "drops": 2},
            {"profile": "coalesce", "label": "b", "alpha_timeavg": 0.55,
             "alpha_mean": 0.55, "alpha_max": 0.7, "goodput_bps": 9e8,
             "retransmits": 2, "rtos": 1, "marks": 12, "drops": 3},
        ]
        table = render_flaws_table(rows)
        assert "fixed" in table
        assert "(+10% vs fixed)" in table


class TestFuzzerAxes:
    def test_new_axes_registered(self):
        from repro.experiments.scenario import AXES

        assert {"curvyred", "tinybuffer"} <= set(AXES["qdisc"])
        assert {"", "cubic", "d2tcp"} == set(AXES["cc"])

    def test_scenario_rejects_unknown_cc(self):
        from repro.validate.fuzz import Scenario
        from repro.errors import ConfigError

        Scenario(cc="cubic").validate()
        with pytest.raises(ConfigError):
            Scenario(cc="vegas").validate()

    def test_zoo_scenario_runs_clean(self):
        from repro.validate.fuzz import Scenario, run_scenario

        res = run_scenario(Scenario(
            qdisc="curvyred", cc="cubic", n_flows=2, flow_bytes=20_000,
            seed=7))
        assert res.ok, res.violations
        assert res.completed_flows == 2
