"""Tests for the packet model: ECN codepoints, flags, classification."""

import pytest

from repro.net.packet import (
    DEFAULT_MSS,
    ECN_CE,
    ECN_ECT0,
    ECN_ECT1,
    ECN_NOT_ECT,
    FLAG_ACK,
    FLAG_CWR,
    FLAG_ECE,
    FLAG_FIN,
    FLAG_SYN,
    IP_TCP_HEADER_BYTES,
    PURE_ACK_BYTES,
    Packet,
    flag_names,
)


def mk(payload=0, flags=0, ecn=ECN_NOT_ECT, **kw):
    return Packet(src=0, sport=1000, dst=1, dport=2000,
                  payload=payload, flags=flags, ecn=ecn, **kw)


class TestEcnCodepoints:
    """The bit patterns must match the paper's Table II."""

    def test_values_match_table2(self):
        assert ECN_NOT_ECT == 0b00
        assert ECN_ECT1 == 0b01
        assert ECN_ECT0 == 0b10
        assert ECN_CE == 0b11

    def test_not_ect_is_not_ect_capable(self):
        assert not mk(ecn=ECN_NOT_ECT).is_ect

    @pytest.mark.parametrize("cp", [ECN_ECT0, ECN_ECT1, ECN_CE])
    def test_ect_capable_codepoints(self, cp):
        assert mk(ecn=cp).is_ect

    def test_only_ce_is_ce(self):
        assert mk(ecn=ECN_CE).is_ce
        assert not mk(ecn=ECN_ECT0).is_ce

    def test_mark_ce(self):
        p = mk(payload=100, ecn=ECN_ECT0)
        p.mark_ce()
        assert p.is_ce and p.is_ect


class TestFlags:
    def test_ece_flag_detection(self):
        assert mk(flags=FLAG_ACK | FLAG_ECE).has_ece
        assert not mk(flags=FLAG_ACK).has_ece

    def test_cwr_flag_detection(self):
        assert mk(flags=FLAG_CWR).has_cwr

    def test_syn_detection_includes_synack(self):
        assert mk(flags=FLAG_SYN).is_syn
        assert mk(flags=FLAG_SYN | FLAG_ACK).is_syn

    def test_fin_detection(self):
        assert mk(flags=FLAG_FIN).is_fin

    def test_flag_names_rendering(self):
        assert flag_names(FLAG_SYN | FLAG_ACK | FLAG_ECE) == "SYN|ACK|ECE"
        assert flag_names(0) == "-"


class TestClassification:
    """is_pure_ack drives both protection modes and the drop statistics."""

    def test_pure_ack(self):
        assert mk(flags=FLAG_ACK).is_pure_ack

    def test_data_with_ack_flag_is_not_pure_ack(self):
        assert not mk(payload=100, flags=FLAG_ACK).is_pure_ack

    def test_syn_is_not_pure_ack(self):
        assert not mk(flags=FLAG_SYN | FLAG_ACK).is_pure_ack

    def test_fin_is_not_pure_ack(self):
        assert not mk(flags=FLAG_FIN | FLAG_ACK).is_pure_ack

    def test_is_data(self):
        assert mk(payload=1).is_data
        assert not mk(flags=FLAG_ACK).is_data

    def test_ack_with_ece_still_pure_ack(self):
        assert mk(flags=FLAG_ACK | FLAG_ECE).is_pure_ack


class TestSizes:
    def test_data_packet_size_includes_headers(self):
        assert mk(payload=DEFAULT_MSS).size == DEFAULT_MSS + IP_TCP_HEADER_BYTES
        assert mk(payload=DEFAULT_MSS).size == 1500

    def test_pure_ack_size_matches_paper(self):
        # The paper: "ACK packets are short (typically 150 bytes)".
        assert mk(flags=FLAG_ACK).size == PURE_ACK_BYTES == 150

    def test_explicit_size_override(self):
        assert mk(payload=100, size=999).size == 999


class TestIdentity:
    def test_packet_ids_unique(self):
        assert mk().pkt_id != mk().pkt_id

    def test_flow_key(self):
        p = mk()
        assert p.flow == (0, 1000, 1, 2000)

    def test_flow_key_reversed(self):
        p = mk()
        assert p.flow.reversed() == (1, 2000, 0, 1000)
