"""Packet-level network substrate: packets, links, ports, switches, hosts,
topologies and routing. The substrate replaces NS-2 for this reproduction."""

from repro.net.addresses import FlowKey
from repro.net.failures import LinkFlapper
from repro.net.host import Host
from repro.net.link import Link
from repro.net.network import Network
from repro.net.packet import (
    ECN_CE,
    ECN_ECT0,
    ECN_ECT1,
    ECN_NOT_ECT,
    FLAG_ACK,
    FLAG_CWR,
    FLAG_ECE,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    Packet,
)
from repro.net.port import Port
from repro.net.switch import Switch
from repro.net.topology import TopologySpec, build_leaf_spine, build_single_rack, build_dumbbell

__all__ = [
    "Packet",
    "FlowKey",
    "Link",
    "Port",
    "Switch",
    "Host",
    "Network",
    "LinkFlapper",
    "TopologySpec",
    "build_single_rack",
    "build_leaf_spine",
    "build_dumbbell",
    "ECN_NOT_ECT",
    "ECN_ECT0",
    "ECN_ECT1",
    "ECN_CE",
    "FLAG_FIN",
    "FLAG_SYN",
    "FLAG_RST",
    "FLAG_PSH",
    "FLAG_ACK",
    "FLAG_ECE",
    "FLAG_CWR",
]
