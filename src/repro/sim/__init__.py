"""Packet-level discrete-event simulator: DCTCP + ECMP/VLB/HYB routing."""

from .engine import Engine, EventHandle
from .host import Host
from .link import DEFAULT_ECN_THRESHOLD_BYTES, DEFAULT_QUEUE_BYTES, Link
from .network import NetworkParams, SimulatedNetwork
from .packet import ACK_BYTES, HEADER_BYTES, MSS, Packet
from .routing import (
    DEFAULT_HYB_THRESHOLD_BYTES,
    AdaptiveEcmpRouting,
    CongestionHybRouting,
    EcmpRouting,
    HybRouting,
    KspRouting,
    RoutingPolicy,
    VlbRouting,
)
from .simulation import (
    ROUTING_CHOICES,
    PacketSimulation,
    run_packet_experiment,
)
from .stats import SHORT_FLOW_BYTES, FlowRecord, FlowStats, percentile
from .mptcp import MptcpFlow
from .switch import Switch
from .tcp import DctcpReceiver, DctcpSender, TransportParams
from ..obs.netreport import LinkStats, NetworkReport, network_report

__all__ = [
    "Engine",
    "EventHandle",
    "Packet",
    "MSS",
    "HEADER_BYTES",
    "ACK_BYTES",
    "Link",
    "DEFAULT_QUEUE_BYTES",
    "DEFAULT_ECN_THRESHOLD_BYTES",
    "Switch",
    "Host",
    "RoutingPolicy",
    "EcmpRouting",
    "VlbRouting",
    "HybRouting",
    "CongestionHybRouting",
    "AdaptiveEcmpRouting",
    "KspRouting",
    "DEFAULT_HYB_THRESHOLD_BYTES",
    "TransportParams",
    "DctcpSender",
    "DctcpReceiver",
    "NetworkParams",
    "SimulatedNetwork",
    "PacketSimulation",
    "run_packet_experiment",
    "ROUTING_CHOICES",
    "MptcpFlow",
    "LinkStats",
    "NetworkReport",
    "network_report",
    "FlowRecord",
    "FlowStats",
    "SHORT_FLOW_BYTES",
    "percentile",
]
