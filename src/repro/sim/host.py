"""Simulated servers (hosts).

A host owns one uplink to its ToR switch, a DCTCP sender per outgoing
flow, and a DCTCP receiver per incoming flow.  Flow completion times are
reported to the simulation through the receiver's completion callback.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .engine import Engine
from .link import Link
from .packet import Packet
from .routing import RoutingPolicy
from .tcp import DctcpReceiver, DctcpSender, TransportParams

__all__ = ["Host"]


class Host:
    """One server."""

    __slots__ = ("server_id", "tor", "engine", "uplink", "_senders", "_receivers")

    def __init__(self, server_id: int, tor: int, engine: Engine) -> None:
        self.server_id = server_id
        self.tor = tor
        self.engine = engine
        self.uplink: Optional[Link] = None  # set by the network builder
        self._senders: Dict[int, DctcpSender] = {}
        self._receivers: Dict[int, DctcpReceiver] = {}

    def start_flow(
        self,
        params: TransportParams,
        routing: RoutingPolicy,
        flow_id: int,
        dst_host: "Host",
        size_bytes: int,
        on_complete: Callable[[float], None],
    ) -> DctcpSender:
        """Open a flow from this host to ``dst_host`` and start sending."""
        receiver = DctcpReceiver(
            engine=self.engine,
            transmit=dst_host.uplink.send,
            flow_id=flow_id,
            src_server=self.server_id,
            dst_server=dst_host.server_id,
            src_tor=self.tor,
            total_bytes=size_bytes,
            on_complete=on_complete,
        )
        dst_host._receivers[flow_id] = receiver
        sender = DctcpSender(
            engine=self.engine,
            params=params,
            routing=routing,
            transmit=self.uplink.send,
            flow_id=flow_id,
            src_server=self.server_id,
            dst_server=dst_host.server_id,
            src_tor=self.tor,
            dst_tor=dst_host.tor,
            total_bytes=size_bytes,
        )
        self._senders[flow_id] = sender
        sender.start()
        return sender

    def receive(self, packet: Packet) -> None:
        """Dispatch an arriving packet to its flow endpoint."""
        if packet.is_ack:
            sender = self._senders.get(packet.flow_id)
            if sender is not None:
                sender.on_ack(packet.ack_seq, packet.ecn_echo)
        else:
            receiver = self._receivers.get(packet.flow_id)
            if receiver is not None:
                receiver.on_data(packet)

    def drop_flow(self, flow_id: int) -> None:
        """Release completed flow state (sender side)."""
        self._senders.pop(flow_id, None)

    def drop_receiver(self, flow_id: int) -> None:
        """Release completed flow state (receiver side)."""
        self._receivers.pop(flow_id, None)
