"""Output-queued switches.

A switch owns one outgoing :class:`~repro.sim.link.Link` per neighbor
(switch or locally attached host).  On packet arrival it either delivers
to a local host port (when the packet has reached its destination ToR and
the host is attached here) or forwards on the ECMP next hop toward the
packet's current target.

Once the network has attached every port, :meth:`Switch.compile` turns
the routing policy's static ECMP tables into one table per switch:
``target -> (outgoing links, count)``, holding only the targets with a
next hop here.  :meth:`Switch.receive` then forwards a packet without
calling into the policy: it repeats :meth:`RoutingPolicy.next_hop`'s
decisions (VLB decapsulation, the single-choice shortcut, the flowlet
hash) on the compiled table.  A policy that overrides ``next_hop`` (one
that reads live queue state) gets no table and is asked per packet.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .link import Link
from .packet import Packet
from .routing import RouteNotFound, RoutingPolicy, _mix

__all__ = ["Switch"]


class Switch:
    """One switch in the simulated network."""

    __slots__ = (
        "switch_id", "routing", "switch_ports", "host_ports", "forwarded",
        "_table",
    )

    def __init__(self, switch_id: int, routing: RoutingPolicy) -> None:
        self.switch_id = switch_id
        self.routing = routing
        self.switch_ports: Dict[int, Link] = {}  # neighbor switch id -> link
        self.host_ports: Dict[int, Link] = {}  # local server id -> link
        self.forwarded = 0
        # target -> (links toward it, count); None asks the policy.
        self._table: Optional[Dict[int, Tuple[Tuple[Link, ...], int]]] = None

    def attach_switch_port(self, neighbor: int, link: Link) -> None:
        """Register the outgoing link toward a neighboring switch."""
        self.switch_ports[neighbor] = link

    def attach_host_port(self, server_id: int, link: Link) -> None:
        """Register the outgoing link toward a locally attached server."""
        self.host_ports[server_id] = link

    def compile(self) -> None:
        """Build the per-target link table from the policy's ECMP tables.

        Call after every switch port is attached.  Policies that
        override :meth:`RoutingPolicy.next_hop` keep no table.
        """
        routing = self.routing
        if type(routing).next_hop is not RoutingPolicy.next_hop:
            self._table = None
            return
        ports = self.switch_ports
        self._table = {
            target: (tuple(ports[nh] for nh in choices), len(choices))
            for target, choices in routing.next_hops_at(self.switch_id).items()
        }

    def receive(self, packet: Packet) -> None:
        """Forward a packet one hop (or deliver it to a local host)."""
        self.forwarded += 1
        # Source-routed packets (KSP routing) carry their remaining hops.
        if packet.src_route:
            nxt = packet.src_route.pop(0)
            self.switch_ports[nxt].send(packet)
            return
        switch_id = self.switch_id
        via = packet.via_tor
        # Deliver locally once the packet is at its destination ToR and is
        # not still detouring via a VLB intermediate.
        if packet.dst_tor == switch_id and (via is None or via == switch_id):
            packet.via_tor = None
            port = self.host_ports.get(packet.dst_server)
            if port is None:
                raise RuntimeError(
                    f"switch {switch_id} has no port for server "
                    f"{packet.dst_server}"
                )
            port.send(packet)
            return
        table = self._table
        if table is None:
            self.switch_ports[self.routing.next_hop(switch_id, packet)].send(packet)
            return
        target = packet.dst_tor
        if via is not None:
            # The table never holds this switch itself, so a miss is
            # both "at the intermediate" and "intermediate unreachable":
            # either way, decapsulate and head for the destination ToR.
            if via in table:
                target = via
            else:
                packet.via_tor = None
        entry = table.get(target)
        if entry is None:
            raise RouteNotFound(f"no route from switch {switch_id} toward {target}")
        links, count = entry
        if count == 1:
            links[0].send(packet)
        else:
            links[
                _mix(packet.flow_id, packet.flowlet, switch_id, target) % count
            ].send(packet)
