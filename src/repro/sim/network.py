"""Build a simulated network from a :class:`~repro.topologies.base.Topology`.

Each cable becomes two directed :class:`Link` objects; each server becomes
a :class:`Host` with a bidirectional access link to its ToR.  The paper's
ProjecToR-style evaluation (§6.6) ignores server-link bottlenecks; pass
``server_link_rate_bps=None`` to reproduce that (access links then run at
a rate high enough never to bottleneck, with marking disabled).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..topologies.base import Topology
from .engine import Engine
from .host import Host
from .link import DEFAULT_ECN_THRESHOLD_BYTES, DEFAULT_QUEUE_BYTES, Link
from .routing import RoutingPolicy
from .switch import Switch

__all__ = ["SimulatedNetwork", "NetworkParams"]


class NetworkParams:
    """Physical-layer configuration.

    Defaults model the paper's setup: 10 Gbps links, small propagation
    delays, DCTCP ECN threshold of 20 full-sized packets.
    """

    __slots__ = (
        "link_rate_bps",
        "server_link_rate_bps",
        "prop_delay",
        "queue_bytes",
        "ecn_threshold_bytes",
    )

    def __init__(
        self,
        link_rate_bps: float = 10e9,
        server_link_rate_bps: Optional[float] = 10e9,
        prop_delay: float = 500e-9,
        queue_bytes: int = DEFAULT_QUEUE_BYTES,
        ecn_threshold_bytes: int = DEFAULT_ECN_THRESHOLD_BYTES,
    ) -> None:
        self.link_rate_bps = link_rate_bps
        self.server_link_rate_bps = server_link_rate_bps
        self.prop_delay = prop_delay
        self.queue_bytes = queue_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes


class SimulatedNetwork:
    """Switches, hosts, and links instantiated from a topology."""

    def __init__(
        self,
        topology: Topology,
        routing: RoutingPolicy,
        engine: Engine,
        params: Optional[NetworkParams] = None,
    ) -> None:
        self.topology = topology
        self.routing = routing
        self.engine = engine
        self.params = params or NetworkParams()
        self.switches: Dict[int, Switch] = {}
        self.hosts: Dict[int, Host] = {}
        self.links: List[Link] = []
        self._build()

    def _build(self) -> None:
        p = self.params
        for s in self.topology.switches:
            self.switches[s] = Switch(s, self.routing)

        # Switch-to-switch links (two directions per cable); capacities in
        # the topology are multiples of the base link rate.
        for u, v, data in self.topology.graph.edges(data=True):
            rate = p.link_rate_bps * data.get("capacity", 1.0)
            for a, b in ((u, v), (v, u)):
                link = Link(
                    self.engine,
                    rate_bps=rate,
                    prop_delay=p.prop_delay,
                    sink=self.switches[b].receive,
                    queue_bytes=p.queue_bytes,
                    ecn_threshold_bytes=p.ecn_threshold_bytes,
                )
                self.switches[a].attach_switch_port(b, link)
                self.links.append(link)

        # Hosts and access links.  When the server-link rate is
        # unconstrained (None) we model a link fast enough to never be the
        # bottleneck and disable its marking/queueing effects.
        unconstrained = p.server_link_rate_bps is None
        host_rate = (
            p.link_rate_bps * 64 if unconstrained else p.server_link_rate_bps
        )
        host_ecn = None if unconstrained else p.ecn_threshold_bytes
        host_queue = 2**31 if unconstrained else p.queue_bytes
        for server_id, tor in self.topology.iter_server_ids():
            host = Host(server_id, tor, self.engine)
            self.hosts[server_id] = host
            up = Link(
                self.engine,
                rate_bps=host_rate,
                prop_delay=p.prop_delay,
                sink=self.switches[tor].receive,
                queue_bytes=host_queue,
                ecn_threshold_bytes=host_ecn,
            )
            host.uplink = up
            self.links.append(up)
            down = Link(
                self.engine,
                rate_bps=host_rate,
                prop_delay=p.prop_delay,
                sink=host.receive,
                queue_bytes=host_queue,
                ecn_threshold_bytes=host_ecn,
            )
            self.switches[tor].attach_host_port(server_id, down)
            self.links.append(down)

        for switch in self.switches.values():
            switch.compile()

    # ------------------------------------------------------------------
    @property
    def num_servers(self) -> int:
        """Number of hosts in the network."""
        return len(self.hosts)

    def total_drops(self) -> int:
        """Packets dropped at any queue so far."""
        return sum(l.dropped_packets for l in self.links)

    def total_marks(self) -> int:
        """Packets ECN-marked at any queue so far."""
        return sum(l.marked_packets for l in self.links)
