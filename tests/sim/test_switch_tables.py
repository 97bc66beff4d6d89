"""Compiled forwarding tables against the routing policy's ``next_hop``.

A switch whose policy does not override :meth:`RoutingPolicy.next_hop`
forwards from a table compiled at build time.  This sweeps every switch,
every target (including a failed switch), a flow/flowlet grid and four
kinds of VLB intermediate (none, the switch itself, one it can reach,
one it cannot) and checks that the switch's choice is exactly what
``next_hop`` picks: the same outgoing link, the same ``RouteNotFound``
message, and the same ``via_tor`` left on the packet.
"""

from __future__ import annotations

import math

import pytest

import repro.sim.network as network_module
from repro import registry
from repro.sim import Engine, Packet
from repro.sim.network import SimulatedNetwork
from repro.sim.routing import RouteNotFound, RoutingPolicy

from . import packet_fct

_FLOWS = (0, 1, 7, 12_345, 2**31 - 1)
_FLOWLETS = (0, 1, 5)
_ROUTINGS = ("ecmp", "vlb", "hyb", "chyb")


class _RecordingLink:
    """Stands in for a Link: remembers that it was handed a packet."""

    last = None

    def __init__(self, engine, rate_bps, prop_delay, sink, **_):
        pass

    def send(self, packet):
        _RecordingLink.last = self


def _jellyfish_degraded():
    topo = registry.topology("jellyfish:switches=16,degree=3,servers=2,seed=1")
    degraded = registry.failure("links:fraction=0.4,seed=1").apply(topo)
    degraded = registry.failure("switches:count=1,seed=1").apply(degraded)
    assert not degraded.is_connected()
    assert degraded.failed_switches
    return topo, degraded


def _topologies():
    fattree = registry.topology("fattree:k=4")
    xpander = registry.topology(packet_fct.SYSTEMS["xpander"][0])
    return {
        "fattree-k4": (fattree, fattree),
        "xpander": (xpander, xpander),
        "jellyfish-degraded": _jellyfish_degraded(),
    }


_TOPOLOGIES = _topologies()


def _reference(switch, packet):
    """Where ``Switch.receive`` sent a packet before tables were compiled."""
    if packet.dst_tor == switch.switch_id and (
        packet.via_tor is None or packet.via_tor == switch.switch_id
    ):
        packet.via_tor = None
        return ("host", packet.dst_server)
    try:
        nxt = switch.routing.next_hop(switch.switch_id, packet)
    except RouteNotFound as exc:
        return ("unroutable", str(exc))
    return ("link", switch.switch_ports[nxt])


def _compiled(switch, packet):
    _RecordingLink.last = None
    try:
        switch.receive(packet)
    except RouteNotFound as exc:
        return ("unroutable", str(exc))
    link = _RecordingLink.last
    for server, port in switch.host_ports.items():
        if port is link:
            return ("host", server)
    return ("link", link)


def _vias(routing, switch_id, live, all_ids):
    """None, the switch itself, one reachable and one unreachable
    intermediate (a dead or cut-off switch, else an unknown id)."""
    distance = routing._path_cache.distance
    reachable = [
        v for v in live
        if v != switch_id and distance(switch_id, v) != math.inf
    ]
    unreachable = [
        v for v in all_ids
        if v not in live or distance(switch_id, v) == math.inf
    ]
    vias = [None, switch_id]
    if reachable:
        vias.append(reachable[switch_id % len(reachable)])
    vias.append(unreachable[0] if unreachable else max(all_ids) + 1)
    return vias


@pytest.mark.parametrize("routing_name", _ROUTINGS)
@pytest.mark.parametrize("topo_name", sorted(_TOPOLOGIES))
def test_compiled_table_matches_next_hop(topo_name, routing_name, monkeypatch):
    base, topo = _TOPOLOGIES[topo_name]
    monkeypatch.setattr(network_module, "Link", _RecordingLink)
    routing = registry.routing(routing_name, topo, seed=1)
    network = SimulatedNetwork(topo, routing, Engine())
    all_ids = sorted(base.switches)
    live = set(topo.switches)
    servers = {tor: ids[0] for tor, ids in topo.tor_to_servers().items() if ids}
    outcomes = set()
    for switch_id, switch in sorted(network.switches.items()):
        assert switch._table is not None
        for target in all_ids:
            server = servers.get(target, -1)
            for via in _vias(routing, switch_id, live, all_ids):
                for flow in _FLOWS:
                    for flowlet in _FLOWLETS:
                        got_packet, want_packet = (
                            Packet(
                                flow, 0, server, target, flowlet=flowlet,
                                via_tor=via,
                            )
                            for _ in range(2)
                        )
                        if target == switch_id and server == -1 and (
                            via is None or via == switch_id
                        ):
                            continue  # delivery to a ToR with no servers
                        want = _reference(switch, want_packet)
                        got = _compiled(switch, got_packet)
                        assert got == want, (switch_id, target, via, flow, flowlet)
                        assert got_packet.via_tor == want_packet.via_tor
                        outcomes.add(want[0])
    # Even on a connected topology a packet is unroutable at its own
    # destination ToR while it still carries an unreachable intermediate.
    assert outcomes == {"host", "link", "unroutable"}


@pytest.mark.parametrize(
    "routing_name, compiled",
    [("ecmp", True), ("hyb", True), ("ksp", True), ("aecmp", False)],
)
def test_only_policies_keeping_next_hop_compile(routing_name, compiled):
    topo = registry.topology("fattree:k=4")
    routing = registry.routing(routing_name, topo, seed=1)
    assert (type(routing).next_hop is RoutingPolicy.next_hop) is compiled
    network = SimulatedNetwork(topo, routing, Engine())
    for switch in network.switches.values():
        assert (switch._table is not None) is compiled
