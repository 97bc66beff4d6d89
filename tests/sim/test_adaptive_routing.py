"""Tests for the congestion-aware hybrid (paper §6.3) and adaptive ECMP."""

import pytest

from repro import registry
from repro.sim import (
    AdaptiveEcmpRouting,
    CongestionHybRouting,
    NetworkParams,
    PacketSimulation,
    run_packet_experiment,
)
from repro.topologies import xpander
from repro.traffic import FlowSpec

FAST = NetworkParams(link_rate_bps=1e9)


@pytest.fixture(scope="module")
def xp():
    return xpander(4, 6, 4)


class TestCongestionHyb:
    def test_starts_on_ecmp(self, xp):
        r = CongestionHybRouting(xp.graph, ecn_mark_threshold=3)
        assert r.choose_via(1, 10**9, 0, 5) is None

    def test_switches_to_vlb_after_marks(self, xp):
        r = CongestionHybRouting(xp.graph, ecn_mark_threshold=3, seed=1)
        for _ in range(3):
            r.note_ecn(1)
        assert r.choose_via(1, 0, 0, 5) is not None
        # Other flows unaffected.
        assert r.choose_via(2, 0, 0, 5) is None

    def test_flow_done_releases_state(self, xp):
        r = CongestionHybRouting(xp.graph, ecn_mark_threshold=1)
        r.note_ecn(7)
        r.flow_done(7)
        assert r.choose_via(7, 0, 0, 5) is None

    def test_invalid_threshold(self, xp):
        with pytest.raises(ValueError):
            CongestionHybRouting(xp.graph, ecn_mark_threshold=0)

    def test_end_to_end_two_rack_congestion(self, xp):
        # Congested adjacent racks: CHYB should escape to VLB and beat
        # pure ECMP once the direct link saturates.
        u, v = next(iter(xp.graph.edges()))
        su, sv = xp.tor_to_servers()[u], xp.tor_to_servers()[v]
        flows = [
            FlowSpec(i, su[i % 4], sv[(i + 1) % 4], 200_000, 0.0002 * i)
            for i in range(24)
        ]
        ecmp = run_packet_experiment(
            xp, flows, routing="ecmp", measure_start=0.0, measure_end=0.01,
            network_params=FAST,
        )
        chyb = run_packet_experiment(
            xp, flows, routing="chyb", measure_start=0.0, measure_end=0.01,
            network_params=FAST,
        )
        assert chyb.num_unfinished == 0
        assert chyb.avg_fct() < ecmp.avg_fct()


class TestAdaptiveEcmp:
    def test_unbound_falls_back_to_hash(self, xp):
        r = AdaptiveEcmpRouting(xp.graph)
        from repro.sim import Packet

        pkt = Packet(flow_id=1, src_server=0, dst_server=1, dst_tor=0, flowlet=2)
        nh = r.next_hop(max(xp.switches), pkt)
        assert nh in xp.graph.neighbors(max(xp.switches))

    def test_binds_via_simulation(self, xp):
        sim = PacketSimulation(xp, routing="aecmp", network_params=FAST)
        assert sim.routing._switches is not None

    def test_end_to_end_completion(self, xp):
        flows = [FlowSpec(i, i, 70 + i, 50_000, 0.0001 * i) for i in range(8)]
        stats = run_packet_experiment(
            xp, flows, routing="aecmp", measure_start=0.0, measure_end=0.01,
            network_params=FAST,
        )
        assert stats.num_unfinished == 0

    def test_prefers_empty_queue(self, xp):
        # With one candidate's queue loaded, the other must be chosen.
        sim = PacketSimulation(xp, routing="aecmp", network_params=FAST)
        routing = sim.routing
        from repro.sim import Packet

        # Find a switch with >= 2 ECMP choices toward some destination.
        for dst in xp.switches:
            for v in xp.switches:
                choices = routing._tables[dst][v]
                if len(choices) >= 2:
                    loaded, other = choices[0], choices[1]
                    link = sim.network.switches[v].switch_ports[loaded]
                    # Three back-to-back packets: one in service, two waiting.
                    for seq in range(3):
                        link.send(Packet(
                            flow_id=9, src_server=0, dst_server=1,
                            dst_tor=dst, seq=seq * 1460, payload=1460,
                        ))
                    assert link.queue_occupancy_bytes > 0
                    pkt = Packet(
                        flow_id=3, src_server=0, dst_server=1, dst_tor=dst
                    )
                    nh = routing.next_hop(v, pkt)
                    assert nh != loaded
                    return
        pytest.skip("no multi-choice ECMP entry found")


class TestMakeRoutingNames:
    @pytest.mark.parametrize("name", ["ecmp", "vlb", "hyb", "chyb", "aecmp"])
    def test_all_names_construct(self, xp, name):
        policy = registry.routing(name, xp)
        assert policy.name in ("ecmp", "vlb", "hyb", "chyb", "aecmp", "base")
