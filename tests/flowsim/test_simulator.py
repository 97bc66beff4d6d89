"""Tests for the flow-level simulator."""

import pytest

from repro.flowsim import FlowLevelSimulation, run_flow_experiment
from repro.topologies import fattree, xpander
from repro.traffic import FlowSpec


@pytest.fixture(scope="module")
def ft():
    return fattree(4).topology


class TestSingleFlow:
    def test_fct_is_serialization_time(self, ft):
        flows = [FlowSpec(0, 0, 15, 1_000_000, 0.0)]
        stats = run_flow_experiment(ft, flows, link_rate_bps=1e9)
        # One flow at line rate: FCT = size * 8 / rate exactly.
        assert stats.records[0].fct == pytest.approx(8e-3)

    def test_server_link_bottleneck(self, ft):
        flows = [FlowSpec(0, 0, 15, 1_000_000, 0.0)]
        stats = run_flow_experiment(
            ft, flows, link_rate_bps=10e9, server_link_rate_bps=1e9
        )
        assert stats.records[0].fct == pytest.approx(8e-3)

    def test_unconstrained_server_links(self, ft):
        flows = [FlowSpec(0, 0, 15, 1_000_000, 0.0)]
        stats = run_flow_experiment(
            ft, flows, link_rate_bps=1e9, server_link_rate_bps=None
        )
        assert stats.records[0].fct == pytest.approx(8e-3)


class TestSharing:
    def test_two_flows_same_bottleneck(self, ft):
        # Both flows leave server 0: its access link is the bottleneck.
        flows = [
            FlowSpec(0, 0, 15, 1_000_000, 0.0),
            FlowSpec(1, 0, 14, 1_000_000, 0.0),
        ]
        stats = run_flow_experiment(ft, flows, link_rate_bps=1e9)
        fcts = sorted(r.fct for r in stats.records)
        # Shared at 0.5 Gbps until the first finishes: both around 16ms/12ms.
        assert fcts[0] == pytest.approx(16e-3, rel=0.05)

    def test_serial_flows_do_not_interact(self, ft):
        flows = [
            FlowSpec(0, 0, 15, 125_000, 0.0),  # done at 1ms
            FlowSpec(1, 0, 15, 125_000, 0.005),
        ]
        stats = run_flow_experiment(ft, flows, link_rate_bps=1e9)
        for r in stats.records:
            assert r.fct == pytest.approx(1e-3)


class TestRoutingModes:
    @pytest.mark.parametrize("routing", ["ecmp", "vlb", "hyb"])
    def test_all_modes_complete(self, ft, routing):
        flows = [FlowSpec(i, i, 15 - i, 500_000, 0.0) for i in range(4)]
        stats = run_flow_experiment(ft, flows, routing=routing, link_rate_bps=1e9)
        assert stats.num_unfinished == 0

    def test_invalid_routing_rejected(self, ft):
        with pytest.raises(ValueError):
            FlowLevelSimulation(ft, routing="bogus")

    def test_hyb_short_flows_take_shortest_path(self):
        # In HYB mode flows under Q go via ECMP (no detour): on an
        # adjacent-rack pair the fluid FCT equals the direct-path time.
        xp = xpander(3, 4, 2)
        u, v = next(iter(xp.graph.edges()))
        servers_u = xp.tor_to_servers()[u]
        servers_v = xp.tor_to_servers()[v]
        flows = [FlowSpec(0, servers_u[0], servers_v[0], 50_000, 0.0)]
        stats = run_flow_experiment(xp, flows, routing="hyb", link_rate_bps=1e9)
        assert stats.records[0].fct == pytest.approx(50_000 * 8 / 1e9)


class TestSameTorFlows:
    def test_simultaneous_infinite_rate_flows_complete(self):
        # Servers 0 and 1 share ToR 0, so with unconstrained server
        # links both flows have empty paths and infinite rate.  The
        # second arrival is a zero-length advance: it must not turn the
        # first flow's remaining bytes into inf * 0 = nan.
        from repro import registry

        topo = registry.topology("jellyfish:switches=8,degree=3,servers=2,seed=1")
        assert topo.server_to_tor()[0] == topo.server_to_tor()[1]
        flows = [
            FlowSpec(0, 0, 1, 10_000, 0.001),
            FlowSpec(1, 1, 0, 10_000, 0.001),
        ]
        stats = run_flow_experiment(topo, flows, server_link_rate_bps=None)
        assert [(r.finished, r.completion_time) for r in stats.records] == [
            (True, 0.001),
            (True, 0.001),
        ]


class TestMeasurementWindow:
    def test_window_filtering(self, ft):
        flows = [
            FlowSpec(0, 0, 15, 10_000, 0.0),
            FlowSpec(1, 1, 14, 10_000, 0.02),
        ]
        stats = run_flow_experiment(
            ft, flows, measure_start=0.01, measure_end=0.03, link_rate_bps=1e9
        )
        assert stats.num_flows == 1
        assert stats.records[0].flow_id == 1


class TestAgreementWithPacketSim:
    def test_uncongested_fct_close_to_packet_level(self, ft):
        # On an idle network the fluid FCT should be a tight lower bound
        # on the packet simulator's (which adds slow start + RTT).
        from repro.sim import NetworkParams, run_packet_experiment

        flows = [FlowSpec(0, 0, 15, 2_000_000, 0.0)]
        fluid = run_flow_experiment(ft, flows, link_rate_bps=1e9)
        packet = run_packet_experiment(
            ft, flows, routing="ecmp", measure_start=0.0, measure_end=0.01,
            network_params=NetworkParams(link_rate_bps=1e9, server_link_rate_bps=1e9),
        )
        assert fluid.avg_fct() <= packet.avg_fct()
        assert packet.avg_fct() < 2.0 * fluid.avg_fct()
