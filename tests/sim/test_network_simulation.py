"""Integration tests for the network builder and the experiment runner."""

import pytest

from repro import registry
from repro.sim import NetworkParams, PacketSimulation, run_packet_experiment
from repro.sim.simulation import ROUTING_CHOICES
from repro.topologies import fattree, xpander
from repro.traffic import FlowSpec


@pytest.fixture(scope="module")
def ft():
    return fattree(4).topology  # 16 servers


FAST = NetworkParams(link_rate_bps=1e9)


class TestNetworkBuild:
    def test_host_and_switch_counts(self, ft):
        sim = PacketSimulation(ft, routing="ecmp", network_params=FAST)
        assert len(sim.network.hosts) == 16
        assert len(sim.network.switches) == 20

    def test_every_host_wired(self, ft):
        sim = PacketSimulation(ft, routing="ecmp", network_params=FAST)
        for host in sim.network.hosts.values():
            assert host.uplink is not None
            assert host.server_id in sim.network.switches[host.tor].host_ports

    def test_link_count(self, ft):
        sim = PacketSimulation(ft, routing="ecmp", network_params=FAST)
        # 2 per cable + 2 per server.
        assert len(sim.network.links) == 2 * ft.num_links + 2 * 16

    def test_make_routing_rejects_unknown(self, ft):
        with pytest.raises(ValueError) as exc_info:
            registry.routing("bogus", ft)
        message = str(exc_info.value)
        assert "'bogus'" in message
        for choice in ROUTING_CHOICES:
            assert choice in message

    def test_routing_choices_complete(self):
        assert ROUTING_CHOICES == ("aecmp", "chyb", "ecmp", "hyb", "ksp", "vlb")


class TestSingleFlowDelivery:
    @pytest.mark.parametrize("routing", ["ecmp", "vlb", "hyb"])
    def test_flow_completes_under_each_routing(self, ft, routing):
        flows = [FlowSpec(0, 0, 15, 50_000, 0.0)]
        stats = run_packet_experiment(
            ft, flows, routing=routing, measure_start=0.0, measure_end=0.01,
            network_params=FAST,
        )
        assert stats.num_unfinished == 0

    def test_fct_bounded_below_by_size(self, ft):
        size = 1_000_000
        flows = [FlowSpec(0, 0, 15, size, 0.0)]
        stats = run_packet_experiment(
            ft, flows, routing="ecmp", measure_start=0.0, measure_end=0.01,
            network_params=FAST,
        )
        fct = stats.records[0].fct
        assert fct >= size * 8 / 1e9

    def test_same_rack_flow(self, ft):
        flows = [FlowSpec(0, 0, 1, 20_000, 0.0)]  # both under ToR 0
        stats = run_packet_experiment(
            ft, flows, routing="ecmp", measure_start=0.0, measure_end=0.01,
            network_params=FAST,
        )
        assert stats.num_unfinished == 0

    def test_identical_endpoints_rejected(self, ft):
        sim = PacketSimulation(ft, routing="ecmp", network_params=FAST)
        with pytest.raises(ValueError):
            sim.inject([FlowSpec(0, 3, 3, 1000, 0.0)])


class TestDeterminism:
    def test_same_flows_same_results(self, ft):
        flows = [
            FlowSpec(i, i, 15 - i, 30_000 + 1000 * i, 0.0001 * i) for i in range(6)
        ]
        a = run_packet_experiment(
            ft, flows, routing="hyb", measure_start=0.0, measure_end=0.01,
            network_params=FAST, seed=3,
        )
        b = run_packet_experiment(
            ft, flows, routing="hyb", measure_start=0.0, measure_end=0.01,
            network_params=FAST, seed=3,
        )
        assert [r.fct for r in a.records] == [r.fct for r in b.records]


class TestMeasurementWindow:
    def test_only_window_flows_measured(self, ft):
        flows = [
            FlowSpec(0, 0, 15, 10_000, 0.000),
            FlowSpec(1, 1, 14, 10_000, 0.005),
            FlowSpec(2, 2, 13, 10_000, 0.050),
        ]
        stats = run_packet_experiment(
            ft, flows, routing="ecmp", measure_start=0.004, measure_end=0.01,
            network_params=FAST,
        )
        assert stats.num_flows == 1
        assert stats.records[0].flow_id == 1


class TestUnconstrainedServerLinks:
    def test_projector_mode_faster_than_constrained(self):
        # With server links unconstrained, many-to-one incast into one
        # host is absorbed by the huge access link (no server bottleneck).
        xp = xpander(3, 4, 4)
        senders = [1, 2, 3, 4, 5, 6]
        flows = [
            FlowSpec(i, s, 0, 200_000, 0.0) for i, s in enumerate(senders)
        ]
        constrained = run_packet_experiment(
            xp, flows, routing="ecmp", measure_start=0.0, measure_end=0.01,
            network_params=NetworkParams(link_rate_bps=1e9, server_link_rate_bps=1e9),
        )
        unconstrained = run_packet_experiment(
            xp, flows, routing="ecmp", measure_start=0.0, measure_end=0.01,
            network_params=NetworkParams(link_rate_bps=1e9, server_link_rate_bps=None),
        )
        assert unconstrained.avg_fct() < constrained.avg_fct()


class TestVlbVsEcmpSingleFlow:
    def test_both_complete_with_comparable_fct(self, ft):
        # One isolated flow on an idle fat-tree: ECMP and VLB both have
        # ample path diversity, so FCTs should be within a small factor
        # (VLB pays a detour, but flowlet-level multipathing can offset it).
        flows = [FlowSpec(0, 0, 15, 200_000, 0.0)]
        ecmp = run_packet_experiment(
            ft, flows, routing="ecmp", measure_start=0.0, measure_end=0.01,
            network_params=FAST,
        )
        vlb = run_packet_experiment(
            ft, flows, routing="vlb", measure_start=0.0, measure_end=0.01,
            network_params=FAST, seed=1,
        )
        assert ecmp.num_unfinished == 0 and vlb.num_unfinished == 0
        ratio = vlb.avg_fct() / ecmp.avg_fct()
        assert 0.3 < ratio < 3.0
