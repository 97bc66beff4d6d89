"""Registry-built objects match what the legacy constructors produce.

The string/mapping spec front door (:mod:`repro.registry`) must be a
pure re-routing of the old direct constructors: same graphs, same
traffic matrices, same routing policies, bit-for-bit, for fixed seeds.
"""

import pytest

from repro import registry
from repro.topologies import fattree, jellyfish, xpander
from repro.traffic import longest_matching_tm, permute_pair_distribution


def _same_graph(a, b):
    return (
        set(a.graph.nodes) == set(b.graph.nodes)
        and set(map(frozenset, a.graph.edges)) == set(map(frozenset, b.graph.edges))
        and a.servers_per_switch == b.servers_per_switch
    )


class TestTopologyEquivalence:
    def test_jellyfish_mapping_spec(self):
        built = registry.topology(
            {"family": "jellyfish", "switches": 10, "degree": 4,
             "servers": 2, "seed": 3}
        )
        direct = jellyfish(10, 4, 2, seed=3)
        assert _same_graph(built, direct)

    def test_jellyfish_string_spec(self):
        built = registry.topology("jellyfish:switches=10,degree=4,servers=2,seed=3")
        direct = jellyfish(10, 4, 2, seed=3)
        assert _same_graph(built, direct)

    def test_fattree(self):
        topo, raw = registry.build_topology({"family": "fattree", "k": 4})
        direct = fattree(4)
        assert _same_graph(topo, direct.topology)
        assert raw is not None  # FatTree wrapper kept for cabling

    def test_xpander(self):
        built = registry.topology(
            {"family": "xpander", "degree": 4, "lift": 5, "servers": 2}
        )
        direct = xpander(4, 5, 2)
        assert _same_graph(built, direct)

    def test_unknown_family_is_clean_error(self):
        with pytest.raises(registry.RegistryError, match="disco"):
            registry.topology({"family": "disco"})


class TestTrafficEquivalence:
    def test_longest_matching_tm(self):
        topo = jellyfish(10, 4, 2, seed=1)
        built = registry.traffic(
            {"pattern": "longest_matching", "fraction": 1.0, "seed": 2}, topo
        )
        direct = longest_matching_tm(topo, 1.0, seed=2)
        assert built.demands == direct.demands

    def test_permute_pair_weights_match(self):
        topo = jellyfish(10, 4, 2, seed=1)
        built = registry.traffic(
            {"pattern": "permute", "fraction": 0.5, "seed": 4}, topo
        )
        direct = permute_pair_distribution(topo, 0.5, seed=4)
        assert built.pair_weights == direct.pair_weights
        assert built.tor_to_servers == direct.tor_to_servers


class TestRoutingEquivalence:
    def test_ecmp_matches_legacy_entry_point(self):
        from repro.sim import EcmpRouting, PacketSimulation

        topo = jellyfish(8, 4, 2, seed=1)
        built = registry.routing("ecmp", topo)
        assert type(built) is EcmpRouting
        # A routing name handed to the simulator goes through the registry.
        assert type(PacketSimulation(topo, routing="ecmp").routing) is EcmpRouting

    def test_defaults_fill_but_do_not_override(self):
        topo = jellyfish(8, 4, 2, seed=1)
        built = registry.routing("ksp:k=3", topo, k=5)
        assert built.k == 3
        filled = registry.routing("ksp", topo, k=5)
        assert filled.k == 5


class TestSpecParsing:
    def test_string_spec_types(self):
        name, params = registry.parse_spec("jellyfish:switches=8,frac=0.5,flag=true,mode=shift")
        assert name == "jellyfish"
        assert params == {"switches": 8, "frac": 0.5, "flag": True,
                          "mode": "shift"}

    def test_malformed_spec_rejected(self):
        with pytest.raises(registry.RegistryError):
            registry.parse_spec("jellyfish:switches")
        with pytest.raises(registry.RegistryError):
            registry.parse_spec(":k=4")
        with pytest.raises(registry.RegistryError):
            registry.parse_spec(12)
