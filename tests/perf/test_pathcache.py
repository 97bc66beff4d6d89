"""Tests for the shared per-topology path cache."""

import networkx as nx
import numpy as np
import pytest

from repro.perf import (
    PathCache,
    clear_shared_caches,
    shared_cache_stats,
    shared_path_cache,
    topology_content_hash,
)
from repro.perf.pathcache import _REGISTRY_MAX
from repro.throughput.paths import ecmp_next_hops, k_shortest_paths
from repro.topologies import fattree, jellyfish


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_shared_caches()
    yield
    clear_shared_caches()


def disconnected_graph():
    g = nx.Graph()
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(10, 11)  # separate component
    return g


class TestDistances:
    @pytest.mark.parametrize(
        "graph",
        [
            jellyfish(num_switches=12, network_ports=4, servers_per_switch=2, seed=1).graph,
            fattree(4).topology.graph,
            nx.cycle_graph(9),
        ],
    )
    def test_matches_networkx(self, graph):
        cache = PathCache(graph)
        d = cache.distances()
        for src, lengths in nx.all_pairs_shortest_path_length(graph):
            for dst, hops in lengths.items():
                assert d[cache.node_index[src], cache.node_index[dst]] == hops

    def test_disconnected_pairs_are_inf(self):
        cache = PathCache(disconnected_graph())
        assert cache.distance(0, 2) == 2
        assert cache.distance(0, 10) == float("inf")
        with pytest.raises(ValueError):
            cache.diameter()
        with pytest.raises(ValueError):
            cache.average_path_length()

    def test_diameter_and_apl_match_networkx(self):
        g = jellyfish(num_switches=14, network_ports=4, servers_per_switch=2, seed=5).graph
        cache = PathCache(g)
        assert cache.diameter() == nx.diameter(g)
        assert cache.average_path_length() == pytest.approx(
            nx.average_shortest_path_length(g), abs=1e-12
        )

    def test_hop_distance_distribution_sums_to_one(self):
        cache = PathCache(fattree(4).topology.graph)
        dist = cache.hop_distance_distribution()
        assert sum(dist.values()) == pytest.approx(1.0)
        assert min(dist) == 1


class TestEcmpTables:
    @pytest.mark.parametrize(
        "graph",
        [
            jellyfish(num_switches=16, network_ports=5, servers_per_switch=2, seed=3).graph,
            fattree(4).topology.graph,
            disconnected_graph(),
        ],
    )
    def test_identical_to_reference(self, graph):
        cache = PathCache(graph)
        tables = cache.ecmp_tables()
        for dst in graph.nodes():
            assert tables[dst] == ecmp_next_hops(graph, dst)

    def test_tables_cached_and_shared_by_reference(self):
        cache = PathCache(fattree(4).topology.graph)
        assert cache.ecmp_tables() is cache.ecmp_tables()


class TestKShortestPaths:
    def test_matches_reference_yen(self):
        g = jellyfish(num_switches=12, network_ports=4, servers_per_switch=2, seed=2).graph
        cache = PathCache(g)
        for src, dst in [(0, 5), (3, 11), (7, 1)]:
            assert cache.k_shortest_paths(src, dst, 4) == k_shortest_paths(
                g, src, dst, 4
            )

    def test_smaller_k_served_from_memo(self):
        g = fattree(4).topology.graph
        cache = PathCache(g)
        full = cache.k_shortest_paths(0, 3, 6)
        # Prefix requests must not recompute and must be consistent.
        assert cache.k_shortest_paths(0, 3, 2) == full[:2]
        assert (0, 3) in cache._ksp
        assert cache._ksp[(0, 3)][0] == 6

    def test_exhausted_pair_serves_any_k(self):
        g = nx.path_graph(4)  # exactly one simple path per pair
        cache = PathCache(g)
        assert cache.k_shortest_paths(0, 3, 5) == [[0, 1, 2, 3]]
        # 1 < 5 paths found => exhausted; a larger k is served from memo.
        assert cache.k_shortest_paths(0, 3, 50) == [[0, 1, 2, 3]]

    def test_returns_copies(self):
        cache = PathCache(nx.path_graph(3))
        first = cache.k_shortest_paths(0, 2, 1)
        first[0].append(99)
        assert cache.k_shortest_paths(0, 2, 1) == [[0, 1, 2]]


class TestContentHash:
    def test_capacity_independent(self):
        a = nx.cycle_graph(6)
        b = nx.cycle_graph(6)
        nx.set_edge_attributes(b, 7.5, "capacity")
        assert topology_content_hash(a) == topology_content_hash(b)

    def test_structure_sensitive(self):
        a = nx.cycle_graph(6)
        b = nx.path_graph(6)
        assert topology_content_hash(a) != topology_content_hash(b)

    def test_accepts_topology_and_graph(self):
        topo = fattree(4).topology
        assert topology_content_hash(topo) == topology_content_hash(topo.graph)

    def test_rejects_non_graphs(self):
        with pytest.raises(TypeError):
            topology_content_hash(42)

    def test_path_cache_key_is_pinned(self):
        """Persisted ``.npy`` / ``.json`` path caches are named by this
        hash: it must not drift, or every stored cache goes stale."""
        from repro import registry

        topo = registry.topology("fattree:k=4")
        assert topology_content_hash(topo) == (
            "76206d9af3a32855999c44cce793864dfbb97dd8e6235b36b020c38c438d0624"
        )

    def test_capacities_flag_covers_capacities(self):
        a = nx.cycle_graph(6)
        b = nx.cycle_graph(6)
        nx.set_edge_attributes(a, 1.0, "capacity")
        nx.set_edge_attributes(b, 7.5, "capacity")
        assert topology_content_hash(a, capacities=True) != (
            topology_content_hash(b, capacities=True)
        )
        assert topology_content_hash(a, capacities=True) != (
            topology_content_hash(a)
        )


class TestSharedRegistry:
    def test_equal_structure_shares_one_cache(self):
        t1 = jellyfish(num_switches=10, network_ports=3, servers_per_switch=2, seed=4)
        t2 = jellyfish(num_switches=10, network_ports=3, servers_per_switch=2, seed=4)
        assert shared_path_cache(t1) is shared_path_cache(t2.graph)

    def test_distinct_structure_distinct_cache(self):
        c1 = shared_path_cache(nx.cycle_graph(6))
        c2 = shared_path_cache(nx.path_graph(6))
        assert c1 is not c2

    def test_lru_bound(self):
        for n in range(3, 3 + _REGISTRY_MAX + 5):
            shared_path_cache(nx.cycle_graph(n))
        assert shared_cache_stats()["entries"] == _REGISTRY_MAX

    def test_construction_is_lazy(self, monkeypatch):
        """Construction hashes nothing and builds no adjacency; each is
        built when a structure first needs it."""
        from repro.perf import pathcache

        real = pathcache.topology_content_hash
        hashed = []

        def counting(graph, **kwargs):
            hashed.append(graph)
            return real(graph, **kwargs)

        monkeypatch.setattr(pathcache, "topology_content_hash", counting)
        g = jellyfish(num_switches=10, network_ports=3, servers_per_switch=2, seed=4).graph
        cache = PathCache(g)
        assert cache.k_shortest_paths(0, 7, 3) == k_shortest_paths(g, 0, 7, 3)
        assert hashed == [] and cache._adjacency is None
        assert cache.content_hash == real(g) and len(hashed) == 1
        assert cache.ecmp_next_hops(7) == ecmp_next_hops(g, 7)
        assert cache._adjacency is not None

    def test_clear(self):
        shared_path_cache(nx.cycle_graph(5))
        assert clear_shared_caches() >= 1
        assert shared_cache_stats()["entries"] == 0


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        g = jellyfish(num_switches=10, network_ports=3, servers_per_switch=2, seed=6).graph
        first = PathCache(g, persist_dir=str(tmp_path))
        d1 = first.distances().copy()
        first.k_shortest_paths(0, 7, 3)
        first.save()

        second = PathCache(g, persist_dir=str(tmp_path))
        # Distance matrix loaded from disk (no recompute needed).
        assert second._dist is not None
        np.testing.assert_array_equal(second.distances(), d1)
        # ECMP tables over a loaded matrix still build their arcs.
        assert second.ecmp_next_hops(7) == ecmp_next_hops(g, 7)
        assert (0, 7) in second._ksp
        assert second.k_shortest_paths(0, 7, 3) == first.k_shortest_paths(0, 7, 3)

    def test_corrupt_files_tolerated(self, tmp_path):
        g = nx.cycle_graph(8)
        probe = PathCache(g, persist_dir=str(tmp_path))
        (tmp_path / probe._dist_path().split("/")[-1]).write_bytes(b"not npy")
        (tmp_path / probe._ksp_path().split("/")[-1]).write_text("not json")
        cache = PathCache(g, persist_dir=str(tmp_path))
        assert cache.distances().shape == (8, 8)

    def test_stale_shape_rejected(self, tmp_path):
        small = nx.cycle_graph(4)
        cache = PathCache(small, persist_dir=str(tmp_path))
        cache.distances()
        # Force a wrong-shape file under the same name.
        import io

        import numpy as np_

        from repro.ioutils import atomic_write_bytes

        buf = io.BytesIO()
        np_.save(buf, np_.zeros((2, 2)))
        atomic_write_bytes(cache._dist_path(), buf.getvalue())
        fresh = PathCache(small, persist_dir=str(tmp_path))
        assert fresh._dist is None  # rejected, recomputed on demand
        assert fresh.distances().shape == (4, 4)


class TestRoutingIntegration:
    def test_routing_policy_shares_tables(self):
        from repro.sim.routing import EcmpRouting, VlbRouting

        g = jellyfish(num_switches=12, network_ports=4, servers_per_switch=2, seed=9).graph
        a = EcmpRouting(g)
        b = VlbRouting(g, seed=1)
        assert a._tables is b._tables  # one table set per topology

    def test_explicit_cache_accepted(self):
        from repro.sim.routing import KspRouting

        g = fattree(4).topology.graph
        cache = PathCache(g)
        pol = KspRouting(g, k=3, path_cache=cache)
        pol._path_set(0, 3)
        assert (0, 3) in cache._ksp
