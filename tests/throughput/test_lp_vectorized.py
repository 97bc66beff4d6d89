"""Equivalence of the vectorized LP assembly with the reference loops."""

import random

import networkx as nx
import numpy as np
import pytest

from repro.perf import PathCache, clear_shared_caches
from repro.throughput import max_concurrent_throughput, path_throughput
from repro.throughput.arcs import ArcTable
from repro.throughput.lp import (
    _assemble_exact_vectorized,
    _demands_by_destination,
)
from repro.topologies import Topology, jellyfish
from repro.traffic import TrafficMatrix, permutation_tm

from .lp_reference import assemble_exact_reference


def random_topology(rng, n=None):
    n = n or rng.randint(5, 14)
    while True:
        g = nx.gnp_random_graph(n, 0.45, seed=rng.randint(0, 10**6))
        if nx.is_connected(g):
            break
    for u, v in g.edges():
        g.edges[u, v]["capacity"] = rng.choice([0.5, 1.0, 2.0, 4.0])
    return Topology(f"rand{n}", g, {v: rng.randint(1, 3) for v in g.nodes()})


def random_tm(rng, topo, flows=None):
    nodes = list(topo.graph.nodes())
    flows = flows or rng.randint(1, 8)
    demands = {}
    for _ in range(flows):
        s, d = rng.sample(nodes, 2)
        demands[(s, d)] = rng.choice([0.5, 1.0, 2.0, 3.0])
    return TrafficMatrix(demands)


class TestExactAssemblyEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_matrices_identical(self, seed):
        rng = random.Random(seed)
        topo = random_topology(rng)
        tm = random_tm(rng, topo)
        table = ArcTable.from_topology(topo)
        dests, demand_to = _demands_by_destination(tm)

        a_eq_r, b_eq_r, a_ub_r = assemble_exact_reference(table, dests, demand_to)
        a_eq_v, b_eq_v, a_ub_v = _assemble_exact_vectorized(table, dests, demand_to)

        # Canonical CSR comparison: structure AND values must agree
        # exactly, so the solver sees byte-identical problems.
        assert (a_eq_r != a_eq_v).nnz == 0
        assert (a_ub_r != a_ub_v).nnz == 0
        np.testing.assert_array_equal(b_eq_r, b_eq_v)

    @pytest.mark.parametrize("seed", range(8))
    def test_optima_match(self, seed):
        rng = random.Random(100 + seed)
        topo = random_topology(rng)
        tm = random_tm(rng, topo)
        res = max_concurrent_throughput(topo, tm)
        assert res.throughput >= 0.0

    def test_jellyfish_permutation(self):
        topo = jellyfish(
            num_switches=10, network_ports=4, servers_per_switch=2, seed=1
        )
        tm = permutation_tm(topo.switches, servers_per_tor=2, seed=0)
        res = max_concurrent_throughput(topo, tm)
        assert 0.0 < res.throughput


class TestPathThroughputCache:
    def test_shared_cache_is_used_and_result_unchanged(self):
        clear_shared_caches()
        topo = jellyfish(
            num_switches=10, network_ports=4, servers_per_switch=2, seed=2
        )
        tm = permutation_tm(topo.switches, servers_per_tor=2, seed=1)
        base = path_throughput(topo, tm, k=4)

        cache = PathCache(topo.graph)
        again = path_throughput(topo, tm, k=4, path_cache=cache)
        assert again.throughput == pytest.approx(base.throughput, abs=1e-12)
        assert cache._ksp  # the explicit cache actually served the paths

        # Second call with warmed cache: identical result.
        warm = path_throughput(topo, tm, k=4, path_cache=cache)
        assert warm.throughput == pytest.approx(base.throughput, abs=1e-12)

    def test_path_vs_exact_bound(self):
        # Path-restricted LP can never beat the exact LP.
        topo = jellyfish(
            num_switches=8, network_ports=3, servers_per_switch=2, seed=3
        )
        tm = permutation_tm(topo.switches, servers_per_tor=2, seed=2)
        exact = max_concurrent_throughput(topo, tm)
        restricted = path_throughput(topo, tm, k=3)
        assert restricted.throughput <= exact.throughput + 1e-9
