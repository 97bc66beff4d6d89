"""The pricer's tree decode against the per-demand numpy reference.

:meth:`repro.throughput.colgen._Pricer.tree_paths` reads predecessors
as Python ints (``pred.item``) through an O(m) arc lookup; the
reference in :mod:`tests.solvers.colgen_reference` walks numpy scalars
through a dense ``n x n`` arc table.  Both must return the same column
for every demand (``None`` where the destination is unreachable), and a
pool sweep built on either must leave the same pool, in the same order,
with byte-identical arc lengths — every colgen master is assembled from
that pool, so its bytes follow.
"""

import numpy as np
import pytest

from repro import registry
from repro.throughput.arcs import ArcTable
from repro.throughput.colgen import _mwu_sweep, _Pool, _Pricer
from repro.traffic import longest_matching_tm, permutation_tm

from .colgen_reference import ReferenceDecoder, reference_sweep
from .test_colgen import INSTANCES


def _length_sets(table, seed):
    rng = np.random.default_rng(seed)
    m = table.num_arcs
    return [
        1.0 / table.caps,
        rng.uniform(0.1, 1.0, m),
        # Ties everywhere: equal lengths leave many equal shortest paths.
        np.ones(m),
        # Zero-priced arcs, as congestion duals often are.
        np.where(rng.random(m) < 0.5, 0.0, rng.uniform(0.0, 1.0, m)),
    ]


def _assert_same_trees(pricer, seed):
    decoder = ReferenceDecoder(pricer)
    for lengths in _length_sets(pricer.table, seed):
        got, got_dist = pricer.tree_paths(lengths)
        want, want_dist = decoder.tree_paths(lengths)
        assert got == want
        assert got_dist.tobytes() == want_dist.tobytes()
    return got


def _assert_same_sweep(table, demands, phases=64):
    pool, ref_pool = _Pool(len(demands)), _Pool(len(demands))
    lengths = _mwu_sweep(_Pricer(table, demands), pool, table.caps, phases)
    ref_lengths = reference_sweep(
        _Pricer(table, demands), ref_pool, table.caps, phases
    )
    assert pool.cols == ref_pool.cols
    assert pool.owners == ref_pool.owners
    assert lengths.tobytes() == ref_lengths.tobytes()


@pytest.mark.parametrize("build", INSTANCES)
def test_tree_paths_and_sweep_match_reference(build):
    topo = build()
    table = ArcTable.from_topology(topo)
    demands = longest_matching_tm(topo, 1.0, seed=1).items()
    _assert_same_trees(_Pricer(table, demands), seed=len(demands))
    _assert_same_sweep(table, demands)


@pytest.mark.parametrize("fraction", [0.3, 0.6, 1.0])
def test_fluid_curve_colgen_point_matches_reference(fraction):
    topo = registry.topology("jellyfish:switches=32,degree=5,servers=3,seed=1")
    table = ArcTable.from_topology(topo)
    demands = longest_matching_tm(topo, fraction, seed=1).items()
    _assert_same_trees(_Pricer(table, demands), seed=7)
    _assert_same_sweep(table, demands, phases=max(64, len(demands)))


def test_unreachable_demands_decode_to_none():
    """Undropped demands across a partition: both decodes say ``None``."""
    topo = registry.failure("links:fraction=0.4,seed=1").apply(
        registry.topology("jellyfish:switches=16,degree=3,servers=2,seed=1")
    )
    assert not topo.is_connected()
    table = ArcTable.from_topology(topo)
    demands = permutation_tm(topo.switches, servers_per_tor=2, seed=1).items()
    paths = _assert_same_trees(_Pricer(table, demands), seed=3)
    assert None in paths
    assert any(paths)
    _assert_same_sweep(table, demands)
