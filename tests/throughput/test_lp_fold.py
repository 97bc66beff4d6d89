"""The mirror-folded exact LP, checked against the unfolded one.

A symmetric TM (every demand ``s -> d`` equal to ``d -> s``) on cables
with one capacity for both directions has a mirror-symmetric optimum,
so :class:`~repro.throughput.lp.EdgeLpContext` routes only the pairs
``s < d`` and keeps one capacity row per cable.  Three checks:

* its ``t`` is within 1e-9 of the unfolded LP
  (:func:`.lp_reference.unfolded_exact`) on the 50-instance grid of
  ``test_incremental``, on all-to-all and on bidirectional permutations;
* a certificate that trusts nothing HiGHS says: the full flow rebuilt
  from the folded solution (each kept commodity plus its reverse)
  conserves flow at every node, delivers ``t`` times each demand in
  both directions and loads every directed arc within its capacity, and
  the reported ``link_utilization`` is exactly that load;
* an asymmetric TM solves the unfolded LP: the solution bytes equal the
  oracle's.
"""

import numpy as np
import pytest

from repro.throughput import EdgeLpContext, highs, max_concurrent_throughput
from repro.topologies import fattree, jellyfish, xpander
from repro.traffic import (
    TrafficMatrix,
    all_to_all_tm,
    longest_matching_tm,
    permutation_tm,
)

from ..solvers.test_incremental import INSTANCES, LOAD_GRID, _uneven
from .lp_reference import unfolded_exact

TOL = 1e-9

pytestmark = pytest.mark.skipif(
    not highs.have_highs_core(), reason="needs scipy's bundled HiGHS core"
)


def _solve_recorded(monkeypatch, topo, tm):
    """``max_concurrent_throughput`` plus the ``(x, caps)`` it handed
    to HiGHS."""
    real = highs.solve
    calls = []

    def recording(cost, matrix, caps, **kwargs):
        out = real(cost, matrix, caps, **kwargs)
        calls.append((out.x, caps))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(highs, "solve", recording)
        result = max_concurrent_throughput(topo, tm)
    (call,) = calls
    return result, call


def _arcs(topo):
    """Both orientations of every cable, in graph edge order."""
    arcs, caps = [], []
    for u, v, data in topo.graph.edges(data=True):
        arcs += [(u, v), (v, u)]
        caps += [data["capacity"]] * 2
    return arcs, np.asarray(caps)


def _net_outflow(arcs, flow):
    """Per node: flow out minus flow in."""
    net = {}
    for (u, v), f in zip(arcs, flow):
        net[u] = net.get(u, 0.0) + f
        net[v] = net.get(v, 0.0) - f
    return net


def _certify(topo, tm, x, result):
    """Rebuild the full flow of a folded solution and check it."""
    arcs, caps = _arcs(topo)
    m = len(arcs)
    index = {a: i for i, a in enumerate(arcs)}
    mirror = np.asarray([index[(v, u)] for u, v in arcs])
    dests = sorted({d for s, d in tm.demands if s < d})
    assert x.size == len(dests) * m + 1
    t = x[-1]
    assert t == result.throughput
    assert np.all(x >= -TOL)
    flows = x[:-1].reshape(len(dests), m)
    load = np.zeros(m)
    for d, forward in zip(dests, flows):
        reverse = forward[mirror]  # the mirrored commodity, out of d
        to_d = {s: val for (s, dd), val in tm.demands.items() if dd == d and s < d}
        # The mirror reads the TM's own d -> s entries.
        from_d = {v: tm.demands[(d, v)] for v in to_d}
        out_fwd = _net_outflow(arcs, forward)
        out_rev = _net_outflow(arcs, reverse)
        for v in topo.switches:
            sent = to_d.get(v, 0.0) if v != d else -sum(to_d.values())
            got = from_d.get(v, 0.0) if v != d else -sum(from_d.values())
            assert abs(out_fwd.get(v, 0.0) - t * sent) <= TOL
            assert abs(out_rev.get(v, 0.0) + t * got) <= TOL
        load += forward + reverse
    assert np.all(load <= caps + TOL)
    reported = np.asarray([result.link_utilization[a] for a in arcs]) * caps
    assert np.allclose(reported, load, rtol=0, atol=TOL)


def _symmetric_tms(topo):
    servers = max(topo.servers_at(tor) for tor in topo.tors)
    base = longest_matching_tm(topo, 1.0, seed=1)
    return [base.scaled(s) for s in LOAD_GRID] + [
        all_to_all_tm(topo.tors, servers, fraction=0.6, seed=2),
        permutation_tm(topo.tors, servers, fraction=1.0, seed=3),
    ]


@pytest.mark.parametrize(
    "build",
    INSTANCES + [pytest.param(lambda: fattree(4).topology, id="fattree")],
)
def test_folded_matches_unfolded_and_certifies(monkeypatch, build):
    topo = build()
    for tm in _symmetric_tms(topo):
        result, (x, caps) = _solve_recorded(monkeypatch, topo, tm)
        assert caps.size == topo.graph.number_of_edges()
        oracle = unfolded_exact(topo, tm)
        assert abs(result.throughput - oracle.throughput) <= TOL
        _certify(topo, tm, x, result)


def _asymmetric_tms(topo):
    tors = topo.tors
    base = longest_matching_tm(topo, 1.0, seed=1)
    return {
        "one-way-permutation": permutation_tm(
            tors, 2, fraction=1.0, seed=4, bidirectional=False
        ),
        "single-demand": TrafficMatrix({(tors[0], tors[-1]): 1.5}),
        "per-ordered-pair-rescale": _uneven(base, 5, mirrored=False),
        "one-direction-off": TrafficMatrix(
            {
                pair: val * (1.25 if i == 0 else 1.0)
                for i, (pair, val) in enumerate(base.demands.items())
            }
        ),
    }


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: jellyfish(12, 4, 2, seed=3), id="jellyfish"),
        pytest.param(lambda: xpander(4, 6, 2, seed=0), id="xpander"),
        pytest.param(lambda: fattree(4).topology, id="fattree"),
    ],
)
def test_asymmetric_tms_solve_the_unfolded_lp(monkeypatch, build):
    topo = build()
    for name, tm in _asymmetric_tms(topo).items():
        result, (x, caps) = _solve_recorded(monkeypatch, topo, tm)
        oracle = unfolded_exact(topo, tm)
        assert caps.size == 2 * topo.graph.number_of_edges(), name
        assert x.tobytes() == oracle.x.tobytes(), name
        assert result.throughput == oracle.throughput, name
        assert result.iterations == oracle.iterations, name


def test_fold_and_unfolded_structures_are_kept_apart():
    """A symmetric TM and an asymmetric one with the same ``s < d`` half
    key different structures in one warm context."""
    topo = jellyfish(12, 4, 2, seed=3)
    sym = longest_matching_tm(topo, 1.0, seed=1)
    half = TrafficMatrix({(s, d): v for (s, d), v in sym.demands.items() if s < d})
    context = EdgeLpContext(topo)
    flags = {}
    folded = context.solve(sym, flags=flags)
    assert not flags["warm_started"]
    one_way = context.solve(half, flags=flags)
    assert not flags["warm_started"]
    assert context.stats()["structures"] == 2
    assert folded.throughput == max_concurrent_throughput(topo, sym).throughput
    assert one_way.throughput == unfolded_exact(topo, half).throughput
