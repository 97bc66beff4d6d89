"""``path_throughput`` pinned as literals.

The k-shortest-paths LP is a restricted column-generation master solved
once with pricing off.  These pins hold its throughput ``repr``, solver
iterations and a digest of the full per-arc utilization, so any change
to the master's column order, matrix layout or engine shows up as a
changed literal rather than a tolerance-sized drift.
"""

import hashlib

import pytest

from repro import obs
from repro.throughput import path_throughput
from repro.throughput.arcs import ArcTable
from repro.topologies import fattree, jellyfish
from repro.traffic import longest_matching_tm, permutation_tm


def _digest(utilization):
    blob = repr(sorted(utilization.items())).encode()
    return hashlib.sha256(blob).hexdigest()


PINS = [
    ("fattree4", 1, "0.25", 0,
     "7591b3b39c8f2832605915bf96cba6958be9c2bfcd179e693d8ccb74c7ac6861"),
    ("fattree4", 4, "1.0", 23,
     "35e08a7cf12c2b907311c5d0b479f5858ee58c7bdcfe5cef795468b9dce9a915"),
    ("fattree4", 8, "1.0", 41,
     "35e08a7cf12c2b907311c5d0b479f5858ee58c7bdcfe5cef795468b9dce9a915"),
    ("jellyfish20", 1, "0.16666666666666666", 0,
     "8cd4ecdf64e2f352aa2ffca3a65593c39c60362e72ad9ee475e676966e7e4418"),
    ("jellyfish20", 4, "0.35", 87,
     "cb8cdb41267e45e587a13851c28163e7c408a5bd290874de811add964e265057"),
    ("jellyfish20", 8, "0.35", 107,
     "f020e174e92d163b7d34dbda11b0b6d67c7469dcdf30564fb13a5d514e222ce0"),
]


def _topology(name):
    if name == "fattree4":
        return fattree(4).topology
    return jellyfish(20, 4, 2, seed=3)


@pytest.mark.parametrize("name,k,throughput,iterations,digest", PINS)
def test_longest_matching_pins(name, k, throughput, iterations, digest):
    topo = _topology(name)
    res = path_throughput(topo, longest_matching_tm(topo, 1.0, seed=0), k=k)
    assert repr(res.throughput) == throughput
    assert res.iterations == iterations
    assert res.disconnected_pairs == 0
    assert _digest(res.link_utilization) == digest


def test_partially_disconnected_pin():
    ft = fattree(4).topology
    tm = permutation_tm(ft.tors, 2, fraction=1.0, seed=0)
    degraded = ft.degrade("switches:fraction=0.2,seed=1,lcc=true")
    res = path_throughput(degraded, tm, k=4)
    assert repr(res.throughput) == "0.25"
    assert res.iterations == 13
    assert res.disconnected_pairs == 2
    assert _digest(res.link_utilization) == (
        "5fb3b8aed9d004c55bae963e6bd8dd2f5d3c58f5233e154d09bb8c660b1ee156"
    )


def test_obs_contract(monkeypatch):
    """One ``lp.calls``, ``lp.assemble`` / ``lp.solve`` spans tagged
    ``formulation="paths"``, no pricing or pool-building telemetry, and
    no Dijkstra structures built for pricing that never runs."""
    topo = _topology("jellyfish20")
    tm = longest_matching_tm(topo, 1.0, seed=0)
    csr_builds = []
    real = ArcTable.csr_structure
    monkeypatch.setattr(
        ArcTable, "csr_structure",
        lambda self: csr_builds.append(1) or real(self),
    )
    with obs.session():
        path_throughput(topo, tm, k=4)
        run = obs.current()
        spans = {(s["name"], s["attrs"].get("formulation")) for s in run.spans}
        counters = obs.snapshot()
    assert ("lp.assemble", "paths") in spans
    assert ("lp.solve", "paths") in spans
    assert not any(name.startswith("colgen.") for name, _ in spans)
    assert not any(name.startswith("colgen.") for name in counters)
    assert counters["lp.calls"]["value"] == 1
    assert csr_builds == []
