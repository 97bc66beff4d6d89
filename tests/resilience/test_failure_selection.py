"""Random failure selection, pinned as literals.

Cached results key on the failure spec, not on the failed elements, so
``links:fraction=…`` and ``switches:fraction=…`` must keep selecting
the same cables and switches for a given seed.  The literals below are
the degraded ``name``, sorted surviving edge list and
``failed_switches`` of ``xpander(4, 6, 2)`` under three scenarios.
"""

import pytest

from repro.resilience import FailureScenario
from repro.topologies import xpander

_PINNED = {
    "links:fraction=0.2,seed=1": (
        "xpander(d=4,lift=6,shift)-linkfail(12)",
        [
            (0, 7), (0, 14), (0, 21), (0, 28), (1, 15), (1, 22), (2, 16),
            (2, 23), (2, 24), (3, 10), (3, 17), (3, 18), (3, 25), (4, 12),
            (4, 19), (4, 26), (5, 6), (5, 13), (5, 20), (5, 27), (6, 17),
            (6, 19), (6, 27), (7, 12), (7, 28), (8, 29), (9, 14), (9, 22),
            (9, 24), (10, 23), (10, 25), (11, 16), (11, 18), (11, 26),
            (12, 23), (12, 26), (13, 18), (13, 27), (14, 19), (14, 28),
            (15, 29), (16, 21), (17, 22), (17, 25), (20, 27), (21, 28),
            (22, 29), (23, 24),
        ],
        (),
    ),
    "links:fraction=0.3,seed=5": (
        "xpander(d=4,lift=6,shift)-linkfail(18)",
        [
            (0, 7), (0, 21), (1, 8), (1, 15), (1, 22), (2, 9), (2, 16),
            (2, 24), (3, 10), (3, 17), (3, 18), (4, 12), (4, 19), (4, 26),
            (5, 6), (5, 13), (6, 17), (6, 19), (6, 27), (7, 12), (7, 20),
            (8, 13), (8, 21), (8, 29), (9, 22), (9, 24), (10, 15), (10, 23),
            (10, 25), (11, 18), (12, 23), (12, 26), (13, 27), (14, 19),
            (15, 20), (15, 29), (17, 22), (18, 25), (19, 26), (20, 27),
            (22, 29), (23, 24),
        ],
        (),
    ),
    "switches:fraction=0.25,seed=2": (
        "xpander(d=4,lift=6,shift)-swfail(8)",
        [
            (0, 7), (0, 14), (0, 28), (3, 10), (3, 17), (3, 18), (3, 25),
            (4, 12), (4, 19), (6, 17), (6, 19), (7, 12), (7, 20), (7, 28),
            (8, 13), (9, 14), (9, 22), (9, 24), (10, 15), (10, 23),
            (10, 25), (12, 23), (13, 18), (14, 19), (14, 28), (15, 20),
            (16, 24), (17, 22), (17, 25), (18, 25), (23, 24),
        ],
        (1, 2, 5, 11, 21, 26, 27, 29),
    ),
}


@pytest.fixture()
def topo():
    return xpander(4, 6, 2)


@pytest.mark.parametrize("spec", sorted(_PINNED))
def test_random_selection_is_pinned(topo, spec):
    name, edges, failed_switches = _PINNED[spec]
    degraded = topo.degrade(spec)
    assert degraded.name == name
    assert sorted(tuple(sorted(e)) for e in degraded.graph.edges()) == edges
    assert degraded.failed_switches == failed_switches


def test_degraded_topology_carries_provenance(topo):
    degraded = topo.degrade("links:fraction=0.1,seed=1")
    assert degraded.scenario == FailureScenario(mode="links", fraction=0.1, seed=1)
    assert degraded.base_links == topo.num_links
    assert len(degraded.failed_links) == round(0.1 * topo.num_links)
