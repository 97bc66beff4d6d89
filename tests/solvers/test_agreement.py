"""Cross-backend agreement on seeded instances (the ISSUE's property test).

``highs-batched`` in ``mode=fallback`` must be byte-identical to
``highs-exact`` — they share one LP implementation, so any drift is a
refactoring bug.  (With ``mode=core`` it re-solves from simplex bases
on scipy's bundled HiGHS core instead; that path keeps the 1e-9 bound
of ``tests/solvers/test_incremental.py``.)  ``mcf-approx``
carries the Garg–Könemann guarantee: at accuracy ``epsilon`` the returned
throughput is within ``(1 - epsilon')`` of optimal for a small
``epsilon'`` polynomial in ``epsilon``; we assert the documented
conservative envelope ``approx >= (1 - 4 * epsilon) * exact``.
"""

import pytest

from repro import registry
from repro.throughput import max_concurrent_throughput
from repro.topologies import fattree, jellyfish, xpander
from repro.traffic import longest_matching_tm

EPSILON = 0.05

INSTANCES = [
    pytest.param(lambda: jellyfish(12, 4, 2, seed=3), id="jellyfish"),
    pytest.param(lambda: xpander(4, 6, 3, seed=0), id="xpander"),
    pytest.param(lambda: fattree(4).topology, id="fattree"),
]
FRACTIONS = [0.5, 1.0]


@pytest.mark.parametrize("build", INSTANCES)
@pytest.mark.parametrize("fraction", FRACTIONS)
class TestBackendAgreement:
    def test_batched_byte_identical_to_exact(self, build, fraction):
        topo = build()
        tm = longest_matching_tm(topo, fraction, seed=1)
        exact = max_concurrent_throughput(topo, tm)
        (batched,) = registry.solver("highs-batched:mode=fallback").solve_many(topo, [tm])
        assert batched.ok
        result = batched.result
        assert result.throughput == exact.throughput
        assert result.per_server == exact.per_server
        assert result.disconnected_pairs == exact.disconnected_pairs
        assert result.iterations == exact.iterations
        assert result.link_utilization == exact.link_utilization

    def test_mcf_within_epsilon_guarantee(self, build, fraction):
        topo = build()
        tm = longest_matching_tm(topo, fraction, seed=1)
        exact = max_concurrent_throughput(topo, tm).throughput
        outcome = registry.solver(f"mcf-approx:epsilon={EPSILON}").solve(
            topo, tm
        )
        assert outcome.ok
        approx = outcome.result.throughput
        assert approx <= exact + 1e-9
        assert approx >= (1 - 4 * EPSILON) * exact


def test_batched_solve_many_matches_per_call_across_fractions():
    topo = jellyfish(12, 4, 2, seed=3)
    tms = [longest_matching_tm(topo, f, seed=1) for f in (0.25, 0.5, 0.75, 1.0)]
    outcomes = registry.solver("highs-batched:mode=fallback").solve_many(topo, tms)
    for tm, outcome in zip(tms, outcomes):
        exact = max_concurrent_throughput(topo, tm)
        assert outcome.result.throughput == exact.throughput
        assert outcome.result.link_utilization == exact.link_utilization
