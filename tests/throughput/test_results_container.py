"""Tests for the ThroughputResult container and solver-consistency
invariants across the three solvers on one shared scenario."""

import pytest

from repro.throughput import (
    ThroughputResult,
    approx_concurrent_throughput,
    max_concurrent_throughput,
    path_throughput,
    tm_throughput_upper_bound,
)
from repro.topologies import xpander
from repro.traffic import longest_matching_tm


@pytest.fixture(scope="module")
def scenario():
    topo = xpander(4, 5, 2)
    tm = longest_matching_tm(topo, fraction=0.6, seed=3)
    return topo, tm


class TestSolverConsistency:
    def test_ordering(self, scenario):
        """paths <= exact <= upper bound; fptas <= exact."""
        topo, tm = scenario
        exact = max_concurrent_throughput(topo, tm).throughput
        pathed = path_throughput(topo, tm, k=6).throughput
        fptas = approx_concurrent_throughput(topo, tm, epsilon=0.08).throughput
        bound = tm_throughput_upper_bound(topo, tm)
        assert pathed <= exact + 1e-6
        assert fptas <= exact + 1e-6
        assert exact <= bound + 1e-6

    def test_all_agree_within_tolerance(self, scenario):
        topo, tm = scenario
        exact = max_concurrent_throughput(topo, tm).throughput
        pathed = path_throughput(topo, tm, k=12).throughput
        fptas = approx_concurrent_throughput(topo, tm, epsilon=0.05).throughput
        # paths/exact is exactly 0.8 here: allow test_ordering's slack.
        assert pathed >= 0.8 * exact - 1e-6
        assert fptas >= 0.8 * exact - 1e-6

    def test_scaling_invariance(self, scenario):
        """Doubling all demands halves the concurrent fraction."""
        topo, tm = scenario
        t1 = max_concurrent_throughput(topo, tm).throughput
        t2 = max_concurrent_throughput(topo, tm.scaled(2.0)).throughput
        assert t2 == pytest.approx(t1 / 2, rel=1e-4)


class TestResultContainer:
    def test_per_server_clamped(self):
        r = ThroughputResult(throughput=3.0, per_server=min(1.0, 3.0))
        assert r.per_server == 1.0

    def test_utilization_optional(self):
        r = ThroughputResult(throughput=0.5, per_server=0.5)
        assert r.link_utilization is None
