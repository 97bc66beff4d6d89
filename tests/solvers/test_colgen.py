"""Column-generation backend: exactness, warm pools, contract flags.

The ISSUE's property test: across ≥50 random jellyfish/xpander instances
and multi-point load grids, the colgen optimum must match ``highs-exact``
(the edge-formulation LP) within 1e-9 — the pricing loop terminates only
when LP duality certifies that no path anywhere in the graph can improve
the restricted master, so the result is the exact optimum, not a bound.
Plus the warm-pool contract: the persistent path pool warm-starts repeat
solves (``warm_started`` flips once every demand pair is covered), keeps
only each pair's support at its last optimum, never survives a topology
change, and is bypassed entirely by ``warm=False``.
"""

import random

import pytest

from repro import registry
from repro.perf import topology_content_hash
from repro.solvers import (
    HighsColgenBackend,
    have_highs_core,
    reset_warm_start_stats,
    warm_start_stats,
)
from repro.throughput import (
    ColgenTopologyContext,
    max_concurrent_throughput,
    skew_sweep,
)
from repro.throughput.colgen import colgen_solve, path_colgen_throughput
from repro.topologies import jellyfish, xpander
from repro.traffic import longest_matching_tm

LOAD_GRID = (0.5, 0.8, 1.0, 1.4)


def _random_instances(count, seed=20260808):
    """≥``count`` seeded random small jellyfish/xpander instances."""
    rng = random.Random(seed)
    builders = []
    for i in range(count):
        if i % 2 == 0:
            switches = rng.randint(8, 14)
            degree = rng.randint(3, 4)
            if (switches * degree) % 2:  # r-regular needs n*r even
                switches += 1
            servers = rng.randint(1, 2)
            s = rng.randint(0, 10_000)
            builders.append(
                pytest.param(
                    lambda sw=switches, d=degree, sv=servers, s=s: jellyfish(
                        sw, d, sv, seed=s
                    ),
                    id=f"jellyfish-{i}",
                )
            )
        else:
            degree = rng.randint(3, 5)
            lift = rng.randint(2, 3)
            servers = rng.randint(1, 2)
            s = rng.randint(0, 10_000)
            builders.append(
                pytest.param(
                    lambda d=degree, lf=lift, sv=servers, s=s: xpander(
                        d, d + 1, sv, seed=s
                    ),
                    id=f"xpander-{i}",
                )
            )
    return builders


INSTANCES = _random_instances(50)


@pytest.mark.parametrize("build", INSTANCES)
def test_colgen_matches_exact_within_1e9(build):
    """Property test: colgen tracks highs-exact to 1e-9 everywhere."""
    topo = build()
    base = longest_matching_tm(topo, 1.0, seed=1)
    tms = [base.scaled(s) for s in LOAD_GRID]
    outcomes = HighsColgenBackend().solve_many(topo, tms)
    for tm, outcome in zip(tms, outcomes):
        assert outcome.ok
        exact = max_concurrent_throughput(topo, tm)
        assert abs(outcome.result.throughput - exact.throughput) <= 1e-9
        assert abs(outcome.result.per_server - exact.per_server) <= 1e-9
    # The first point built the pool; later points were fully covered.
    assert outcomes[0].warm_started is False
    assert [o.warm_started for o in outcomes[1:]] == [True, True, True]
    # Column generation rebuilds the master per solve; only columns
    # persist — no simplex basis ever crosses solves.
    assert all(o.basis_reused is False for o in outcomes)


def test_fallback_engine_matches_exact():
    """The cold-master engine runs the same pool/pricing/stop rule and
    must land on the same certified optimum."""
    topo = jellyfish(12, 4, 2, seed=3)
    base = longest_matching_tm(topo, 1.0, seed=1)
    tms = [base.scaled(s) for s in LOAD_GRID]
    backend = HighsColgenBackend(mode="fallback")
    for tm, outcome in zip(tms, backend.solve_many(topo, tms)):
        assert outcome.ok
        exact = max_concurrent_throughput(topo, tm)
        assert abs(outcome.result.throughput - exact.throughput) <= 1e-9
    stats = backend.context_stats()
    assert stats["engine"] == (
        "highs-core-cold" if have_highs_core() else "linprog"
    )


def test_link_utilization_is_feasible_and_tight():
    """The recovered per-link loads respect capacities and the max one
    is (numerically) saturated at the optimum."""
    topo = jellyfish(12, 4, 2, seed=3)
    tm = longest_matching_tm(topo, 1.0, seed=1)
    result = path_colgen_throughput(topo, tm)
    assert result.link_utilization
    peak = max(result.link_utilization.values())
    assert peak <= 1.0 + 1e-7
    assert peak >= 1.0 - 1e-6  # some arc binds at a max-concurrent optimum


def test_varying_support_matches_exact():
    """Skew-style sweeps change the demand support; repeats of a support
    warm-start off the stored pool while staying exact."""
    topo = jellyfish(12, 4, 2, seed=3)
    fractions = [0.4, 0.7, 1.0, 0.4, 0.7, 1.0]
    tms = [longest_matching_tm(topo, f, seed=1) for f in fractions]
    outcomes = HighsColgenBackend().solve_many(topo, tms)
    for tm, outcome in zip(tms, outcomes):
        exact = max_concurrent_throughput(topo, tm)
        assert abs(outcome.result.throughput - exact.throughput) <= 1e-9
    # The pool is kept per (src, dst) pair, so once a support's pairs
    # have all been seen the solve starts warm.
    assert outcomes[0].warm_started is False
    assert [o.warm_started for o in outcomes[3:]] == [True, True, True]


def test_topology_change_drops_the_pool():
    """A different topology between calls must rebuild the context: the
    pool's arc ids are table-specific and capacities shape the optimum."""
    backend = HighsColgenBackend()
    topo_a = jellyfish(12, 4, 2, seed=3)
    topo_b = xpander(4, 6, 2, seed=0)
    tm_a = longest_matching_tm(topo_a, 1.0, seed=1)
    tm_b = longest_matching_tm(topo_b, 1.0, seed=1)

    first = backend.solve_many(topo_a, [tm_a, tm_a])
    assert [o.warm_started for o in first] == [False, True]
    switched = backend.solve_many(topo_b, [tm_b, tm_b])
    assert switched[0].warm_started is False  # fresh pool for topo_b
    assert switched[1].warm_started is True
    exact_b = max_concurrent_throughput(topo_b, tm_b)
    assert abs(switched[0].result.throughput - exact_b.throughput) <= 1e-9


def test_capacity_change_forces_fresh_context():
    """Same structure, different capacities → different fingerprint →
    new context (the perf path cache's content hash ignores capacities;
    the colgen fingerprint must not)."""
    import copy

    topo = jellyfish(10, 4, 2, seed=5)
    scaled = copy.deepcopy(topo)
    for _u, _v, data in scaled.graph.edges(data=True):
        data["capacity"] *= 2.0
    assert topology_content_hash(topo, capacities=True) != (
        topology_content_hash(scaled, capacities=True)
    )

    backend = HighsColgenBackend()
    tm = longest_matching_tm(topo, 1.0, seed=1)
    cold = backend.solve_many(topo, [tm])
    recap = backend.solve_many(scaled, [tm])
    assert recap[0].warm_started is False
    exact = max_concurrent_throughput(scaled, tm)
    assert abs(recap[0].result.throughput - exact.throughput) <= 1e-9
    assert cold[0].result.throughput != recap[0].result.throughput


def test_warm_false_bypasses_the_pool():
    topo = jellyfish(12, 4, 2, seed=3)
    tm = longest_matching_tm(topo, 1.0, seed=1)
    backend = HighsColgenBackend()
    outcomes = backend.solve_many(topo, [tm, tm, tm], warm=False)
    assert [o.warm_started for o in outcomes] == [False, False, False]
    assert backend.context_stats() is None  # nothing was cached
    exact = max_concurrent_throughput(topo, tm)
    for o in outcomes:
        assert abs(o.result.throughput - exact.throughput) <= 1e-9


def test_warm_start_counters_and_context_stats():
    reset_warm_start_stats()
    topo = jellyfish(12, 4, 2, seed=3)
    base = longest_matching_tm(topo, 1.0, seed=1)
    backend = HighsColgenBackend()
    backend.solve_many(topo, [base.scaled(s) for s in (0.5, 1.0, 1.5)])
    stats = warm_start_stats()
    assert stats["miss"] == 1
    assert stats["hit"] == 2
    assert stats["context_miss"] == 1
    ctx = backend.context_stats()
    assert ctx["solves"] == 3
    assert ctx["warm_solves"] == 2
    assert ctx["pool_pairs"] == base.num_flows
    assert ctx["pool_pairs"] <= ctx["pool_columns"] <= 8 * ctx["pool_pairs"]
    assert ctx["pricing_rounds"] >= 3
    # A second solve_many on the same topology reuses the live context.
    backend.solve_many(topo, [base])
    assert warm_start_stats()["context_hit"] == 1


def test_degenerate_conventions_match_backend_contract():
    """Empty and disconnected TMs follow the documented conventions
    (cf. tests/throughput/test_bounds.py)."""
    topo = jellyfish(10, 4, 2, seed=5)
    empty = longest_matching_tm(topo, 1.0, seed=1).restricted_to_pairs([])
    context = ColgenTopologyContext(topo)
    result = context.solve(empty)
    assert result.throughput == float("inf")
    assert result.per_server == 1.0


def test_mode_and_knob_validation():
    with pytest.raises(ValueError, match="auto/core/fallback"):
        HighsColgenBackend(mode="bogus")
    with pytest.raises(ValueError, match="k must be"):
        HighsColgenBackend(k=0)
    with pytest.raises(ValueError, match="max_rounds must be"):
        HighsColgenBackend(max_rounds=0)
    if not have_highs_core():
        with pytest.raises(ValueError, match="bundled HiGHS core"):
            HighsColgenBackend(mode="core")


def test_registry_exposes_colgen():
    assert "highs-colgen" in registry.SOLVERS
    backend = registry.solver("highs-colgen")
    assert backend.name == "highs-colgen"
    assert backend.supports_batching is True
    backend = registry.solver("highs-colgen:k=3,max_rounds=50,mode=fallback")
    assert backend.k == 3
    assert backend.max_rounds == 50
    assert backend.mode == "fallback"


def test_skew_sweep_routes_through_colgen_backend():
    topo = jellyfish(12, 4, 2, seed=3)
    fractions = [0.4, 0.7, 1.0]
    colgen = skew_sweep(topo, fractions, solver="highs-colgen", seed=1)
    exact = skew_sweep(topo, fractions, solver="exact", seed=1)
    assert colgen.ok and exact.ok
    for ours, ref in zip(colgen.throughput, exact.throughput):
        assert abs(ours - ref) <= 1e-9


@pytest.mark.skipif(
    not have_highs_core(), reason="needs scipy's bundled HiGHS core"
)
def test_core_engine_matches_fallback_engine():
    """Both engines share pool + pricing + stop rule, so they certify
    the same optimum — within LP tolerance of each other."""
    topo = xpander(4, 6, 2, seed=0)
    tm = longest_matching_tm(topo, 1.0, seed=1)
    core = HighsColgenBackend(mode="core").solve(topo, tm)
    fallback = HighsColgenBackend(mode="fallback").solve(topo, tm)
    assert abs(core.result.throughput - fallback.result.throughput) <= 1e-9
    assert core.result.iterations > 0


class _NoPaths:
    """A path cache that offers no k-shortest seeds: a master built
    with it holds only the columns passed in through ``pool_store``."""

    def k_shortest_paths(self, src, dst, k):
        return []


def test_warm_pool_keeps_only_the_optimum_support():
    """Many fresh-seed solves on one warm context (the ``/v1`` service's
    pattern): every answer stays exact, covered TMs start warm, and the
    stored pool holds each solved pair's optimal support — enough on its
    own to reach the optimum, never more columns than a basic optimum
    has — so it stays small instead of growing with every solve."""
    topo = registry.topology("jellyfish:switches=16,degree=4,servers=3,seed=1")
    context = ColgenTopologyContext(topo)
    table = context.table
    warm = []
    for seed in range(100):
        for fraction in (0.5, 1.0):
            tm = longest_matching_tm(topo, fraction, seed=seed)
            flags = {}
            result = context.solve(tm, flags=flags)
            warm.append(flags["warm_started"])
            exact = max_concurrent_throughput(topo, tm)
            assert abs(result.throughput - exact.throughput) <= 1e-9

            pairs = [pair for pair, _ in tm.items()]
            stored = {pair: context._pool[pair] for pair in pairs}
            assert all(stored.values())
            for (s, d), cols in stored.items():
                for col in cols:
                    assert table.arcs[col[0]][0] == s
                    assert table.arcs[col[-1]][1] == d
            # A basic optimum has at most one positive column per row.
            assert sum(map(len, stored.values())) <= len(pairs) + table.num_arcs
            # The stored support alone (no seeds, no pricing) attains t.
            support, _ = colgen_solve(
                table, _NoPaths(), tm, phases=0, max_rounds=0,
                pool_store=dict(stored),
            )
            assert abs(support.throughput - result.throughput) <= 1e-9
    assert warm[0] is False
    assert sum(warm[100:]) >= 80
    stats = context.stats()
    assert stats["pool_columns"] == sum(map(len, context._pool.values()))
    # Writing back every pooled column (capped at 64 per pair) left
    # 4,524 columns here after 400 solves; the supports stay far below.
    assert stats["pool_columns"] <= 8 * stats["pool_pairs"]
