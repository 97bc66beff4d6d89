"""The staged search: determinism, pruning soundness, cancellation."""

import json

import pytest

from repro import registry
from repro.design import DesignEngine, DesignTarget, design_search
from repro.design.space import enumerate_candidates
from repro.throughput.bounds import tm_throughput_upper_bound
from repro.traffic.patterns import longest_matching_tm

SMALL = {
    "servers": 16,
    "throughput_per_server": 0.5,
    "families": ["jellyfish", "xpander"],
    "max_switches": 12,
    "radix": 8,
    "sensitivity": False,
}


def make(**overrides):
    base = dict(SMALL)
    base.update(overrides)
    return DesignTarget.from_dict(base)


def canonical(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestDeterminism:
    def test_cold_runs_byte_identical(self):
        target = make()
        assert canonical(design_search(target)) == canonical(
            design_search(target)
        )

    def test_warm_engine_byte_identical(self):
        """The memo is invisible: warm rerun == cold run, byte for byte."""
        engine = DesignEngine()
        target = make()
        first = canonical(engine.search(target))
        second = canonical(engine.search(target))
        assert first == second
        assert second == canonical(design_search(target))

    def test_warm_engine_demand_change_is_not_stale(self):
        """The struct memo is demand-free: one warm engine serving
        targets that differ only in ``per_server_demand`` must match
        the cold answer for each (regression: a demand-scaled bound
        cached under a demand-free key pruned/passed the wrong set)."""
        engine = DesignEngine()
        base = make()
        halved = make(per_server_demand=0.5)
        warm_base = canonical(engine.search(base))
        warm_halved = canonical(engine.search(halved))
        assert warm_base == canonical(design_search(base))
        assert warm_halved == canonical(design_search(halved))

    def test_sensitivity_reuses_measurements(self):
        """With sensitivity on, the report core matches the plain run."""
        engine = DesignEngine()
        with_sens = engine.search(make(sensitivity=True))
        plain = design_search(make())
        assert with_sens.to_dict()["evaluated"] == plain.to_dict()["evaluated"]
        assert with_sens.sensitivity  # tornado rows present
        assert plain.to_dict()["sensitivity"] == []


class TestSearchOutcome:
    def test_best_is_cheapest_feasible(self):
        report = design_search(make())
        assert report.feasible and report.complete
        feasible = [e for e in report.evaluated if e.meets]
        assert report.best.cost == min(e.cost for e in feasible)
        assert report.best.meets_slo

    def test_pruning_cuts_at_least_half_before_lp(self):
        """The acceptance bar: cheap+structural pruning halves the space."""
        target = DesignTarget.from_dict({
            "servers": 48,
            "throughput_per_server": 0.3,
            "families": ["fattree", "jellyfish", "xpander"],
            "max_switches": 24,
            "radix": 10,
            "sensitivity": False,
        })
        report = design_search(target)
        counters = report.counters
        assert counters["pruned"] * 2 >= counters["candidates"]
        assert counters["evaluated"] == len(report.evaluated)

    def test_infeasible_target_reports_cleanly(self):
        report = design_search(make(servers=100_000))
        assert not report.feasible
        assert report.best is None
        assert report.evaluated == []
        assert report.pruned  # everything died in the cheap stage

    def test_resilience_floor_checked(self):
        report = design_search(make(
            resilience={"failures": "links:fraction=0.1,seed=1",
                        "min_retained": 0.5},
        ))
        for entry in report.evaluated:
            if entry.meets_slo:
                assert entry.retained is not None
                assert entry.meets == (
                    entry.meets_slo and entry.meets_resilience
                )
            else:
                assert entry.retained is None

    def test_expandability_floor_prunes_structurally(self):
        strict = design_search(make(min_expandability=0.99))
        assert not strict.feasible
        assert any(p.reason == "expandability" for p in strict.pruned)

    def test_should_stop_yields_partial_report(self):
        report = design_search(make(), should_stop=lambda: True)
        assert not report.complete
        assert report.evaluated == []
        assert report.to_dict()["sensitivity"] == []


class TestPruningSoundness:
    """Every pruned candidate provably cannot meet the target.

    Exhaustive check on a small space: re-derive each pruned
    candidate's true feasibility the expensive way (build + LP) and
    assert the prune verdict was correct.  This is the guarantee that
    lets the search skip LPs at all.
    """

    @pytest.mark.parametrize("overrides", [
        {},
        {"throughput_per_server": 0.8},
        {"fraction": 0.5, "throughput_per_server": 0.7},
        {"max_cost": 15_000.0},
    ])
    def test_pruned_candidates_truly_infeasible(self, overrides):
        target = make(**overrides)
        report = design_search(target)
        candidates = {
            c.spec_string: c for c in enumerate_candidates(target)
        }
        assert report.pruned, "pick targets that actually prune"
        for entry in report.pruned:
            cand = candidates[entry.spec]
            if entry.reason == "max_switches":
                assert cand.switches > target.max_switches
                continue
            if entry.reason == "radix":
                ports = cand.network_degree + cand.servers_per_switch
                assert ports > target.radix
                continue
            topo, _ = registry.build_topology(cand.spec)
            if entry.reason == "servers":
                assert topo.num_servers < target.servers
                continue
            if entry.reason == "cost":
                from repro.cost import PORT_COSTS, topology_port_cost

                assert (
                    topology_port_cost(topo, PORT_COSTS[target.port_cost])
                    > target.max_cost
                )
                continue
            assert entry.reason == "throughput_bound", entry
            # The claim under test: the *actual* LP optimum misses the
            # SLO whenever a bound said it must.
            tm = longest_matching_tm(topo, target.fraction, seed=target.seed)
            outcome = registry.solver(target.solver).solve(
                topo, tm, per_server_demand=target.per_server_demand
            )
            per_server = min(
                1.0,
                (outcome.result.per_server if outcome.ok else 0.0),
            )
            assert per_server < target.throughput_per_server + 1e-6, (
                f"{entry.spec} pruned by {entry.stage}/{entry.reason} "
                f"but solves to {per_server}"
            )

    def test_structural_bound_dominates_lp(self):
        """The exact capacity bound really is an upper bound on the LP."""
        target = make()
        report = design_search(target)
        for entry in report.evaluated:
            if entry.status == "optimal":
                assert entry.per_server <= entry.bound_per_server + 1e-6


class TestCounters:
    def test_counters_account_for_every_candidate(self):
        target = make()
        report = design_search(target)
        c = report.counters
        assert c["candidates"] >= c["pruned"] + c["evaluated"]
        assert sum(c["pruned_by_reason"].values()) == c["pruned"]
        resilience_evals = sum(
            1 for e in report.evaluated if e.retained is not None
        )
        assert c["lp_solves"] == c["evaluated"] + resilience_evals
