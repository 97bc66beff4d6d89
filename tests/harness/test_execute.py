"""execute_spec: topology building, engines, and load resolution."""

import pytest

from repro.harness import ExperimentSpec, SpecError
from repro.harness.execute import _build_topology, evaluate_lp, execute_spec


class TestBuildTopology:
    def test_fattree(self):
        topo = _build_topology({"family": "fattree", "k": 4})
        assert topo.num_servers == 16

    def test_oversubscribed_fattree(self):
        full = _build_topology({"family": "fattree", "k": 4})
        halved = _build_topology(
            {"family": "fattree", "k": 4, "core_fraction": 0.5}
        )
        assert halved.num_links < full.num_links

    def test_jellyfish(self):
        topo = _build_topology({"family": "jellyfish", "switches": 10,
                                "degree": 4, "servers": 2, "seed": 3})
        assert topo.num_switches == 10
        assert topo.num_servers == 20

    def test_xpander(self):
        topo = _build_topology({"family": "xpander", "degree": 4, "lift": 5,
                                "servers": 2})
        assert topo.num_switches == 25

    def test_unknown_family(self):
        with pytest.raises(SpecError, match="torus"):
            _build_topology({"family": "torus"})

    def test_extra_parameters_rejected(self):
        with pytest.raises(SpecError, match="lift"):
            _build_topology({"family": "fattree", "k": 4, "lift": 5})


class TestEngines:
    def test_lp_engine_metrics(self):
        spec = ExperimentSpec(
            topology={"family": "jellyfish", "switches": 8, "degree": 3,
                      "servers": 1, "seed": 0},
            workload={"pattern": "longest_matching", "fraction": 0.5},
            engine="lp",
        )
        rec = execute_spec(spec)
        assert rec.ok
        assert rec.metrics["per_server_throughput"] > 0
        assert rec.metrics["fraction"] == 0.5
        assert rec.telemetry == {}
        assert rec.spec_hash == spec.content_hash()
        assert rec.provenance["engine"] == "lp"

    def test_packet_engine_attaches_telemetry(self):
        spec = ExperimentSpec(
            topology={"family": "fattree", "k": 4},
            workload={"pattern": "permute", "fraction": 1.0, "load": 0.2,
                      "sizes": "pfabric", "mean_flow_bytes": 200_000},
            engine="packet",
            measure_start=0.005,
            measure_end=0.02,
        )
        rec = execute_spec(spec)
        assert rec.ok
        assert rec.metrics["flows"] > 0
        assert rec.metrics["avg_fct_ms"] > 0
        assert rec.telemetry["num_links"] > 0
        assert 0 <= rec.telemetry["max_utilization"] <= 1.0
        assert rec.wall_clock_s > 0

    def test_flow_engine(self):
        spec = ExperimentSpec(
            topology={"family": "fattree", "k": 4},
            workload={"pattern": "permute", "fraction": 1.0, "rate": 2000.0,
                      "sizes": "pfabric", "mean_flow_bytes": 100_000},
            engine="flow",
            measure_start=0.005,
            measure_end=0.02,
        )
        rec = execute_spec(spec)
        assert rec.ok
        assert rec.metrics["flows"] > 0

    def test_short_flow_boundary_applied(self):
        base = dict(
            topology={"family": "fattree", "k": 4},
            workload={"pattern": "permute", "fraction": 1.0, "load": 0.2,
                      "sizes": "pfabric", "mean_flow_bytes": 200_000},
            engine="packet",
            measure_start=0.005,
            measure_end=0.02,
        )
        default = execute_spec(ExperimentSpec(**base))
        custom = execute_spec(
            ExperimentSpec(short_flow_bytes=1_000_000, **base)
        )
        # Same sim, different stats boundary: headline FCT identical,
        # short-flow tail percentile computed over a different flow set.
        assert custom.metrics["avg_fct_ms"] == default.metrics["avg_fct_ms"]
        assert (
            custom.metrics["short_p99_fct_ms"]
            != default.metrics["short_p99_fct_ms"]
        )


JELLYFISH = {"family": "jellyfish", "switches": 10, "degree": 4,
             "servers": 2, "seed": 1}


class TestEvaluateLp:
    """The one LP path: harness records, cold calls and warm-state calls
    agree point for point."""

    POINTS = [(0.5, 1), (1.0, 1)]

    def test_matches_the_harness_lp_engine(self):
        evaluation = evaluate_lp(JELLYFISH, self.POINTS, "highs-paths:k=4")
        for (fraction, seed), outcome in zip(self.POINTS, evaluation.outcomes):
            record = execute_spec(ExperimentSpec(
                topology=dict(JELLYFISH), engine="lp", seed=seed,
                workload={"pattern": "longest_matching", "fraction": fraction,
                          "solver": "paths", "k_paths": 4},
            ))
            assert record.metrics["per_server_throughput"] == outcome.result.per_server
        assert evaluation.solver == "highs-paths"
        assert evaluation.context_hit is None  # context-free backend
        assert evaluation.cached == [False, False]

    def test_warm_state_serves_topology_context_and_memo(self):
        from repro.api import WarmState

        state = WarmState()
        cold = evaluate_lp(JELLYFISH, self.POINTS, "highs-batched")
        first = evaluate_lp(JELLYFISH, self.POINTS, "highs-batched", state=state)
        again = evaluate_lp(JELLYFISH, self.POINTS, "highs-batched", state=state)
        assert (first.topology_hit, first.context_hit) == (False, False)
        assert (again.topology_hit, again.context_hit) == (True, True)
        assert first.cached == [False, False] and again.cached == [True, True]
        for a, b, c in zip(cold.outcomes, first.outcomes, again.outcomes):
            assert a.result.per_server == b.result.per_server == c.result.per_server
            # The memo keeps no per-arc flows.
            assert c.result.link_utilization is None

    def test_warm_false_bypasses_the_state(self):
        from repro.api import WarmState

        state = WarmState()
        evaluation = evaluate_lp(
            JELLYFISH, self.POINTS, "highs-batched", warm=False, state=state
        )
        assert evaluation.context_hit is False
        assert state.stats()["topologies"]["entries"] == 0
        assert state.stats()["results"]["entries"] == 0

    def test_failures_degrade_the_topology(self):
        evaluation = evaluate_lp(
            {"family": "fattree", "k": 4}, [(1.0, 0)], "exact",
            failures="links:fraction=0.2,seed=3",
        )
        assert evaluation.topology.failed_links
        assert evaluation.outcomes[0].ok

    def test_bad_solver_knob_raises_value_error(self):
        with pytest.raises(ValueError, match="k must be"):
            evaluate_lp(JELLYFISH, self.POINTS, "highs-paths:k=0")
