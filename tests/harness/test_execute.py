"""execute_spec: topology building, engines, and load resolution."""

import pytest

from repro.harness import ExperimentSpec, SpecError
from repro.harness.execute import _build_topology, execute_spec


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
