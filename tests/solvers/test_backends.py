"""Solver backend protocol: registry wiring and outcome classification."""

import pytest

from repro import registry
from repro.solvers import (
    HighsExactBackend,
    HighsPathsBackend,
    McfApproxBackend,
    SolveOutcome,
    SolveStatus,
    SolverBackend,
)
from repro.throughput import (
    InfeasibleError,
    SolverFailure,
    SolverNumericalError,
    UnboundedError,
    highs,
)
from repro.topologies import jellyfish
from repro.traffic import longest_matching_tm

from ..lp_faults import fail_solves


class _FakeRes:
    """A scipy OptimizeResult stand-in with a chosen HiGHS status."""

    def __init__(self, status, success=False, x=None, message="", nit=7):
        self.status = status
        self.success = success
        self.x = x
        self.message = message
        self.nit = nit


@pytest.fixture
def small():
    topo = jellyfish(8, 3, 2, seed=0)
    return topo, longest_matching_tm(topo, 1.0, seed=0)


class TestRegistry:
    def test_builtin_names(self):
        names = set(registry.SOLVERS.available())
        assert {
            "exact", "highs-exact", "highs-batched", "highs-paths",
            "paths", "mcf-approx",
        } <= names

    def test_aliases_build_same_backend_class(self):
        assert type(registry.solver("exact")) is type(
            registry.solver("highs-exact")
        )
        assert type(registry.solver("paths")) is type(
            registry.solver("highs-paths")
        )

    def test_aliases_report_the_requested_name(self, small):
        topo, tm = small
        for name in ("exact", "highs-exact", "highs-batched",
                     "highs-incremental", "paths"):
            assert registry.solver(name).solve(topo, tm).backend == name

    def test_spec_string_parameters(self):
        backend = registry.solver("mcf-approx:epsilon=0.1")
        assert isinstance(backend, McfApproxBackend)
        assert backend.epsilon == 0.1
        assert registry.solver("highs-paths:k=4").k == 4

    def test_defaults_do_not_override_spec(self):
        backend = registry.solver("highs-paths:k=4", k=16)
        assert backend.k == 4

    def test_unknown_solver_raises(self):
        with pytest.raises(registry.RegistryError, match="unknown solver"):
            registry.solver("cplex")

    def test_describe_solver(self):
        assert "batch" in registry.SOLVERS.describe("highs-batched").lower()
        assert "epsilon" in registry.SOLVERS.describe("mcf-approx").lower()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            McfApproxBackend(epsilon=0.7)
        with pytest.raises(ValueError):
            HighsPathsBackend(k=0)

    def test_batching_flags(self):
        assert registry.SOLVERS.get("highs-batched").supports_batching
        assert not HighsExactBackend.supports_batching
        assert not McfApproxBackend.supports_batching


class TestOutcomeClassification:
    @pytest.mark.parametrize(
        "status,cls,terminal",
        [
            (2, InfeasibleError, SolveStatus.INFEASIBLE),
            (3, UnboundedError, SolveStatus.UNBOUNDED),
            (1, SolverNumericalError, SolveStatus.NUMERICAL),
            (4, SolverNumericalError, SolveStatus.NUMERICAL),
        ],
    )
    def test_highs_statuses(self, small, monkeypatch, status, cls, terminal):
        fail_solves(
            monkeypatch, _FakeRes(status, message="solver said no")
        )
        topo, tm = small
        outcome = HighsExactBackend().solve(topo, tm)
        assert outcome.status is terminal
        assert not outcome.ok
        assert outcome.result is None
        assert outcome.iterations == 7
        assert isinstance(outcome.error, cls)
        assert "solver said no" in outcome.message
        with pytest.raises(cls):
            outcome.raise_for_status()

    def test_success_without_solution_vector(self, small, monkeypatch):
        fail_solves(monkeypatch, _FakeRes(0, success=True, x=None))
        topo, tm = small
        outcome = HighsExactBackend().solve(topo, tm)
        assert outcome.status is SolveStatus.NUMERICAL
        assert "no solution" in outcome.message

    def test_optimal_outcome(self, small):
        topo, tm = small
        outcome = HighsExactBackend().solve(topo, tm)
        assert outcome.ok and outcome.status is SolveStatus.OPTIMAL
        assert outcome.status.value == "optimal"
        assert outcome.backend == "highs-exact"
        assert outcome.result.per_server > 0
        assert outcome.iterations > 0
        assert outcome.wall_time_s > 0
        assert outcome.raise_for_status() is outcome

    def test_non_solver_exceptions_propagate(self, small, monkeypatch):
        def boom(*a, **k):
            raise KeyError("formulation bug")

        monkeypatch.setattr(highs, "solve", boom)
        topo, tm = small
        with pytest.raises(KeyError):
            HighsExactBackend().solve(topo, tm)

    def test_outcome_without_error_raises_base_class(self):
        outcome = SolveOutcome(
            status=SolveStatus.INFEASIBLE, backend="test", message="nope"
        )
        with pytest.raises(SolverFailure, match="nope"):
            outcome.raise_for_status()

    def test_default_solve_many_is_sequential(self, small):
        topo, tm = small
        outcomes = McfApproxBackend().solve_many(topo, [tm, tm])
        assert len(outcomes) == 2
        assert all(o.ok for o in outcomes)

    def test_abstract_backend_is_abstract(self, small):
        topo, tm = small
        with pytest.raises(NotImplementedError):
            SolverBackend()._solve_result(topo, tm, 1.0)
