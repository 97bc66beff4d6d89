"""Satellite regression: typed LP failures instead of bare RuntimeError.

Before the taxonomy, any HiGHS failure surfaced as ``RuntimeError(res.message)``
and a "successful" result without a solution vector crashed on
``res.x[t_var]``.  These tests pin the mapping, the carried context, and
backward compatibility (every class is still a ``RuntimeError``) — for
``linprog``-shaped results (what every one-shot solve raises through)
and for the model statuses of the two warm engines on scipy's bundled
HiGHS core: colgen's live model maps them through the shared table, and
the warm edge LP, whose failed warm start is retried cold, raises what
``highs-exact`` raises.
"""

import pytest

from repro.throughput import (
    InfeasibleError,
    SolverFailure,
    SolverNumericalError,
    UnboundedError,
    max_concurrent_throughput,
    path_throughput,
)
from repro import registry
from repro.solvers import SolveStatus
from repro.throughput import highs
from repro.throughput.errors import raise_for_linprog
from repro.topologies import jellyfish
from repro.traffic import longest_matching_tm

from ..lp_faults import fail_solves


class _FakeRes:
    def __init__(self, status, success=False, x=None, message="", nit=5):
        self.status = status
        self.success = success
        self.x = x
        self.message = message
        self.nit = nit


@pytest.fixture
def instance():
    topo = jellyfish(8, 3, 2, seed=0)
    return topo, longest_matching_tm(topo, 1.0, seed=0)


class TestRaiseForLinprog:
    @pytest.mark.parametrize(
        "status,cls",
        [
            (1, SolverNumericalError),
            (2, InfeasibleError),
            (3, UnboundedError),
            (4, SolverNumericalError),
        ],
    )
    def test_status_mapping(self, status, cls):
        with pytest.raises(cls) as info:
            raise_for_linprog(
                _FakeRes(status, message="bad"), formulation="exact"
            )
        assert info.value.status_code == status
        assert info.value.iterations == 5
        assert "bad" in str(info.value)

    def test_missing_solution_vector_guard_runs_first(self):
        # success=True but x=None must not be treated as a success.
        with pytest.raises(SolverNumericalError, match="no solution"):
            raise_for_linprog(
                _FakeRes(0, success=True, x=None), formulation="exact"
            )

    def test_success_with_solution_returns_silently(self):
        raise_for_linprog(
            _FakeRes(0, success=True, x=[0.0]), formulation="exact"
        )

    def test_all_classes_are_runtimeerror(self):
        for cls in (InfeasibleError, UnboundedError, SolverNumericalError):
            assert issubclass(cls, SolverFailure)
            assert issubclass(cls, RuntimeError)

    def test_context_lands_in_attributes_and_message(self):
        with pytest.raises(InfeasibleError) as info:
            raise_for_linprog(
                _FakeRes(2),
                formulation="paths",
                context={"topology": "jf", "demands": 3},
            )
        exc = info.value
        assert exc.formulation == "paths"
        assert exc.context == {"topology": "jf", "demands": 3}
        assert "formulation=paths" in str(exc)
        assert "topology=jf" in str(exc)

    def test_empty_message_falls_back_to_reason(self):
        with pytest.raises(InfeasibleError, match="infeasible"):
            raise_for_linprog(_FakeRes(2, message=""), formulation="exact")


class TestEntryPointsRaiseTyped:
    def test_exact_formulation(self, instance, monkeypatch):
        topo, tm = instance
        fail_solves(monkeypatch, _FakeRes(2))
        with pytest.raises(InfeasibleError) as info:
            max_concurrent_throughput(topo, tm)
        assert info.value.formulation == "exact"
        assert info.value.context["topology"] == topo.name
        assert info.value.context["demands"] == tm.num_flows

    def test_paths_formulation(self, instance, monkeypatch):
        topo, tm = instance
        fail_solves(monkeypatch, _FakeRes(3))
        with pytest.raises(UnboundedError) as info:
            path_throughput(topo, tm, k=4)
        assert info.value.formulation == "paths"
        assert info.value.context["k"] == 4

    def test_legacy_except_runtimeerror_still_works(self, instance, monkeypatch):
        topo, tm = instance
        fail_solves(monkeypatch, _FakeRes(4))
        try:
            max_concurrent_throughput(topo, tm)
        except RuntimeError as exc:
            assert isinstance(exc, SolverNumericalError)
        else:  # pragma: no cover - the solve must fail
            pytest.fail("expected a RuntimeError")


@pytest.mark.skipif(
    not highs.have_highs_core(), reason="needs scipy's bundled HiGHS core"
)
class TestCoreModelStatus:
    """Both warm core engines classify a HiGHS model status and report
    the simplex/IPM work spent before the failure.  The warm edge LP
    first solves for real, so the stubbed status fails its warm start
    from the stored basis on rescaled demands; the cold retry then
    fails too, and the caller sees ``highs-exact``'s class and
    ``status_code``."""

    @pytest.mark.parametrize(
        "status_name,cls,terminal",
        [
            ("kInfeasible", InfeasibleError, SolveStatus.INFEASIBLE),
            ("kUnbounded", UnboundedError, SolveStatus.UNBOUNDED),
            ("kUnboundedOrInfeasible", InfeasibleError, SolveStatus.INFEASIBLE),
            ("kIterationLimit", SolverNumericalError, SolveStatus.NUMERICAL),
        ],
    )
    @pytest.mark.parametrize(
        "solver,formulation",
        [
            ("highs-incremental:mode=core", "exact"),
            ("highs-colgen:mode=core", "colgen"),
        ],
    )
    def test_engine_maps_stubbed_status(
        self, instance, monkeypatch, solver, formulation, status_name, cls,
        terminal,
    ):
        core = highs._highs_core()
        status = getattr(core.HighsModelStatus, status_name)

        class StubbedHighs(core._Highs):
            """A real HiGHS model that reports ``status`` after solving."""

            def getModelStatus(self):
                return status

        topo, tm = instance
        backend = registry.solver(solver)
        if formulation == "exact":
            assert backend.solve(topo, tm).ok  # stores a basis
            # New coefficients, so the next solve is not answered from
            # the stored optimum.
            tm = tm.scaled(0.5)
        monkeypatch.setattr(core, "_Highs", StubbedHighs)
        outcome = backend.solve(topo, tm)
        if formulation == "exact":
            assert outcome.warm_started and not outcome.basis_reused
            exact = registry.solver("highs-exact").solve(topo, tm)
            cls, terminal = type(exact.error), exact.status
            assert outcome.error.status_code == exact.error.status_code
            assert outcome.message == exact.message
        else:
            assert "HiGHS reported" in outcome.message
        assert outcome.status is terminal
        assert type(outcome.error) is cls
        assert outcome.error.formulation == formulation
        assert outcome.error.context["topology"] == topo.name
        # The model really solved before its status was read.
        assert outcome.error.iterations > 0
        assert outcome.iterations == outcome.error.iterations
