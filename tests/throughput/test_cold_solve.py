"""One cold LP solve, byte-identical to ``scipy.optimize.linprog``.

:func:`repro.throughput.highs.solve_cold` builds a fresh model on
scipy's bundled HiGHS core in ``linprog``'s row layout and options.
``linprog`` is its oracle: on every LP the library solves cold — the
50-instance edge-LP grid of ``test_incremental`` and the path-LP
masters, priced and unpriced — the core branch must return the same
solution bytes, iteration count and dual blocks as ``linprog`` (called
by the no-core branch on the same rows), and the no-core branch the
same bytes again.  A
non-optimal solve must raise exactly what ``linprog``'s result raises.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.throughput import (
    InfeasibleError,
    SolverNumericalError,
    UnboundedError,
    highs,
    max_concurrent_throughput,
    path_throughput,
)
from repro.throughput.colgen import path_colgen_throughput
from repro.topologies import fattree, jellyfish
from repro.traffic import longest_matching_tm

from ..solvers.test_incremental import INSTANCES, LOAD_GRID

pytestmark = pytest.mark.skipif(
    not highs.have_highs_core(), reason="needs scipy's bundled HiGHS core"
)


def _recorded(monkeypatch, solve):
    """Run ``solve()``; return every cold LP it handed to HiGHS, each
    as ``(cost, matrix, caps, (x, row_dual, iterations))``."""
    calls = []
    real = highs.solve_cold

    def recording(cost, matrix, caps, **kwargs):
        out = real(cost, matrix, caps, **kwargs)
        calls.append((cost, matrix, caps, out))
        return out

    monkeypatch.setattr(highs, "solve_cold", recording)
    solve()
    monkeypatch.setattr(highs, "solve_cold", real)
    assert calls
    return calls


def _without_core(monkeypatch):
    highs.have_highs_core()  # settle the lazy check before overriding it
    monkeypatch.setattr(highs, "_CORE", None)
    assert not highs.have_highs_core()


def _assert_matches_linprog(monkeypatch, lps):
    """Each recorded core solve against the no-core branch of
    :func:`highs.solve_cold` on the same LP, and against the raw
    ``linprog`` result that branch received."""
    oracle = []

    def recording_linprog(*args, **kwargs):
        oracle.append(linprog(*args, **kwargs))
        return oracle[-1]

    with monkeypatch.context() as patch:
        _without_core(patch)
        patch.setattr(highs, "linprog", recording_linprog)
        fallback = [
            highs.solve_cold(cost, matrix, caps, formulation="t")
            for cost, matrix, caps, _ in lps
        ]
    assert len(oracle) == len(lps)
    for (_, _, caps, core), res, no_core in zip(lps, oracle, fallback):
        x, duals, nit = core
        m = caps.size
        assert res.status == 0
        assert x.tobytes() == res.x.tobytes()
        assert nit == res.nit
        assert duals[:m].tobytes() == res.ineqlin.marginals.tobytes()
        assert duals[m:].tobytes() == res.eqlin.marginals.tobytes()
        lx, lduals, lnit = no_core
        assert (lx.tobytes(), lduals.tobytes(), lnit) == (
            x.tobytes(), duals.tobytes(), nit
        )


@pytest.mark.parametrize("build", INSTANCES)
def test_edge_lp_grid_matches_linprog(monkeypatch, build):
    topo = build()
    base = longest_matching_tm(topo, 1.0, seed=1)
    lps = _recorded(
        monkeypatch,
        lambda: [
            max_concurrent_throughput(topo, base.scaled(s)) for s in LOAD_GRID
        ],
    )
    assert len(lps) == len(LOAD_GRID)
    _assert_matches_linprog(monkeypatch, lps)


@pytest.mark.parametrize(
    "name,build",
    [
        ("fattree4", lambda: fattree(4).topology),
        ("jellyfish20", lambda: jellyfish(20, 4, 2, seed=3)),
    ],
)
def test_path_masters_match_linprog(monkeypatch, name, build):
    """The unpriced k-paths masters and every re-assembled master of a
    priced colgen solve, whose pricing reads the duals."""
    topo = build()
    tm = longest_matching_tm(topo, 1.0, seed=0)
    lps = _recorded(
        monkeypatch,
        lambda: [path_throughput(topo, tm, k=k) for k in (1, 4, 8)]
        + [path_colgen_throughput(topo, tm, use_core=False)],
    )
    assert len(lps) > 3  # colgen priced at least one round
    _assert_matches_linprog(monkeypatch, lps)


def test_results_are_byte_identical_without_the_core(monkeypatch):
    topo = jellyfish(12, 4, 2, seed=3)
    tm = longest_matching_tm(topo, 1.0, seed=1)
    solves = (
        lambda: max_concurrent_throughput(topo, tm),
        lambda: path_throughput(topo, tm, k=4),
        lambda: path_colgen_throughput(topo, tm, use_core=False),
    )
    core = [solve() for solve in solves]
    _without_core(monkeypatch)
    assert [solve() for solve in solves] == core


# ----------------------------------------------------------------------
# Failures: the core branch raises what linprog's result raised
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def edge_lp():
    """One real exact edge LP (large enough that simplex iterates)."""
    topo = jellyfish(8, 3, 2, seed=0)
    tm = longest_matching_tm(topo, 1.0, seed=0)
    with pytest.MonkeyPatch.context() as patch:
        ((cost, matrix, caps, _),) = _recorded(
            patch, lambda: max_concurrent_throughput(topo, tm)
        )
    return cost, matrix, caps


def _raised(monkeypatch, lp, with_core):
    with monkeypatch.context() as patch:
        if not with_core:
            _without_core(patch)
        with pytest.raises(Exception) as info:
            highs.solve_cold(
                *lp, formulation="exact", context={"topology": "tiny"}
            )
    return info.value


def _assert_same_failure(monkeypatch, lp, cls, code):
    core = _raised(monkeypatch, lp, with_core=True)
    oracle = _raised(monkeypatch, lp, with_core=False)
    assert type(core) is type(oracle) is cls
    assert core.status_code == oracle.status_code == code
    assert core.iterations == oracle.iterations
    assert core.formulation == "exact"
    assert core.context == {"topology": "tiny"}
    return core, oracle


@pytest.mark.parametrize(
    "status_name,cls,code",
    [
        ("kInfeasible", InfeasibleError, 2),
        ("kUnbounded", UnboundedError, 3),
        ("kIterationLimit", SolverNumericalError, 1),
        ("kTimeLimit", SolverNumericalError, 1),
        ("kSolveError", SolverNumericalError, 4),
        ("kUnboundedOrInfeasible", SolverNumericalError, 4),
    ],
)
def test_each_highs_status_raises_as_linprog(
    monkeypatch, edge_lp, status_name, cls, code
):
    """A real model reporting ``status`` after solving.  ``linprog``
    builds its model from the same core class, so both branches see
    the stubbed status."""
    core = highs._highs_core()
    status = getattr(core.HighsModelStatus, status_name)

    class StubbedHighs(core._Highs):
        def getModelStatus(self):
            return status

    monkeypatch.setattr(core, "_Highs", StubbedHighs)
    raised, oracle = _assert_same_failure(monkeypatch, edge_lp, cls, code)
    assert str(raised) == str(oracle)
    assert raised.iterations > 0


def test_real_infeasible_lp(monkeypatch, edge_lp):
    cost, matrix, caps = edge_lp
    raised, oracle = _assert_same_failure(
        monkeypatch, (cost, matrix, -caps), InfeasibleError, 2
    )
    assert str(raised) == str(oracle)


def test_real_unbounded_lp(monkeypatch):
    # t is free to grow: no capacity row bounds its demand's path.
    cost = np.array([0.0, -1.0])
    lp = (cost, sp.csc_matrix(np.array([[1.0, -2.0]])), np.zeros(0))
    oracle = _raised(monkeypatch, lp, with_core=False)
    assert isinstance(oracle, (UnboundedError, SolverNumericalError))
    raised, oracle = _assert_same_failure(
        monkeypatch, lp, type(oracle), oracle.status_code
    )
    assert str(raised) == str(oracle)


def test_optimum_violating_the_rows_is_numerical(monkeypatch, edge_lp):
    """``linprog`` re-checks an optimum's residuals; so does the core
    branch."""
    core = highs._highs_core()

    class ShiftedHighs(core._Highs):
        def getSolution(self):
            real = super().getSolution()
            return SimpleNamespace(
                col_value=[v - 1.0 for v in real.col_value],
                row_value=real.row_value,
                col_dual=real.col_dual,
                row_dual=real.row_dual,
            )

    monkeypatch.setattr(core, "_Highs", ShiftedHighs)
    raised, _ = _assert_same_failure(
        monkeypatch, edge_lp, SolverNumericalError, 4
    )
    assert "does not satisfy the constraints" in str(raised)
