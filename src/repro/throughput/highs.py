"""The one HiGHS binding behind every LP solve.

Every LP in the library reaches HiGHS through scipy's bundled core
bindings, ``scipy.optimize._highspy._core``, and this module is the only
one that imports them.  It holds the lazy loader, the one model builder
and the two ways a model is solved:

* **one-shot** — :func:`solve` builds a fresh model in
  ``scipy.optimize.linprog``'s exact row layout and options, solves it
  once, drops it and returns the solution plus the final simplex basis.
  Without a starting basis it is a cold solve: what ``linprog`` would
  return, byte for byte, without ``linprog``'s input conversion and
  result copying, on whatever rows it is given (the edge LP of a
  symmetric TM hands it the mirror-folded LP, with one capacity row
  per cable).  Given the basis of an earlier optimum of the same
  rows and columns (the edge LP's opt-in basis reuse,
  :class:`~repro.throughput.lp.EdgeLpContext` with
  ``reuse_basis=True``), it starts the dual simplex there instead.  On
  a scipy build without the core bindings it calls ``linprog`` itself:
  the one ``linprog`` call in the library;
* **live** — column generation's ``addCols`` loop
  (:mod:`repro.throughput.colgen`) keeps one model for the length of a
  solve and re-solves it from the previous basis;
  :func:`raise_for_status` maps its model status to the typed
  :mod:`~repro.throughput.errors` failures through the one status
  table, ``_FAILURES``, that :func:`solve` also reads.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace
from typing import Any, Mapping, NamedTuple, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from .. import obs
from .errors import (
    InfeasibleError,
    SolverNumericalError,
    UnboundedError,
    raise_for_linprog,
)

__all__ = [
    "have_highs_core",
    "row_bounds",
    "build_model",
    "raise_for_status",
    "Solution",
    "solve",
    "engine_label",
]

_CORE: Optional[Any] = None
_CORE_CHECKED = False
_CORE_LOCK = threading.Lock()


def have_highs_core() -> bool:
    """Whether scipy's bundled HiGHS core bindings import.

    They ship with every scipy build that has the HiGHS ``linprog``
    methods; no extra install is involved.  Where they are absent (or
    their surface moved) solves go through ``linprog`` and the warm
    engines are unavailable: same optimum, no warm re-solves.
    """
    return _highs_core() is not None


def _highs_core() -> Optional[Any]:
    global _CORE, _CORE_CHECKED
    with _CORE_LOCK:
        if not _CORE_CHECKED:
            _CORE_CHECKED = True
            try:
                from scipy.optimize._highspy import _core  # type: ignore

                # The surface we need; older/newer layouts fall back.
                for attr in ("_Highs", "HighsLp", "kHighsInf", "MatrixFormat",
                             "HighsModelStatus", "HighsStatus"):
                    if not hasattr(_core, attr):
                        raise ImportError(f"missing {attr}")
                _CORE = _core
            except ImportError:
                _CORE = None
        return _CORE


def row_bounds(
    caps: np.ndarray, num_eq: int, eq_first: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """``(row_lower, row_upper)`` of the max-concurrent-flow shape.

    ``num_eq`` equality rows at zero (conservation or demand rows) and
    one ``row <= cap`` row per entry of ``caps``: per arc, or per cable
    in the edge LP's mirror-folded form.  Colgen's live model puts the
    equalities first (``eq_first=True``); ``linprog`` stacks the
    capacities first, and :func:`solve` follows it.
    """
    inf = _highs_core().kHighsInf
    eq = np.zeros(num_eq)
    cap_lower = np.full(caps.size, -inf)
    cap_upper = np.asarray(caps, dtype=float)
    if eq_first:
        return np.concatenate([eq, cap_lower]), np.concatenate([eq, cap_upper])
    return np.concatenate([cap_lower, eq]), np.concatenate([cap_upper, eq])


def build_model(
    cost: np.ndarray,
    start: np.ndarray,
    index: np.ndarray,
    value: np.ndarray,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
):
    """A HiGHS model of ``min cost . x`` over ``x >= 0``.

    The constraint matrix is column-wise CSC (``start`` / ``index`` /
    ``value``) with ``row_lower <= row <= row_upper`` (see
    :func:`row_bounds`).  Output is off and the solver runs on one
    thread.
    """
    core = _highs_core()
    num_col = cost.size
    lp = core.HighsLp()
    lp.num_col_ = num_col
    lp.num_row_ = row_lower.size
    lp.col_cost_ = cost
    lp.col_lower_ = np.zeros(num_col)
    lp.col_upper_ = np.full(num_col, core.kHighsInf)
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.asarray(start, dtype=np.int32)
    lp.a_matrix_.index_ = np.asarray(index, dtype=np.int32)
    lp.a_matrix_.value_ = np.asarray(value, dtype=float)

    h = core._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("threads", 1)
    h.passModel(lp)
    return h


def raise_for_status(
    h,
    formulation: str,
    context: Optional[Mapping[str, Any]] = None,
    iterations: int = 0,
) -> None:
    """Map a non-optimal model status of a live model to a typed exception.

    Returns silently at ``kOptimal``; otherwise raises the class of the
    status's ``_FAILURES`` entry, carrying ``iterations``, the
    simplex/IPM work spent so far.
    """
    status = h.getModelStatus()
    if status == _highs_core().HighsModelStatus.kOptimal:
        return
    raise _failure(status)[0](
        f"{formulation} LP failed: HiGHS reported "
        f"{h.modelStatusToString(status)}",
        formulation=formulation,
        iterations=iterations,
        context=context,
    )


def engine_label(warm: Optional[str] = None) -> str:
    """What a solver context's solves run on, for its ``stats()``.

    ``warm="live"`` — ``highs-core``: a live core model re-solved from
    its basis (colgen); ``warm="basis"`` — ``highs-core-basis``: a
    fresh core model per solve (:func:`solve`), started from the last
    optimal basis (the edge LP's ``mode=core``); otherwise
    ``highs-core-cold``: a fresh core model per solve, solved cold;
    ``linprog``: no core bindings in this scipy.
    """
    if not have_highs_core():
        return "linprog"
    return {"live": "highs-core", "basis": "highs-core-basis"}.get(
        warm, "highs-core-cold"
    )


#: The one map from a non-optimal HiGHS model status to its failure:
#: the class a live model raises (:func:`raise_for_status`), then
#: ``linprog``'s status code and message prefix, which :func:`solve`
#: copies.  The columns disagree where ``linprog`` does:
#: unbounded-or-infeasible is code 4 (numerical) in :func:`solve` but
#: infeasible live, and a model error is code 2 (infeasible) in
#: :func:`solve` but numerical live.
_FAILURES = {
    "kTimeLimit": (SolverNumericalError, 1, "Time limit reached. "),
    "kIterationLimit": (SolverNumericalError, 1, "Iteration limit reached. "),
    "kModelError": (SolverNumericalError, 2, ""),
    "kInfeasible": (InfeasibleError, 2, "The problem is infeasible. "),
    "kUnbounded": (UnboundedError, 3, "The problem is unbounded. "),
    "kUnboundedOrInfeasible": (
        InfeasibleError, 4, "The problem is unbounded or infeasible. ",
    ),
}


def _failure(status) -> Tuple[type, int, str]:
    """``status``'s ``_FAILURES`` entry; any status not listed fails
    as numerical, code 4, without a prefix."""
    statuses = _highs_core().HighsModelStatus
    for name, entry in _FAILURES.items():
        if status == getattr(statuses, name, None):
            return entry
    return SolverNumericalError, 4, ""


#: ``linprog``'s residual check on an optimum (``sqrt(tol) * 10`` at its
#: default ``tol`` of 1e-9).
_RESIDUAL_TOL = np.sqrt(1e-9) * 10


class Solution(NamedTuple):
    """What :func:`solve` returns for a checked optimum."""

    x: np.ndarray
    #: ``row_dual[:caps.size]`` is ``linprog``'s ``ineqlin.marginals``,
    #: the rest its ``eqlin.marginals``.
    row_dual: np.ndarray
    iterations: int
    #: The optimum's final basis (a few status bytes per row and column,
    #: no live model), or ``None`` where scipy lacks the core.
    basis: Any
    #: True when the simplex started from the given basis; False for a
    #: cold solve, including one whose basis HiGHS rejected.
    warm: bool


def solve(
    cost: np.ndarray,
    matrix,
    caps: np.ndarray,
    *,
    formulation: str,
    context: Optional[Mapping[str, Any]] = None,
    basis: Any = None,
) -> Solution:
    """One solve of ``min cost . x`` over ``x >= 0`` on a fresh model.

    ``matrix`` is a scipy CSC matrix whose first ``caps.size`` rows are
    capacities (``row <= caps``; one per arc, or one per cable for the
    mirror-folded edge LP of a symmetric TM) and whose remaining rows
    are equalities to zero: ``linprog``'s ``[A_ub; A_eq]`` stack.  Without
    a ``basis`` the model gets ``linprog``'s bounds and options
    (presolve on, dual simplex), so ``x`` and the iteration count are
    byte-identical to ``linprog`` on the same rows.  With the basis of
    an earlier optimum over the same rows and columns (only
    coefficient values may differ), presolve is off and the dual
    simplex starts from that basis: the same objective to solver
    tolerance, usually in far fewer iterations, though a degenerate LP
    may end at another optimal vertex.  A basis HiGHS rejects is
    dropped and the solve runs cold, as without one.

    Returns a :class:`Solution`.  A non-optimal solve raises the
    :class:`~repro.throughput.errors.SolverFailure` that
    :func:`~repro.throughput.errors.raise_for_linprog` raises on the
    ``linprog`` result: same class, ``status_code`` and iterations, and
    the same message for every status ``linprog`` names.
    """
    core = _highs_core()
    if core is None:
        return _solve_linprog(cost, matrix, caps, formulation, context)
    h = build_model(
        cost, matrix.indptr, matrix.indices, matrix.data,
        *row_bounds(caps, matrix.shape[0] - caps.size, eq_first=False),
    )
    h.setOptionValue("presolve", "on" if basis is None else "off")
    h.setOptionValue("simplex_strategy", 1)  # dual
    warm = basis is not None and h.setBasis(basis) == core.HighsStatus.kOk
    if basis is not None and not warm:
        h.setOptionValue("presolve", "on")
    run_status = h.run()
    info = h.getInfo()
    iterations = 0
    if run_status != core.HighsStatus.kError:  # linprog reports none then
        iterations = int(
            info.simplex_iteration_count or info.ipm_iteration_count
        )
    obs.add("lp.solver_iterations", iterations)
    status = h.getModelStatus()
    if status == core.HighsModelStatus.kOptimal:
        solution = h.getSolution()
        x = np.array(solution.col_value)
        row_value = np.asarray(solution.row_value)
        m = caps.size
        code, message = 0, ""
        if not (
            np.all(x >= -_RESIDUAL_TOL)
            and np.all(row_value[:m] - caps <= _RESIDUAL_TOL)
            and np.all(np.abs(row_value[m:]) <= _RESIDUAL_TOL)
        ):
            code, message = 4, (
                "The solution does not satisfy the constraints within "
                f"the required tolerance of {_RESIDUAL_TOL:.2E}"
            )
    else:
        x = None
        _, code, prefix = _failure(status)
        message = (
            f"{prefix}(HiGHS Status {int(status)}: model_status is "
            f"{h.modelStatusToString(status)}; primal_status is "
            f"{h.solutionStatusToString(info.primal_solution_status)})"
        )
    # Raises unless ``code`` is 0, i.e. a checked optimum.
    raise_for_linprog(
        SimpleNamespace(
            status=code, success=code == 0, x=x, nit=iterations,
            message=message,
        ),
        formulation=formulation,
        context=context,
    )
    return Solution(
        x, np.array(solution.row_dual), iterations, h.getBasis(), warm
    )


def _solve_linprog(cost, matrix, caps, formulation, context):
    """:func:`solve` on a scipy build without the core bindings (no
    basis: the warm edge LP needs the core)."""
    m = caps.size
    res = linprog(
        cost,
        A_ub=matrix[:m],
        b_ub=caps,
        A_eq=matrix[m:],
        b_eq=np.zeros(matrix.shape[0] - m),
        bounds=(0, None),
        method="highs",
    )
    iterations = int(getattr(res, "nit", 0) or 0)
    obs.add("lp.solver_iterations", iterations)
    raise_for_linprog(res, formulation=formulation, context=context)
    row_dual = np.concatenate([res.ineqlin.marginals, res.eqlin.marginals])
    return Solution(res.x, row_dual, iterations, None, False)
