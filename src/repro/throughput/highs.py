"""The one HiGHS binding behind every LP solve.

Every LP in the library reaches HiGHS through scipy's bundled core
bindings, ``scipy.optimize._highspy._core``, and this module is the only
one that imports them.  It holds the lazy loader, the one model builder
and the two ways a model is solved:

* **warm** — the edge LP's basis reuse
  (:class:`~repro.throughput.lp.EdgeLpContext` with ``use_core=True``)
  and column generation's ``addCols`` loop
  (:mod:`repro.throughput.colgen`) keep a live model and re-solve it
  from the previous basis; :func:`raise_for_status` maps its model
  status to the typed :mod:`~repro.throughput.errors` failures through
  the one status table, ``_FAILURES``, that cold solves also read;
* **cold** — :func:`solve_cold` builds a fresh model in
  ``scipy.optimize.linprog``'s exact row layout and options, solves it
  once and returns what ``linprog`` would, byte for byte, without
  ``linprog``'s input conversion and result copying.  On a scipy build
  without the core bindings it calls ``linprog`` itself: the one
  ``linprog`` call in the library.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace
from typing import Any, Mapping, Optional, Tuple

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
    "solve_cold",
    "engine_label",
]

_CORE: Optional[Any] = None
_CORE_CHECKED = False
_CORE_LOCK = threading.Lock()


def have_highs_core() -> bool:
    """Whether scipy's bundled HiGHS core bindings import.

    They ship with every scipy build that has the HiGHS ``linprog``
    methods; no extra install is involved.  Where they are absent (or
    their surface moved) cold solves go through ``linprog`` and the
    warm engines are unavailable: same optimum, no warm re-solves.
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
    one ``row <= cap`` row per arc.  The warm engines put the
    equalities first (``eq_first=True``); ``linprog`` stacks the
    capacities first, and :func:`solve_cold` follows it.
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
    """Map a non-optimal model status of a warm model to a typed exception.

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


def engine_label(live_model: bool) -> str:
    """What a solver context's solves run on, for its ``stats()``.

    ``highs-core``: a live core model re-solved from its basis;
    ``highs-core-cold``: a fresh core model per solve
    (:func:`solve_cold`); ``linprog``: no core bindings in this scipy.
    """
    if live_model:
        return "highs-core"
    return "highs-core-cold" if have_highs_core() else "linprog"


#: The one map from a non-optimal HiGHS model status to its failure:
#: the class a warm engine raises (:func:`raise_for_status`), then
#: ``linprog``'s status code and message prefix, which a cold solve
#: copies (:func:`solve_cold`).  The columns disagree where ``linprog``
#: does: unbounded-or-infeasible is code 4 (numerical) cold but
#: infeasible warm, and a model error is code 2 (infeasible) cold but
#: numerical warm.
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


def solve_cold(
    cost: np.ndarray,
    matrix,
    caps: np.ndarray,
    *,
    formulation: str,
    context: Optional[Mapping[str, Any]] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """One cold solve of ``min cost . x`` over ``x >= 0``, as ``linprog``.

    ``matrix`` is a scipy CSC matrix whose first ``caps.size`` rows are
    arc capacities (``row <= caps``) and whose remaining rows are
    equalities to zero: ``linprog``'s ``[A_ub; A_eq]`` stack.  The model
    gets ``linprog``'s bounds and options (presolve on, dual simplex),
    so ``x`` and the iteration count are byte-identical to ``linprog``
    on the same rows.

    Returns ``(x, row_dual, iterations)``: ``row_dual[:caps.size]`` is
    ``linprog``'s ``ineqlin.marginals`` and the rest its
    ``eqlin.marginals``.  A non-optimal solve raises the
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
    h.setOptionValue("presolve", "on")
    h.setOptionValue("simplex_strategy", 1)  # dual
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
    return x, np.array(solution.row_dual), iterations


def _solve_linprog(cost, matrix, caps, formulation, context):
    """:func:`solve_cold` on a scipy build without the core bindings."""
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
    return res.x, row_dual, iterations
