"""The one HiGHS binding behind the warm LP engines.

The edge LP's basis reuse (:class:`~repro.throughput.lp.EdgeLpContext`
with ``use_core=True``) and column generation's ``addCols`` loop
(:mod:`repro.throughput.colgen`) drive persistent HiGHS models through
scipy's bundled core bindings, ``scipy.optimize._highspy._core``.  This
module is the only one that imports them.  It holds the lazy loader, the
model builder both engines share, and the one map from a HiGHS model
status to the typed :mod:`~repro.throughput.errors` failures.  Cold
solves go through ``scipy.optimize.linprog`` and
:func:`~repro.throughput.errors.raise_for_linprog` instead.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping, Optional

import numpy as np

from .errors import InfeasibleError, SolverNumericalError, UnboundedError

__all__ = ["have_highs_core", "build_model", "raise_for_status"]

_CORE: Optional[Any] = None
_CORE_CHECKED = False
_CORE_LOCK = threading.Lock()


def have_highs_core() -> bool:
    """Whether scipy's bundled HiGHS core bindings import.

    They ship with every scipy build that has the HiGHS ``linprog``
    methods; no extra install is involved.  Where they are absent (or
    their surface moved) the warm engines fall back to ``linprog``:
    same optimum, no warm re-solves.
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
                for attr in ("_Highs", "HighsLp", "kHighsInf",
                             "MatrixFormat", "HighsModelStatus"):
                    if not hasattr(_core, attr):
                        raise ImportError(f"missing {attr}")
                _CORE = _core
            except ImportError:
                _CORE = None
        return _CORE


def build_model(
    cost: np.ndarray,
    start: np.ndarray,
    index: np.ndarray,
    value: np.ndarray,
    num_eq: int,
    caps: np.ndarray,
):
    """A HiGHS model of ``min cost . x`` over ``x >= 0``.

    The constraint matrix is column-wise CSC (``start`` / ``index`` /
    ``value``).  Its first ``num_eq`` rows are equalities to zero
    (conservation or demand rows); the remaining ``caps.size`` rows are
    arc capacities, ``row <= caps``.  That is the shape of both
    max-concurrent-flow formulations.  Output is off and the solver
    runs on one thread.
    """
    core = _highs_core()
    inf = core.kHighsInf
    num_col = cost.size
    num_row = num_eq + caps.size
    lp = core.HighsLp()
    lp.num_col_ = num_col
    lp.num_row_ = num_row
    lp.col_cost_ = cost
    lp.col_lower_ = np.zeros(num_col)
    lp.col_upper_ = np.full(num_col, inf)
    row_lower = np.full(num_row, -inf)
    row_lower[:num_eq] = 0.0
    row_upper = np.zeros(num_row)
    row_upper[num_eq:] = caps
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
    """Map a non-optimal model status of ``h`` to a typed exception.

    Returns silently at ``kOptimal``.  Infeasible and
    unbounded-or-infeasible raise
    :class:`~repro.throughput.errors.InfeasibleError`, unbounded raises
    :class:`~repro.throughput.errors.UnboundedError`, and every other
    status (iteration or time limit, solve error, ...) raises
    :class:`~repro.throughput.errors.SolverNumericalError`.  The error
    carries ``iterations``, the simplex/IPM work spent so far.
    """
    statuses = _highs_core().HighsModelStatus
    status = h.getModelStatus()
    if status == statuses.kOptimal:
        return
    kinds = {
        statuses.kInfeasible: InfeasibleError,
        statuses.kUnbounded: UnboundedError,
        statuses.kUnboundedOrInfeasible: InfeasibleError,
    }
    raise kinds.get(status, SolverNumericalError)(
        f"{formulation} LP failed: HiGHS reported "
        f"{h.modelStatusToString(status)}",
        formulation=formulation,
        iterations=iterations,
        context=context,
    )
