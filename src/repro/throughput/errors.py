"""Typed failure taxonomy for the throughput solvers.

Historically the LP entry points raised a bare ``RuntimeError(res.message)``
on *any* scipy/HiGHS failure, collapsing "this TM is infeasible on this
degraded topology" (an experiment outcome) into the same exception as
"HiGHS hit numerical trouble" (a solver pathology).  The classes here
keep ``RuntimeError`` as the base so existing ``except RuntimeError``
callers continue to work, while letting the harness, the resilience
campaign runner, and :mod:`repro.solvers` distinguish outcomes and carry
the topology/TM context that makes a failure record debuggable.

HiGHS status codes (``scipy.optimize.OptimizeResult.status``):
0 optimal, 1 iteration limit, 2 infeasible, 3 unbounded, 4 numerical
difficulties.  Codes 1 and 4 both map to
:class:`SolverNumericalError` — neither says anything about the
problem itself, only about the solve.  A one-shot core solve
(:func:`repro.throughput.highs.solve`, cold or from a stored basis)
maps its HiGHS *model* status to these codes exactly as ``linprog``
does; colgen's live model reads the model status directly and
:func:`repro.throughput.highs.raise_for_status` maps it onto the same
classes.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

__all__ = [
    "SolverFailure",
    "InfeasibleError",
    "UnboundedError",
    "SolverNumericalError",
    "raise_for_linprog",
]


class SolverFailure(RuntimeError):
    """An LP solve did not produce a usable optimum.

    Subclasses ``RuntimeError`` for backward compatibility with callers
    that predate the taxonomy.

    Attributes
    ----------
    formulation:
        Which LP failed (``"exact"`` / ``"paths"``).
    status_code:
        The raw HiGHS status code, when the solver reported one.
    iterations:
        Simplex/IPM iterations spent before the failure.
    context:
        Free-form experiment context (topology name, demand count, ...)
        attached by the call site.
    """

    def __init__(
        self,
        message: str,
        *,
        formulation: str = "",
        status_code: Optional[int] = None,
        iterations: int = 0,
        context: Optional[Mapping[str, Any]] = None,
    ):
        self.formulation = formulation
        self.status_code = status_code
        self.iterations = iterations
        self.context = dict(context or {})
        parts = []
        if formulation:
            parts.append(f"formulation={formulation}")
        if status_code is not None:
            parts.append(f"status={status_code}")
        parts.extend(f"{k}={v}" for k, v in self.context.items())
        super().__init__(message + (f" ({', '.join(parts)})" if parts else ""))


class InfeasibleError(SolverFailure):
    """No flow assignment satisfies the constraints (HiGHS status 2)."""


class UnboundedError(SolverFailure):
    """The objective is unbounded — a malformed formulation (status 3)."""


class SolverNumericalError(SolverFailure):
    """The solver gave up: iteration limit, numerical difficulties, or a
    result with no solution vector (HiGHS statuses 1 and 4)."""


#: status code -> (exception class, reason used when scipy's message is empty)
_HIGHS_STATUS = {
    1: (SolverNumericalError, "iteration limit reached"),
    2: (InfeasibleError, "problem is infeasible"),
    3: (UnboundedError, "problem is unbounded"),
    4: (SolverNumericalError, "numerical difficulties encountered"),
}


def raise_for_linprog(
    res: Any,
    *,
    formulation: str,
    context: Optional[Mapping[str, Any]] = None,
) -> None:
    """Map a failed ``scipy.optimize.linprog`` result to a typed exception.

    Returns silently when ``res`` is a success carrying a solution
    vector.  The ``res.x is None`` guard runs first: a nominally
    "successful" result without a solution vector is still unusable and
    must not reach the ``res.x[t_var]`` extraction.
    """
    iterations = int(getattr(res, "nit", 0) or 0)
    status = getattr(res, "status", None)
    success = bool(getattr(res, "success", False))
    if getattr(res, "x", None) is None:
        cls, reason = _HIGHS_STATUS.get(
            status, (SolverNumericalError, "solver returned no solution vector")
        )
        message = getattr(res, "message", "") or reason
        raise cls(
            f"throughput LP returned no solution: {message}",
            formulation=formulation,
            status_code=status,
            iterations=iterations,
            context=context,
        )
    if success:
        return
    cls, reason = _HIGHS_STATUS.get(status, (SolverNumericalError, "solver failed"))
    message = getattr(res, "message", "") or reason
    raise cls(
        f"throughput LP failed: {message}",
        formulation=formulation,
        status_code=status,
        iterations=iterations,
        context=context,
    )
