"""Solver-backend protocol: typed outcomes instead of raw exceptions.

A :class:`SolverBackend` turns ``(topology, traffic matrix)`` into a
:class:`SolveOutcome` — a status enum plus the
:class:`~repro.throughput.lp.ThroughputResult` when the solve reached an
optimum.  Non-optimal solves do not raise out of ``solve``: the typed
:class:`~repro.throughput.errors.SolverFailure` is caught, classified,
and carried on the outcome so sweeps and campaigns can record the point
and continue.  Callers that want the exception back (e.g. the harness,
whose failure records are built from exceptions) call
:meth:`SolveOutcome.raise_for_status`.

Every solve is observed: a ``solver.solve`` span per call and a
``solver.status.<status>`` counter per outcome.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..perf import topology_content_hash
from ..throughput.errors import InfeasibleError, SolverFailure, UnboundedError
from ..throughput.lp import ThroughputResult

__all__ = [
    "SolveStatus",
    "SolveOutcome",
    "SolverBackend",
    "WarmBackend",
    "solve_outcome",
    "warm_start_stats",
    "reset_warm_start_stats",
]


class SolveStatus(str, Enum):
    """Terminal state of one solve (string-valued: JSON/counter ready)."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL = "numerical"


def _status_of(exc: SolverFailure) -> SolveStatus:
    if isinstance(exc, InfeasibleError):
        return SolveStatus.INFEASIBLE
    if isinstance(exc, UnboundedError):
        return SolveStatus.UNBOUNDED
    return SolveStatus.NUMERICAL


@dataclass
class SolveOutcome:
    """One solve, classified.

    Attributes
    ----------
    status:
        Terminal :class:`SolveStatus`.
    backend:
        The registry name the caller asked for (an alias reports
        itself: ``exact``, ``highs-batched``, ``paths``).
    result:
        The :class:`ThroughputResult` when ``status`` is optimal, else
        ``None``.
    iterations:
        Solver iterations spent (phases for ``mcf-approx``).
    wall_time_s:
        Wall-clock time of this solve, including assembly.
    message:
        Failure message (empty on optimal outcomes).
    error:
        The caught :class:`SolverFailure` for non-optimal outcomes.
    warm_started:
        True when the solve reused state from an earlier solve — an
        assembled LP structure (warm edge LP) or a path pool covering
        every demand (colgen); always False for cold paths.
    basis_reused:
        True when the solver additionally re-solved with dual simplex
        from the previous basis (the warm edge LP with ``mode=core``;
        the default cold path reuses structure but not bases).
    """

    status: SolveStatus
    backend: str
    result: Optional[ThroughputResult] = None
    iterations: int = 0
    wall_time_s: float = 0.0
    message: str = ""
    error: Optional[SolverFailure] = field(default=None, repr=False)
    warm_started: bool = False
    basis_reused: bool = False

    @property
    def ok(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def raise_for_status(self) -> "SolveOutcome":
        """Re-raise the typed failure for non-optimal outcomes; else self."""
        if self.ok:
            return self
        if self.error is not None:
            raise self.error
        raise SolverFailure(
            self.message or f"solver reported {self.status.value}",
            context={"backend": self.backend},
        )


# ----------------------------------------------------------------------
# Process-global warm-start counters (mirrored to obs)
# ----------------------------------------------------------------------
_STATS_LOCK = threading.Lock()
_STATS_KEYS = (
    "hit",
    "miss",
    "context_hit",
    "context_miss",
    "basis_reused",
    "models_built",
)
_STATS: Dict[str, int] = {k: 0 for k in _STATS_KEYS}


def _note(key: str, amount: int = 1) -> None:
    with _STATS_LOCK:
        _STATS[key] += amount
    obs.add(f"solver.warm_start.{key}", amount)


def warm_start_stats() -> Dict[str, int]:
    """Process-wide ``solver.warm_start.*`` counts (JSON-ready copy)."""
    with _STATS_LOCK:
        return dict(_STATS)


def reset_warm_start_stats() -> None:
    """Zero the process-wide counters (tests)."""
    with _STATS_LOCK:
        for k in _STATS_KEYS:
            _STATS[k] = 0


def solve_outcome(
    backend: str, call: Callable[[Dict[str, Any]], ThroughputResult]
) -> SolveOutcome:
    """Run one solve callable under observability and classify the result.

    ``call(flags)`` either returns a :class:`ThroughputResult` (→
    optimal) or raises a :class:`SolverFailure` subclass (→ the matching
    non-optimal status).  Non-solver exceptions propagate untouched — a
    bug in the formulation should not masquerade as a solver outcome.

    Warm contexts fill ``flags`` with their per-solve ``warm_started`` /
    ``basis_reused`` (plus ``model_built`` or ``pricing_rounds``); the
    flags land on the outcome, on the ``solver.solve`` span and in the
    ``solver.warm_start.*`` counters.  Because every solve owns its own
    ``flags``, concurrent solves on one context never see each other's.
    """
    t0 = time.perf_counter()
    status = SolveStatus.OPTIMAL
    result: Optional[ThroughputResult] = None
    message = ""
    error: Optional[SolverFailure] = None
    iterations = 0
    flags: Dict[str, Any] = {}
    with obs.span("solver.solve", backend=backend) as span:
        try:
            result = call(flags)
            iterations = result.iterations
        except SolverFailure as exc:
            status = _status_of(exc)
            message = str(exc)
            error = exc
            iterations = exc.iterations
        attrs = getattr(span, "attrs", None)
        if attrs is not None:
            attrs.update(flags)
    if "warm_started" in flags:
        _note("hit" if flags["warm_started"] else "miss")
    if flags.get("basis_reused"):
        _note("basis_reused")
    if flags.get("model_built"):
        _note("models_built")
    obs.add(f"solver.status.{status.value}")
    return SolveOutcome(
        status=status,
        backend=backend,
        result=result,
        iterations=iterations,
        wall_time_s=time.perf_counter() - t0,
        message=message,
        error=error,
        warm_started=bool(flags.get("warm_started")),
        basis_reused=bool(flags.get("basis_reused")),
    )


class SolverBackend:
    """Base class for throughput solver backends.

    Subclasses set :attr:`name`, implement :meth:`_solve_result`
    (returning a ``ThroughputResult`` or raising ``SolverFailure``), and
    may override :meth:`solve_many` to amortize per-topology work across
    a batch — setting :attr:`supports_batching` so the harness
    :class:`~repro.harness.runner.Runner` knows it can group
    fixed-topology sweep points onto one solver context.

    Backends whose formulation has a per-topology context also set
    :attr:`context_kind` and implement :meth:`new_context`; a caller
    that keeps its own contexts (the API's warm state) then solves
    through :meth:`solve_in`.  Backends with equal ``context_kind`` and
    parameters can share one context.
    """

    name: str = "abstract"
    #: True when a batch amortizes shared structure (the Runner solves
    #: fixed-topology lp points of such a backend on one context).
    supports_batching: bool = False
    #: The ``kind`` of the context :meth:`new_context` builds, or
    #: ``None`` for context-free backends.
    context_kind: Optional[str] = None

    def _solve_result(self, topology, tm, per_server_demand: float) -> ThroughputResult:
        raise NotImplementedError

    def new_context(self, topology):
        """A fresh per-topology context (backends with a ``context_kind``)."""
        raise NotImplementedError(f"{self.name} keeps no solver context")

    def solve_in(
        self, context, tm, per_server_demand: float = 1.0, warm: bool = True
    ) -> SolveOutcome:
        """Solve one TM on a context from :meth:`new_context`."""
        return solve_outcome(
            self.name,
            lambda flags: context.solve(tm, per_server_demand, warm, flags),
        )

    def solve(self, topology, tm, per_server_demand: float = 1.0) -> SolveOutcome:
        """Solve one TM on one topology; never raises on solver failure."""
        return solve_outcome(
            self.name,
            lambda _flags: self._solve_result(topology, tm, per_server_demand),
        )

    def solve_many(
        self,
        topology,
        tms: Sequence,
        per_server_demand: float = 1.0,
        warm: bool = True,
    ) -> List[SolveOutcome]:
        """Solve many TMs on one topology (default: sequential solves).

        ``warm=True`` permits the backend to reuse state from earlier
        points or earlier calls (model structure, simplex bases); cold
        backends ignore it.  ``warm=False`` demands every point be
        solved from scratch — the contract equivalence tests and cold
        baselines rely on.
        """
        del warm  # sequential per-point solves carry no reusable state
        return [self.solve(topology, tm, per_server_demand) for tm in tms]


class WarmBackend(SolverBackend):
    """A backend that solves through a per-topology context it keeps.

    Holds one context for the most recent topology, keyed on its
    capacity-aware content hash
    (:func:`~repro.perf.topology_content_hash` with ``capacities=True``),
    so any topology change — a capacity-only one included — builds a
    fresh context instead of reusing stale structure.
    ``solve_many(..., warm=True)`` reuses the context across calls;
    ``warm=False`` solves every point cold and caches nothing.
    """

    supports_batching = True

    def __init__(self) -> None:
        self._context = None
        self._context_key: Optional[str] = None
        self._lock = threading.Lock()

    def context_for(self, topology, warm: bool = True) -> Tuple[Any, bool]:
        """The (possibly reused) context for ``topology``.

        Returns ``(context, was_reused)``; with ``warm`` a new context
        replaces the live one.
        """
        key = topology_content_hash(topology, capacities=True)
        with self._lock:
            if warm and self._context is not None and self._context_key == key:
                _note("context_hit")
                return self._context, True
            _note("context_miss")
            context = self.new_context(topology)
            if warm:
                self._context, self._context_key = context, key
            return context, False

    def context_stats(self) -> Optional[Dict[str, Any]]:
        """Stats of the live context (``None`` before the first warm solve)."""
        with self._lock:
            context = self._context
        return None if context is None else context.stats()

    def solve(self, topology, tm, per_server_demand: float = 1.0) -> SolveOutcome:
        """Solve one TM; warm-starts off prior calls on the same topology."""
        return self.solve_many(topology, [tm], per_server_demand)[0]

    def solve_many(
        self,
        topology,
        tms: Sequence,
        per_server_demand: float = 1.0,
        warm: bool = True,
    ) -> List[SolveOutcome]:
        context, reused = self.context_for(topology, warm=warm)
        with obs.span(
            "solver.solve_many",
            backend=self.name,
            points=len(tms),
            context_reused=reused,
        ):
            return [
                self.solve_in(context, tm, per_server_demand, warm)
                for tm in tms
            ]
