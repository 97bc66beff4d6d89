"""Multi-backend throughput solving behind the fluid-flow engine.

The throughput engine historically hard-wired two code paths (exact /
paths LP) and raised bare exceptions on failure.  This package puts a
backend abstraction in front of it:

* :class:`SolverBackend` — ``solve(topology, tm)`` →
  :class:`SolveOutcome` (status enum: optimal / infeasible / unbounded /
  numerical, iterations, wall time), plus ``solve_many`` for batches;
  :class:`WarmBackend` is the shared shape of the backends that keep a
  per-topology context;
* ``highs-exact`` / ``highs-incremental`` (alias ``highs-batched``) /
  ``highs-colgen`` / ``highs-paths`` / ``mcf-approx`` — the built-in
  backends (see :mod:`repro.solvers.backends`);
* registry integration — backends live in
  :data:`repro.registry.SOLVERS` and are selectable from
  ``ExperimentSpec`` (``workload.solver``), sweep JSON, the CLI
  (``--solver``) and the API as one spec string with its knobs;
  ``repro.registry.solver("mcf-approx:epsilon=0.1")`` builds one.

The exact edge LP has one implementation,
:class:`~repro.throughput.lp.EdgeLpContext`: ``highs-exact`` uses it
one-shot, ``highs-incremental`` / ``highs-batched`` keep it warm.  Its
default cold path (a fresh HiGHS model per solve) is byte-identical to
``highs-exact``; with ``mode=core`` warm solves re-solve with dual
simplex from the previous basis on a live model.  Every LP runs on
scipy's bundled HiGHS core through one binding
(:func:`have_highs_core` says whether it imports; without it, cold
solves call ``linprog``).
``mcf-approx`` is guaranteed within its (1 - O(epsilon)) bound and
never above the exact optimum.
See ``docs/solvers.md`` and the warm-start section of
``docs/performance.md``.
"""

from ..throughput.highs import have_highs_core
from .backends import (
    HighsColgenBackend,
    HighsExactBackend,
    HighsIncrementalBackend,
    HighsPathsBackend,
    McfApproxBackend,
    register_builtin_solvers,
)
from .base import (
    SolveOutcome,
    SolveStatus,
    SolverBackend,
    WarmBackend,
    reset_warm_start_stats,
    solve_outcome,
    warm_start_stats,
)

__all__ = [
    "SolveStatus",
    "SolveOutcome",
    "SolverBackend",
    "WarmBackend",
    "solve_outcome",
    "HighsExactBackend",
    "HighsIncrementalBackend",
    "HighsColgenBackend",
    "HighsPathsBackend",
    "McfApproxBackend",
    "have_highs_core",
    "warm_start_stats",
    "reset_warm_start_stats",
    "register_builtin_solvers",
]
