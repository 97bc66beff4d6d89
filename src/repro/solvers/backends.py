"""The built-in solver backends and their registry bindings.

Five backends under eight registry names:

* ``highs-exact`` (alias ``exact``) — one cold exact edge-LP call per TM
  via :func:`~repro.throughput.lp.max_concurrent_throughput`.
* ``highs-incremental`` (alias ``highs-batched``) — the same edge LP
  through a warm :class:`~repro.throughput.lp.EdgeLpContext`: cached
  constraint structure per demand support across sweep points and
  calls, and with the optional ``highspy`` dependency (the ``[perf]``
  extra) dual-simplex re-solves from the previous basis.  Knob ``mode``
  (auto / highspy / fallback); ``fallback`` is byte-identical to
  ``highs-exact``.  ``solve_many`` is what the harness Runner batches
  fixed-topology sweeps through.
* ``highs-colgen`` — exact *path* LP by column generation through a warm
  :class:`~repro.throughput.colgen.ColgenTopologyContext`: restricted
  master over a persistent path pool + dual-price pricing loop,
  converging to the same optimum as ``highs-exact`` with masters small
  enough to scale an order of magnitude further.  Knobs ``k``,
  ``phases``, ``passes``, ``max_rounds``, ``mode`` (auto / core /
  fallback).
* ``highs-paths`` (alias ``paths``) — k-shortest-paths LP lower bound
  via :func:`~repro.throughput.lp.path_throughput`, which is the
  colgen master solved once with pricing off; knob ``k``.  A cold
  backend with no context: a shared warm colgen pool would carry priced
  columns and lift the bound toward the exact optimum.
* ``mcf-approx`` — the Fleischer/Garg–Könemann FPTAS
  (:func:`~repro.throughput.mcf.approx_concurrent_throughput`); knob
  ``epsilon`` in (0, 0.5), guaranteeing a (1 - O(epsilon)) fraction of
  the exact optimum (never above it).

Every outcome carries the registry name the caller asked for
(``exact`` reports ``exact``, ``highs-batched`` reports
``highs-batched``).
"""

from __future__ import annotations

import numbers
from typing import Any, Callable, Optional

from ..throughput.colgen import ColgenTopologyContext, have_highs_core
from ..throughput.lp import (
    EdgeLpContext,
    ThroughputResult,
    have_highspy,
    max_concurrent_throughput,
    path_throughput,
)
from ..throughput.mcf import approx_concurrent_throughput
from .base import SolverBackend, WarmBackend

__all__ = [
    "HighsExactBackend",
    "HighsPathsBackend",
    "HighsIncrementalBackend",
    "HighsColgenBackend",
    "McfApproxBackend",
    "register_builtin_solvers",
]


def _int_knob(name: str, value: Any, minimum: int) -> int:
    """``value`` as an ``int`` of at least ``minimum``.

    Spec strings parse ``k=2.5`` to a float and ``k=abc`` to a string;
    both are rejected here rather than truncated or compared, so a
    knob never silently solves a different model than it names.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)


class HighsExactBackend(SolverBackend):
    """Exact edge LP, one self-contained HiGHS call per TM."""

    name = "highs-exact"
    #: Shares the warm edge-LP context of ``highs-incremental`` where a
    #: caller keeps contexts (the API); ``solve`` stays cold per call.
    context_kind = EdgeLpContext.kind

    def _solve_result(self, topology, tm, per_server_demand: float) -> ThroughputResult:
        return max_concurrent_throughput(topology, tm, per_server_demand)

    def new_context(self, topology) -> EdgeLpContext:
        return EdgeLpContext(topology)


class HighsIncrementalBackend(WarmBackend):
    """Exact edge LP with cross-point *and* cross-call warm starts.

    ``mode`` selects the engine: ``"auto"`` uses ``highspy`` when the
    ``[perf]`` extra is installed and falls back to the pure-scipy
    structure-reuse path otherwise; ``"highspy"`` requires the extra;
    ``"fallback"`` forces scipy (the byte-identical-to-``highs-exact``
    path) even when ``highspy`` is available.
    """

    name = "highs-incremental"
    context_kind = EdgeLpContext.kind

    def __init__(self, mode: str = "auto"):
        super().__init__()
        if mode not in ("auto", "highspy", "fallback"):
            raise ValueError(
                f"mode must be auto/highspy/fallback, got {mode!r}"
            )
        if mode == "highspy" and not have_highspy():
            raise ValueError(
                "mode='highspy' needs the optional highspy dependency; "
                "install the [perf] extra (pip install 'repro[perf]')"
            )
        self.mode = mode

    def new_context(self, topology) -> EdgeLpContext:
        use_highspy = None if self.mode == "auto" else self.mode == "highspy"
        return EdgeLpContext(topology, use_highspy=use_highspy)


class HighsColgenBackend(WarmBackend):
    """Exact path LP by column generation, with a persistent path pool.

    ``mode`` selects the engine: ``"auto"`` uses the scipy-bundled
    HiGHS core when importable (warm ``addCols`` re-solves) and the
    pure-``linprog`` loop otherwise; ``"core"`` requires the bundled
    core; ``"fallback"`` forces ``linprog`` (tests, portability).
    """

    name = "highs-colgen"
    context_kind = ColgenTopologyContext.kind

    def __init__(
        self,
        k: int = 2,
        phases: Optional[int] = None,
        passes: int = 4,
        max_rounds: int = 200,
        mode: str = "auto",
    ):
        super().__init__()
        if mode not in ("auto", "core", "fallback"):
            raise ValueError(
                f"mode must be auto/core/fallback, got {mode!r}"
            )
        if mode == "core" and not have_highs_core():
            raise ValueError(
                "mode='core' needs scipy's bundled HiGHS core "
                "(scipy.optimize._highspy), which this scipy build lacks; "
                "use mode='auto' or 'fallback'"
            )
        self.k = _int_knob("k", k, 1)
        self.phases = None if phases is None else _int_knob("phases", phases, 0)
        self.passes = _int_knob("passes", passes, 1)
        # max_rounds=0 is the pricing-off master (highs-paths): never
        # exact, so this backend requires at least one pricing round.
        self.max_rounds = _int_knob("max_rounds", max_rounds, 1)
        self.mode = mode

    def new_context(self, topology) -> ColgenTopologyContext:
        return ColgenTopologyContext(
            topology,
            k=self.k,
            phases=self.phases,
            passes=self.passes,
            max_rounds=self.max_rounds,
            use_core=None if self.mode == "auto" else self.mode == "core",
        )


class HighsPathsBackend(SolverBackend):
    """k-shortest-paths LP: a lower bound that scales past the exact LP.

    Deliberately context-free (``context_kind = None``): it must never
    share a warm colgen path pool, whose priced columns would lift the
    k-paths bound toward the exact optimum.
    """

    name = "highs-paths"

    def __init__(self, k: int = 8):
        self.k = _int_knob("k", k, 1)

    def _solve_result(self, topology, tm, per_server_demand: float) -> ThroughputResult:
        return path_throughput(
            topology, tm, k=self.k, per_server_demand=per_server_demand
        )


class McfApproxBackend(SolverBackend):
    """Fleischer FPTAS: (1 - O(epsilon))-approximate, LP-free."""

    name = "mcf-approx"

    def __init__(self, epsilon: float = 0.05):
        if not 0 < epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
        self.epsilon = float(epsilon)

    def _solve_result(self, topology, tm, per_server_demand: float) -> ThroughputResult:
        return approx_concurrent_throughput(
            topology, tm, epsilon=self.epsilon,
            per_server_demand=per_server_demand,
        )


def _alias(cls, name: str) -> Callable[..., Any]:
    """A registry factory building ``cls`` that reports ``name``."""

    def build(**params: Any):
        backend = cls(**params)
        backend.name = name
        return backend

    build.supports_batching = cls.supports_batching
    return build


def register_builtin_solvers(registry) -> None:
    """Register the built-in backends (idempotent; called by the lazy
    loader of :data:`repro.registry.SOLVERS`)."""
    registry.register(
        "highs-exact", HighsExactBackend,
        "exact edge LP, one HiGHS call per TM",
    )
    registry.register(
        "exact", _alias(HighsExactBackend, "exact"), "alias of highs-exact"
    )
    registry.register(
        "highs-incremental", HighsIncrementalBackend,
        "exact edge LP, warm-started across sweep points (structure + "
        "basis reuse with the optional highspy [perf] extra; pure-scipy "
        "fallback stays byte-identical to highs-exact); mode",
    )
    registry.register(
        "highs-batched", _alias(HighsIncrementalBackend, "highs-batched"),
        "alias of highs-incremental: exact edge LP, batches "
        "fixed-topology sweeps; mode",
    )
    registry.register(
        "highs-colgen", HighsColgenBackend,
        "exact path LP by column generation (restricted master + "
        "dual-price pricing loop); scales past the edge LP; persistent "
        "path pool warm-starts repeat solves; k, phases, passes, "
        "max_rounds, mode",
    )
    registry.register(
        "highs-paths", HighsPathsBackend,
        "k-shortest-paths LP lower bound; k",
    )
    registry.register(
        "paths", _alias(HighsPathsBackend, "paths"), "alias of highs-paths; k"
    )
    registry.register(
        "mcf-approx", McfApproxBackend,
        "Fleischer (1-O(eps)) FPTAS; epsilon in (0, 0.5)",
    )
