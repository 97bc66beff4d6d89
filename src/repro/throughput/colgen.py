"""Path-based column generation for the exact max-concurrent-flow LP.

The destination-aggregated edge formulation (:mod:`repro.throughput.lp`)
carries ``#destinations x #arcs`` variables, which stops scaling near 64
switches.  This module solves the *same* problem — to the same optimum —
through its path formulation instead: a **restricted master problem**
over a pool of candidate paths, grown by a **pricing loop** until no
path anywhere in the graph could improve the optimum.

Master (variables: one flow per pooled path, plus the concurrency ``t``)::

    max  t
    s.t. sum(flows on demand i's paths) - t * d_i  = 0     (per demand)
         sum(flows crossing arc a)               <= cap_a  (per arc)

Pricing: at a master optimum, the duals price the network — ``lam_i``
per demand row and a nonnegative congestion price ``w_a`` per arc.  A
path for demand ``i`` has negative reduced cost iff its ``w``-length is
below ``lam_i``, so one multi-source Dijkstra over the arc prices finds
the best candidate column for *every* demand at once.  When no demand
has such a path, LP duality certifies the restricted optimum equals the
full-formulation optimum — the result is exact, not a bound, unlike
:func:`~repro.throughput.lp.path_throughput`'s fixed-k restriction.

Three tricks keep the loop short and the endgame honest:

* the pool is warm-started with k shortest paths per demand (served by
  the shared :class:`~repro.perf.PathCache`) plus a multiplicative-
  weights sweep (Garg–Könemann-style length inflation) that routes every
  demand over progressively congestion-averse trees — so the first
  master already contains a near-optimal support and pricing only has to
  patch the tail;
* the master runs at the solver's default tolerances while columns are
  still arriving, and only after pricing dries up are the feasibility
  tolerances tightened to 1e-10 for a **polish** re-solve from the
  current basis (cheap) followed by a final pricing pass that must come
  back clean — tight tolerances during the loop would pay a large
  simplex tax for duals that are about to change anyway;
* a duality-gap certificate is tracked every round: the master objective
  is a valid lower bound, and for *any* nonnegative arc prices ``w``,
  ``sum(cap * w) / sum(d_i * dist_w(s_i, t_i))`` bounds the optimum from
  above.

Two engines share the formulation, both through
:mod:`repro.throughput.highs`:

* warm — a live HiGHS model built once, new columns appended with
  ``addCols`` and re-solved from the previous basis;
* cold — the restricted master re-assembled each round and solved
  afresh by :func:`~repro.throughput.highs.solve` (byte-identical
  to ``linprog``, which it calls where scipy lacks the core) — same
  pool, same pricing, same stop rule, just without warm re-solves.

Degenerate conventions, the failure taxonomy, and the result type are
exactly those of :func:`~repro.throughput.lp.max_concurrent_throughput`.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .. import obs
from ..topologies.base import Topology
from ..traffic.matrix import TrafficMatrix
from .arcs import ArcTable
from . import highs
from .errors import SolverNumericalError
from .lp import (
    ThroughputResult,
    _component_labels,
    _drop_by_labels,
)

__all__ = [
    "ColgenStats",
    "ColgenTopologyContext",
    "path_colgen_throughput",
    "colgen_solve",
]

#: Pricing threshold: a path improves iff dist_w < lam - TOL.
_PRICE_TOL = 1e-10
#: Relative duality-gap certificate below which the loop may polish.
_GAP_TOL = 1e-10
#: Multiplicative-weights inflation rate for the pool-building sweep.
_MWU_EPS = 0.25

@dataclass
class ColgenStats:
    """Per-solve column-generation telemetry (JSON-ready).

    Attributes
    ----------
    engine:
        ``"highs-core"`` (warm ``addCols`` loop), ``"highs-core-cold"``
        (re-assembled masters, a fresh core model each) or
        ``"linprog"`` (re-assembled masters, no core bindings).
    rounds:
        Pricing rounds run (each = one master optimum priced).
    columns:
        Columns in the final restricted master (excluding ``t``).
    columns_added:
        Columns the pricing loop added beyond the initial pool.
    phases:
        Multiplicative-weights pool-building sweeps run.
    polishes:
        Tight-tolerance endgame re-solves (highs-core engine only).
    pool_warm:
        True when a persistent pool already covered every demand pair
        (warm context re-solve: the MWU sweep is skipped).
    """

    engine: str = "highs-core"
    rounds: int = 0
    columns: int = 0
    columns_added: int = 0
    phases: int = 0
    polishes: int = 0
    pool_warm: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "engine": self.engine,
            "rounds": self.rounds,
            "columns": self.columns,
            "columns_added": self.columns_added,
            "phases": self.phases,
            "polishes": self.polishes,
            "pool_warm": self.pool_warm,
        }


# ----------------------------------------------------------------------
# Shared per-solve machinery
# ----------------------------------------------------------------------
class _Pricer:
    """Demand arrays + shortest-path-tree column extraction.

    One multi-source Dijkstra (over the unique demand sources) prices
    every demand at once; tree paths are decoded into arc-id tuples by
    reading the predecessor matrix as Python ints (``pred.item``) and a
    per-tail ``{head: arc id}`` lookup (O(m), never an n^2 table).
    """

    def __init__(self, table: ArcTable, demands) -> None:
        self.table = table
        node_index = table.node_index
        self.nd = len(demands)
        self.dem_vals = np.asarray([v for _, v in demands], dtype=float)
        self.srcs = np.asarray(
            [node_index[s] for (s, _), _ in demands], dtype=np.intp
        )
        self.dsts = np.asarray(
            [node_index[d] for (_, d), _ in demands], dtype=np.intp
        )
        self.unique_srcs, self.inv = np.unique(self.srcs, return_inverse=True)

    @functools.cached_property
    def _graph(self) -> Tuple[Any, np.ndarray, List[Dict[int, int]], List]:
        """``(csr, perm, arc_of, walks)``, built on the first Dijkstra
        so a master solved without pricing never pays for them.

        ``arc_of[u][v]`` is the arc id of ``u -> v`` (node indices);
        ``walks[i]`` is demand i's ``(Dijkstra row, source,
        destination)``.
        """
        table = self.table
        csr, perm = table.csr_structure()
        arc_of: List[Dict[int, int]] = [{} for _ in range(table.num_nodes)]
        for a, (u, v) in enumerate(
            zip(table.tails.tolist(), table.heads.tolist())
        ):
            arc_of[u][v] = a
        walks = list(
            zip(self.inv.tolist(), self.srcs.tolist(), self.dsts.tolist())
        )
        return csr, perm, arc_of, walks

    def tree_paths(
        self, lengths: np.ndarray
    ) -> Tuple[List[Optional[Tuple[int, ...]]], np.ndarray]:
        """Shortest path per demand under per-arc ``lengths``.

        Returns ``(columns, dist)`` where ``columns[i]`` is demand i's
        tree path as an arc-id tuple (``None`` if unreachable) and
        ``dist`` is the raw Dijkstra distance matrix over the unique
        sources.
        """
        csr, perm, arc_of, walks = self._graph
        csr.data = lengths[perm]
        dist, pred = csgraph.dijkstra(
            csr, directed=True, indices=self.unique_srcs,
            return_predecessors=True,
        )
        reached = np.isfinite(self.demand_dists(dist)).tolist()
        # ``item`` reads one entry as a Python int: no numpy scalar per
        # hop, and no Python copy of the #sources x n matrix.
        pred_of = pred.item
        out: List[Optional[Tuple[int, ...]]] = []
        for ok, (row, s, v) in zip(reached, walks):
            if not ok:
                out.append(None)
                continue
            path: List[int] = []
            while v != s:
                u = pred_of(row, v)
                path.append(arc_of[u][v])
                v = u
            path.reverse()
            out.append(tuple(path))
        return out, dist

    def demand_dists(self, dist: np.ndarray) -> np.ndarray:
        """Per-demand source->destination distances from a Dijkstra run."""
        return dist[self.inv, self.dsts]


class _Pool:
    """The restricted master's column pool: arc-id tuples per demand."""

    def __init__(self, nd: int) -> None:
        self.cols: List[Tuple[int, ...]] = []
        self.owners: List[int] = []
        self._sets: List[set] = [set() for _ in range(nd)]

    def add(self, di: int, col: Tuple[int, ...]) -> bool:
        if col in self._sets[di]:
            return False
        self._sets[di].add(col)
        self.cols.append(col)
        self.owners.append(di)
        return True

    def __len__(self) -> int:
        return len(self.cols)


def _upper_bound(
    pricer: _Pricer, caps: np.ndarray, w: np.ndarray, dists: np.ndarray
) -> float:
    """Rigorous dual bound: valid for ANY nonnegative arc prices ``w``."""
    denom = float(
        np.dot(pricer.dem_vals, np.where(np.isfinite(dists), dists, 0.0))
    )
    if denom <= 0:
        return float("inf")
    return float(np.dot(caps, w)) / denom


def _flatten(
    paths: Sequence[Optional[Tuple[int, ...]]], dem_vals: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(flat, vals)``: the arc ids of every routed path, in demand
    order and source to destination, and each entry's demand value."""
    lens = [len(c) if c else 0 for c in paths]
    flat = np.fromiter(
        chain.from_iterable(filter(None, paths)), dtype=np.intp,
        count=sum(lens),
    )
    return flat, np.repeat(dem_vals, lens)


def _mwu_sweep(
    pricer: _Pricer, pool: _Pool, caps: np.ndarray, phases: int
) -> np.ndarray:
    """Garg–Könemann-style pool builder: route every demand on a
    shortest tree, inflate traversed arc lengths by demand/capacity,
    repeat — the visited trees approximate the optimal support.
    Returns the final arc lengths."""
    lengths = 1.0 / caps
    for _ in range(phases):
        paths, _ = pricer.tree_paths(lengths)
        flat, vals = _flatten(paths, pricer.dem_vals)
        if not flat.size:
            break
        for i, col in enumerate(paths):
            if col is not None:
                pool.add(i, col)
        np.multiply.at(lengths, flat, 1.0 + _MWU_EPS * vals / caps[flat])
    return lengths


def _price_round(
    pricer: _Pricer,
    pool: _Pool,
    caps: np.ndarray,
    lam: np.ndarray,
    w: np.ndarray,
    passes: int,
) -> Tuple[int, bool, float]:
    """One pricing round at duals ``(lam, w)``.

    Pass 1 uses the true arc prices (its tree certifies/violates
    optimality and feeds the dual bound); the remaining ``passes - 1``
    sweeps inflate the prices multiplicatively to collect *diverse*
    candidate columns near the congested arcs.  Returns
    ``(new_columns, improving, upper_bound)`` — ``improving`` reflects
    the true-dual pass only.
    """
    paths, dist = pricer.tree_paths(w)
    dists = pricer.demand_dists(dist)
    ub = _upper_bound(pricer, caps, w, dists)
    added = 0
    improving = False
    for i, (lam_i, dist_i) in enumerate(zip(lam.tolist(), dists.tolist())):
        if lam_i <= _PRICE_TOL:
            continue
        if dist_i < lam_i - _PRICE_TOL:
            improving = True
            if paths[i] is not None and pool.add(i, paths[i]):
                added += 1
    if improving and passes > 1:
        wl = w.copy()
        for _ in range(passes - 1):
            flat, vals = _flatten(paths, pricer.dem_vals)
            np.multiply.at(wl, flat, 1.0 + _MWU_EPS * vals / caps[flat])
            paths, _ = pricer.tree_paths(wl)
            for i, col in enumerate(paths):
                if col is not None and pool.add(i, col):
                    added += 1
    return added, improving, ub


def _pool_arrays(
    cols: Sequence[Tuple[int, ...]]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(counts, flat)``: each column's arc count, and every column's
    arc ids concatenated in pool order."""
    counts = np.fromiter(map(len, cols), dtype=np.intp, count=len(cols))
    flat = np.fromiter(
        chain.from_iterable(cols), dtype=np.intp, count=int(counts.sum())
    )
    return counts, flat


def _path_columns(
    cols: Sequence[Tuple[int, ...]], owners: Sequence[int], nd: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Column-wise ``(starts, idx)`` of path columns: each column holds
    its owner's demand row, then row ``nd + a`` per arc ``a`` in path
    order (every entry is 1)."""
    counts, flat = _pool_arrays(cols)
    starts = np.zeros(len(cols) + 1, dtype=np.int64)
    np.cumsum(counts + 1, out=starts[1:])
    idx = np.empty(int(starts[-1]), dtype=np.int32)
    arc_slot = np.ones(idx.size, dtype=bool)
    arc_slot[starts[:-1]] = False
    idx[starts[:-1]] = owners
    idx[arc_slot] = nd + flat
    return starts, idx


def _master_arrays(
    pool: _Pool, dem_vals: np.ndarray, nd: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized column-wise master assembly.

    Returns ``(starts, idx, val)`` for the ``len(pool)`` path columns
    followed by the ``t`` column (entry ``-d_i`` in every demand row).
    Rows: ``[0, nd)`` demand equalities, ``[nd, nd+m)`` arc capacities.
    """
    starts, idx = _path_columns(pool.cols, pool.owners, nd)
    t_start = int(starts[-1])
    starts = np.append(starts, t_start + nd)
    idx = np.concatenate([idx, np.arange(nd, dtype=np.int32)])
    val = np.ones(idx.size)
    val[t_start:] = -dem_vals
    return starts, idx, val


# ----------------------------------------------------------------------
# Engine 1: warm addCols loop on the scipy-bundled HiGHS core
# ----------------------------------------------------------------------
def _solve_core(
    pricer: _Pricer,
    pool: _Pool,
    caps: np.ndarray,
    passes: int,
    max_rounds: int,
    stats: ColgenStats,
    formulation: str,
    context: Optional[Dict[str, Any]],
) -> Tuple[float, np.ndarray, int]:
    """Column-generation loop with warm re-solves; returns
    ``(t, per-column flows in pool order, iterations)``."""
    nd = pricer.nd
    dem_vals = pricer.dem_vals

    nv0 = len(pool)
    starts, idx, val = _master_arrays(pool, dem_vals, nd)
    cost = np.zeros(nv0 + 1)
    cost[nv0] = -1.0
    h = highs.build_model(
        cost, starts, idx, val, *highs.row_bounds(caps, nd, eq_first=True)
    )
    iterations = 0

    def _run() -> None:
        nonlocal iterations
        h.run()
        info = h.getInfo()
        solved = int(getattr(info, "simplex_iteration_count", 0) or 0)
        solved += int(getattr(info, "ipm_iteration_count", 0) or 0)
        iterations += solved
        obs.add("lp.solver_iterations", solved)
        highs.raise_for_status(h, formulation, context, iterations)

    # Cold solve: the path LP is massively degenerate under simplex
    # (thousands of equal-length alternatives), while IPM converges in
    # ~25 iterations regardless of size; crossover leaves a basis for
    # the warm addCols re-solves, which then run dual simplex.
    h.setOptionValue("solver", "ipm")
    _run()
    h.setOptionValue("solver", "choose")
    t_col = nv0  # addCols appends after t; its index never moves
    best_ub = float("inf")
    tight = False
    for _ in range(max_rounds):
        stats.rounds += 1
        obs.add("colgen.pricing_rounds")
        t_lb = -h.getObjectiveValue()
        row_dual = np.asarray(h.getSolution().row_dual)
        lam = row_dual[:nd]
        w = np.maximum(-row_dual[nd:], 0.0)
        with obs.span("colgen.pricing", round=stats.rounds):
            added, _improving, ub = _price_round(
                pricer, pool, caps, lam, w, passes
            )
        best_ub = min(best_ub, ub)
        obs.add("colgen.columns_added", added)
        stats.columns_added += added
        gap_closed = best_ub - t_lb <= _GAP_TOL * max(1.0, abs(t_lb))
        if added == 0 or gap_closed:
            if tight or stats.polishes >= 3:
                break
            # Endgame: tighten the feasibility tolerances and re-solve
            # from the current basis (cheap — the basis is optimal or
            # near-optimal already), then loop once more so the final
            # pricing pass certifies optimality at the tight duals.
            stats.polishes += 1
            obs.add("colgen.polishes")
            h.setOptionValue("primal_feasibility_tolerance", 1e-10)
            h.setOptionValue("dual_feasibility_tolerance", 1e-10)
            with obs.span("colgen.polish"):
                _run()
            tight = True
            if added == 0:
                continue
        # Append the new columns and re-solve warm from the basis.
        cstarts, cidx = _path_columns(
            pool.cols[-added:], pool.owners[-added:], nd
        )
        with obs.span("colgen.master", columns=added, warm=True):
            h.addCols(
                added, np.zeros(added), np.zeros(added),
                np.full(added, np.inf), cidx.size, cstarts.astype(np.int32),
                cidx, np.ones(cidx.size),
            )
            _run()
    else:
        # Zero rounds is the pricing-off master: the seeded solve stands.
        if max_rounds:
            raise SolverNumericalError(
                f"colgen did not converge within max_rounds ({stats.rounds} "
                f"rounds, gap {best_ub - (-h.getObjectiveValue()):.3e})",
                formulation="colgen",
                iterations=iterations,
                context=context,
            )

    x = np.asarray(h.getSolution().col_value, dtype=float)
    t = float(x[t_col])
    pool_x = np.concatenate([x[:t_col], x[t_col + 1:]])
    return t, pool_x, iterations


# ----------------------------------------------------------------------
# Engine 2: cold masters, re-assembled and solved afresh per round
# ----------------------------------------------------------------------
def _solve_cold(
    pricer: _Pricer,
    pool: _Pool,
    caps: np.ndarray,
    passes: int,
    max_rounds: int,
    stats: ColgenStats,
    formulation: str,
    context: Optional[Dict[str, Any]],
) -> Tuple[float, np.ndarray, int]:
    nd = pricer.nd
    m = caps.size
    dem_vals = pricer.dem_vals
    iterations = 0

    def _master():
        """Solve the master over the current pool; ``(x, row_dual)``.

        Rows follow :func:`~repro.throughput.highs.solve`: the
        ``m`` arc capacities, then the ``nd`` demand equalities.
        """
        nonlocal iterations
        nv = len(pool)
        counts, flat = _pool_arrays(pool.cols)
        path_cols = np.arange(nv, dtype=np.intp)
        rows = np.concatenate([
            flat,
            m + np.asarray(pool.owners, dtype=np.intp),
            m + np.arange(nd, dtype=np.intp),
        ])
        cols = np.concatenate([
            np.repeat(path_cols, counts), path_cols,
            np.full(nd, nv, dtype=np.intp),
        ])
        vals = np.concatenate([np.ones(flat.size + nv), -dem_vals])
        matrix = sp.csc_matrix((vals, (rows, cols)), shape=(m + nd, nv + 1))
        c = np.zeros(nv + 1)
        c[nv] = -1.0
        solution = highs.solve(
            c, matrix, caps, formulation=formulation, context=context
        )
        iterations += solution.iterations
        return solution.x, solution.row_dual

    # Zero rounds is the pricing-off master: the seeded solve stands.
    x, row_dual = _master()
    for _ in range(max_rounds):
        stats.rounds += 1
        obs.add("colgen.pricing_rounds")
        lam = row_dual[m:]
        w = np.maximum(-row_dual[:m], 0.0)
        with obs.span("colgen.pricing", round=stats.rounds):
            added, _improving, _ub = _price_round(
                pricer, pool, caps, lam, w, passes
            )
        obs.add("colgen.columns_added", added)
        stats.columns_added += added
        if added == 0:
            break
        if stats.rounds == max_rounds:
            raise SolverNumericalError(
                f"colgen did not converge within max_rounds ({stats.rounds})",
                formulation="colgen",
                iterations=iterations,
                context=context,
            )
        with obs.span("colgen.master", columns=len(pool), warm=False):
            x, row_dual = _master()
    nv = int(x.size - 1)
    return float(x[nv]), np.asarray(x[:nv], dtype=float), iterations


# ----------------------------------------------------------------------
# The shared front end
# ----------------------------------------------------------------------
def colgen_solve(
    table: ArcTable,
    path_cache,
    tm: TrafficMatrix,
    per_server_demand: float = 1.0,
    dropped: int = 0,
    k: int = 2,
    phases: Optional[int] = None,
    passes: int = 4,
    max_rounds: int = 200,
    pool_store: Optional[Dict[Tuple[int, int], List[Tuple[int, ...]]]] = None,
    use_core: Optional[bool] = None,
    context: Optional[Dict[str, Any]] = None,
) -> Tuple[ThroughputResult, ColgenStats]:
    """Solve one (pre-filtered, non-empty) TM by column generation.

    ``pool_store`` is an optional persistent ``(src, dst) -> [paths]``
    mapping (arc-id tuples against *this* ArcTable): pre-existing
    entries seed the master, and each solved pair's entry is replaced
    by its columns that carry flow at the optimum — how
    :class:`ColgenTopologyContext` warm-starts repeated solves.  Only
    the support is kept (a basic optimum has at most ``nd + m``
    positive columns), so the stored pool, and with it every later
    warm master, stays small.  ``use_core=None`` auto-detects the
    bundled HiGHS core for the warm engine; ``False`` forces the cold
    engine.

    ``max_rounds=0`` prices nothing: the seeded master is solved once
    and reported as the ``"paths"`` formulation — with ``phases=0`` and
    no pool, exactly the k-shortest-paths LP of
    :func:`~repro.throughput.lp.path_throughput`.
    """
    formulation = "colgen" if max_rounds else "paths"
    demands = tm.items()
    nd = len(demands)
    stats = ColgenStats()
    if use_core is None:
        use_core = highs.have_highs_core()
    stats.engine = highs.engine_label("live" if use_core else None)

    obs.add("lp.calls")
    with obs.span("lp.assemble", formulation=formulation, demands=nd, k=k):
        pricer = _Pricer(table, demands)
        caps = table.caps
        pool = _Pool(nd)
        arc_index = table.index

        covered = 0
        for di, ((s, d), _) in enumerate(demands):
            stored = pool_store.get((s, d)) if pool_store is not None else None
            if stored:
                covered += 1
                for col in stored:
                    pool.add(di, col)
            for p in path_cache.k_shortest_paths(s, d, k):
                pool.add(
                    di, tuple(arc_index[e] for e in zip(p[:-1], p[1:]))
                )
        stats.pool_warm = covered == nd and nd > 0

        if phases is None:
            # Enough sweeps that the initial master already contains a
            # near-optimal support; a warm pool skips them entirely.
            phases = 0 if stats.pool_warm else max(64, min(384, nd))
        stats.phases = phases if not stats.pool_warm else 0
        if stats.phases > 0:
            with obs.span("colgen.pool_build", phases=stats.phases):
                _mwu_sweep(pricer, pool, caps, stats.phases)

    engine = _solve_core if use_core else _solve_cold
    with obs.span(
        "lp.solve", formulation=formulation, variables=len(pool) + 1
    ):
        t, pool_x, iterations = engine(
            pricer, pool, caps, passes, max_rounds, stats, formulation,
            context,
        )
    stats.columns = len(pool)

    if pool_store is not None:
        support: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {
            pair: [] for pair, _ in demands
        }
        for di, col, x in zip(pool.owners, pool.cols, pool_x.tolist()):
            if x > 0:
                support[demands[di][0]].append(col)
        pool_store.update(support)

    counts, flat = _pool_arrays(pool.cols)
    flows = np.zeros(table.num_arcs)
    np.add.at(flows, flat, np.repeat(pool_x, counts))
    ratio = np.zeros(table.num_arcs)
    np.divide(flows, caps, out=ratio, where=caps != 0)
    utilization = dict(zip(table.arcs, ratio.tolist()))
    result = ThroughputResult(
        throughput=t,
        per_server=min(1.0, t * per_server_demand),
        link_utilization=utilization,
        disconnected_pairs=dropped,
        iterations=iterations,
    )
    return result, stats


class ColgenTopologyContext:
    """Prepared per-topology state for column-generation solves.

    Hoists the :class:`~repro.throughput.arcs.ArcTable`, component
    labels and the (shared) :class:`~repro.perf.PathCache`, and persists
    a column pool across warm solves (``(src, dst) -> [arc-id paths]``,
    each pair's entry the support of its last solve's optimum): a later
    solve over covered pairs seeds its first master from the pool and
    the k shortest paths, skips the multiplicative-weights sweep, and
    lets pricing supply the columns its own optimum needs.

    Warm solves serialize on the pool; ``warm=False`` solves neither
    read nor update it and run in parallel.  :meth:`stats` never waits
    for an in-flight solve.
    """

    kind = "colgen"

    def __init__(
        self,
        topology: Topology,
        k: int = 2,
        phases: Optional[int] = None,
        passes: int = 4,
        max_rounds: int = 200,
        use_core: Optional[bool] = None,
        path_cache=None,
    ):
        if path_cache is None:
            from ..perf import shared_path_cache

            path_cache = shared_path_cache(topology.graph)
        self.topology = topology
        self.table = ArcTable.from_topology(topology)
        self.labels: Dict[int, int] = _component_labels(topology.graph)
        self.cache = path_cache
        self.k = int(k)
        self.phases = phases
        self.passes = int(passes)
        self.max_rounds = int(max_rounds)
        self.use_core = (
            highs.have_highs_core() if use_core is None else bool(use_core)
        )
        self._pool: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
        self._pool_lock = threading.Lock()
        self._lock = threading.Lock()
        self.solves = 0
        self.warm_solves = 0
        self.pricing_rounds = 0
        self.columns_added = 0
        self.pool_columns = 0

    def solve(
        self,
        tm: TrafficMatrix,
        per_server_demand: float = 1.0,
        warm: bool = True,
        flags: Optional[Dict[str, Any]] = None,
    ) -> ThroughputResult:
        """Solve one TM, seeding the master from the persistent pool.

        Degenerate conventions and the failure taxonomy are exactly
        those of :func:`~repro.throughput.lp.max_concurrent_throughput`.
        With ``warm=False`` the solve neither reads nor updates the
        pool.  ``flags``, when given, receives this solve's
        ``warm_started`` (the pool covered every demand pair),
        ``basis_reused`` (always False: only columns persist) and
        ``pricing_rounds``.
        """
        if tm.num_flows == 0:
            return ThroughputResult(throughput=float("inf"), per_server=1.0)
        tm, dropped = _drop_by_labels(tm, self.labels)
        if tm.num_flows == 0:
            return ThroughputResult(
                throughput=0.0, per_server=0.0, disconnected_pairs=dropped
            )
        with self._pool_lock if warm else contextlib.nullcontext():
            result, stats = colgen_solve(
                self.table,
                self.cache,
                tm,
                per_server_demand=per_server_demand,
                dropped=dropped,
                k=self.k,
                phases=self.phases,
                passes=self.passes,
                max_rounds=self.max_rounds,
                pool_store=self._pool if warm else None,
                use_core=self.use_core,
                context={
                    "topology": self.topology.name,
                    "demands": tm.num_flows,
                    "k": self.k,
                },
            )
            pool_columns = sum(map(len, self._pool.values())) if warm else 0
        with self._lock:
            if warm:
                self.pool_columns = pool_columns
            self.solves += 1
            self.warm_solves += stats.pool_warm
            self.pricing_rounds += stats.rounds
            self.columns_added += stats.columns_added
        if flags is not None:
            flags["warm_started"] = stats.pool_warm
            flags["basis_reused"] = False
            flags["pricing_rounds"] = stats.rounds
        return result

    def stats(self) -> Dict[str, Any]:
        """JSON-ready counters; never waits for an in-flight solve."""
        with self._lock:
            return {
                "kind": self.kind,
                "k": self.k,
                "max_rounds": self.max_rounds,
                "pool_pairs": len(self._pool),
                "pool_columns": self.pool_columns,
                "solves": self.solves,
                "warm_solves": self.warm_solves,
                "pricing_rounds": self.pricing_rounds,
                "columns_added": self.columns_added,
                "engine": highs.engine_label("live" if self.use_core else None),
            }


def path_colgen_throughput(
    topology: Topology,
    tm: TrafficMatrix,
    per_server_demand: float = 1.0,
    k: int = 2,
    phases: Optional[int] = None,
    passes: int = 4,
    max_rounds: int = 200,
    path_cache=None,
    use_core: Optional[bool] = None,
) -> ThroughputResult:
    """Exact max-concurrent-flow throughput via column generation.

    Converges to the same optimum as
    :func:`~repro.throughput.lp.max_concurrent_throughput` (within
    solver tolerance — property-tested to 1e-9) with restricted masters
    that are orders of magnitude smaller than the edge formulation, so
    it scales to networks the exact edge LP cannot touch.  A one-shot
    :class:`ColgenTopologyContext` solve (no persistent pool).

    Parameters
    ----------
    k:
        Shortest paths per demand seeding the initial pool (served by
        the shared :class:`~repro.perf.PathCache`).
    phases:
        Multiplicative-weights pool-building sweeps before the first
        master (``None``: auto-scaled with the demand count).
    passes:
        Dijkstra sweeps per pricing round (1 = true duals only; extra
        passes collect diverse columns near congested arcs).
    max_rounds:
        Pricing-round cap; exceeding it raises
        :class:`~repro.throughput.errors.SolverNumericalError`.  ``0``
        prices nothing: the seeded master is solved once (with
        ``phases=0``, :func:`~repro.throughput.lp.path_throughput`).

    Degenerate conventions match the exact LP: empty TM returns
    ``(inf, 1.0)``; all demands disconnected returns ``(0.0, 0.0)``
    with ``disconnected_pairs`` set.
    """
    context = ColgenTopologyContext(
        topology, k=k, phases=phases, passes=passes, max_rounds=max_rounds,
        use_core=use_core, path_cache=path_cache,
    )
    return context.solve(tm, per_server_demand, warm=False)
