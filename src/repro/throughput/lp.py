"""Fluid-flow throughput via linear programming (paper §2.2, §5).

The paper's throughput metric: a network supports a traffic matrix M with
throughput t if every demand can simultaneously achieve a t fraction of its
requested rate without violating link capacities — the optimum of the
classic *maximum concurrent flow* problem.  Two formulations are provided:

* :func:`max_concurrent_throughput` — exact, destination-aggregated
  edge-flow LP.  Commodities are grouped by destination, so the variable
  count is ``(#destinations) x (#arcs)`` rather than
  ``(#pairs) x (#arcs)``; optimal value is unchanged (flows to the same
  destination can always be merged).  A symmetric TM (every demand
  ``s -> d`` equal to ``d -> s``) solves the mirror-folded half of the
  LP: only the pairs ``s < d``, with one capacity row per cable
  (see :class:`EdgeLpContext`).  :class:`EdgeLpContext` is the one
  implementation: a per-topology context that also caches assembled
  LPs and their last optima across solves (and, with opt-in basis
  reuse, each one's last optimal simplex basis); the function is a
  one-shot use of it.
* :func:`path_throughput` — restricted to k shortest paths per demand
  (a lower bound on the exact optimum, asymptotically tight as k grows);
  much smaller LPs on large networks.  It is the path master of
  :mod:`repro.throughput.colgen` solved once with pricing off.

Both reach HiGHS through :mod:`repro.throughput.highs` with sparse
constraint matrices: a cold solve is
:func:`~repro.throughput.highs.solve`, byte-identical to
``scipy.optimize.linprog`` on the same rows.

Constraint assembly is vectorized: conservation and capacity blocks are
built from numpy coordinate arrays over the :class:`~.arcs.ArcTable`
incidence structure instead of Python append loops, producing the
*identical* canonical CSR matrices orders of magnitude faster (see
``benchmarks/perf``).  The original loop assembly lives in
``tests/throughput/lp_reference.py`` as the equivalence oracle for tests
and the baseline for the perf-regression bench.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import networkx as nx
import numpy as np
import scipy.sparse as sp

from .. import obs
from ..perf import Lru
from ..topologies.base import Topology
from ..traffic.matrix import TrafficMatrix
from .arcs import ArcTable
from . import highs
from .errors import SolverFailure, SolverNumericalError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..perf import PathCache

__all__ = [
    "ThroughputResult",
    "EdgeLpContext",
    "max_concurrent_throughput",
    "path_throughput",
]


@dataclass
class ThroughputResult:
    """Outcome of a fluid-flow throughput computation.

    Attributes
    ----------
    throughput:
        The concurrent-flow fraction t: every demand simultaneously
        achieves ``t x`` its requested rate.
    per_server:
        ``t`` normalized per server: when the TM saturates every active
        server's hose constraint, equals throughput per server as a
        fraction of line rate (the paper's y-axis).
    link_utilization:
        Mapping of directed arc to carried-load fraction at optimum
        (``None`` for solvers that do not expose flows).
    disconnected_pairs:
        Demands dropped before solving because failures disconnected (or
        removed) their endpoints; the reported throughput covers only
        the surviving demands.  Zero on healthy topologies.
    iterations:
        Solver iterations spent (simplex/IPM for the LPs, completed
        phases for the MCF approximation); zero for degenerate results
        that never reach a solver, and for a warm solve whose starting
        basis was already optimal.  A result answered from a stored
        optimum reports the iterations of the solve that found it.

    Notes
    -----
    Degenerate convention (shared by :func:`max_concurrent_throughput`,
    :func:`path_throughput`, :func:`~repro.throughput.mcf.approx_concurrent_throughput`,
    and :func:`~repro.throughput.bounds.tm_throughput_upper_bound`): an
    *empty* TM constrains nothing, so ``throughput`` is ``inf`` and
    ``per_server`` is ``1.0``.  A TM whose demands were *all* dropped as
    disconnected reports ``0.0`` / ``0.0`` with ``disconnected_pairs``
    set.
    """

    throughput: float
    per_server: float
    link_utilization: Optional[Dict[Tuple[int, int], float]] = None
    disconnected_pairs: int = 0
    iterations: int = 0


def _component_labels(g: "nx.Graph") -> Dict[int, int]:
    """Connected-component label per node (batchable pre-filter state)."""
    label: Dict[int, int] = {}
    for ci, comp in enumerate(nx.connected_components(g)):
        for v in comp:
            label[v] = ci
    return label


def _drop_by_labels(
    tm: TrafficMatrix, label: Dict[int, int]
) -> Tuple[TrafficMatrix, int]:
    """Filter a TM against precomputed component labels.

    A demand is routable when both endpoint ToRs exist in the (possibly
    degraded) graph and lie in the same connected component.  On a
    connected graph with all endpoints present the TM passes through
    unchanged (same object, no copy).
    """
    kept: Dict[Tuple[int, int], float] = {}
    dropped = 0
    for (s, d), val in tm.demands.items():
        if s in label and label[s] == label.get(d):
            kept[(s, d)] = val
        else:
            dropped += 1
    if not dropped:
        return tm, 0
    obs.add("lp.disconnected_pairs", dropped)
    return TrafficMatrix(kept), dropped


def _drop_disconnected_demands(
    topology: Topology, tm: TrafficMatrix
) -> Tuple[TrafficMatrix, int]:
    """Split a TM into its routable part and a dropped-pair count."""
    return _drop_by_labels(tm, _component_labels(topology.graph))


def _is_symmetric(tm: TrafficMatrix) -> bool:
    """Whether every demand ``s -> d`` equals its mirror ``d -> s``."""
    demands = tm.demands
    return all(demands.get((d, s)) == val for (s, d), val in demands.items())


def _demands_by_destination(
    tm: TrafficMatrix, fold: bool = False
) -> Tuple[List[int], Dict[int, Dict[int, float]]]:
    """Destination-aggregated demands: ``demand_to[d][v]`` = v's demand to d.

    With ``fold`` only the pairs ``v < d`` are kept: the half of a
    symmetric TM that the mirror-folded LP routes.
    """
    pairs = [
        (s, d, val) for (s, d), val in tm.demands.items() if not fold or s < d
    ]
    dests = sorted({d for (_, d, _) in pairs})
    demand_to: Dict[int, Dict[int, float]] = {d: {} for d in dests}
    for s, d, val in pairs:
        demand_to[d][s] = demand_to[d].get(s, 0.0) + val
    return dests, demand_to


def _assemble_exact_vectorized(
    table: ArcTable,
    dests: List[int],
    demand_to: Dict[int, Dict[int, float]],
    fold: bool = False,
) -> Tuple[sp.csr_matrix, np.ndarray, sp.csr_matrix]:
    """Vectorized assembly of the exact LP's constraint matrices.

    Builds the conservation block for all destinations at once from the
    arc tail/head index arrays: within destination block ``di`` the row
    of node ``v`` is its dense index with the destination's own row
    squeezed out, and every arc contributes +1 at its tail row and -1
    at its head row.  Canonical CSR output is identical to the
    reference loops (duplicate-free coordinates, same coefficients).

    The capacity block has one row per arc, or with ``fold`` one row
    per cable: row ``e`` sums both orientations (arcs ``2e`` and
    ``2e + 1``) of every commodity, since a mirrored commodity loads
    each orientation with what the kept one carries on the other.
    """
    n = table.num_nodes
    m = table.num_arcs
    num_dests = len(dests)
    num_vars = num_dests * m + 1
    t_var = num_vars - 1

    dest_nodes = np.asarray([table.node_index[d] for d in dests], dtype=np.intp)
    dn = dest_nodes[:, None]  # (D, 1)
    tails = table.tails[None, :]  # (1, m)
    heads = table.heads[None, :]
    block = np.arange(num_dests, dtype=np.intp)[:, None] * (n - 1)
    col_base = np.arange(num_dests, dtype=np.intp)[:, None] * m + np.arange(
        m, dtype=np.intp
    )

    tail_mask = tails != dn
    tail_rows = (block + tails - (tails > dn))[tail_mask]
    tail_cols = np.broadcast_to(col_base, (num_dests, m))[tail_mask]
    head_mask = heads != dn
    head_rows = (block + heads - (heads > dn))[head_mask]
    head_cols = np.broadcast_to(col_base, (num_dests, m))[head_mask]

    dem_rows: List[int] = []
    dem_vals: List[float] = []
    for di, d in enumerate(dests):
        dn_i = int(dest_nodes[di])
        base = di * (n - 1)
        for v, dem in demand_to[d].items():
            if not dem:
                continue
            vi = table.node_index[v]
            dem_rows.append(base + vi - (vi > dn_i))
            dem_vals.append(-dem)

    eq_rows = np.concatenate(
        [tail_rows, head_rows, np.asarray(dem_rows, dtype=np.intp)]
    )
    eq_cols = np.concatenate(
        [tail_cols, head_cols, np.full(len(dem_rows), t_var, dtype=np.intp)]
    )
    eq_vals = np.concatenate(
        [
            np.ones(tail_rows.size),
            -np.ones(head_rows.size),
            np.asarray(dem_vals, dtype=float),
        ]
    )
    num_rows = num_dests * (n - 1)
    a_eq = sp.csr_matrix(
        (eq_vals, (eq_rows, eq_cols)), shape=(num_rows, num_vars)
    )
    b_eq = np.zeros(num_rows)

    ub_rows = np.tile(np.arange(m, dtype=np.intp), num_dests)
    if fold:
        ub_rows //= 2
    ub_cols = col_base.ravel()
    a_ub = sp.csr_matrix(
        (np.ones(ub_rows.size), (ub_rows, ub_cols)),
        shape=(m // 2 if fold else m, num_vars),
    )
    return a_eq, b_eq, a_ub


def _c_for_exact(num_vars: int) -> np.ndarray:
    """The exact LP's objective vector: maximize t (minimize ``-t``)."""
    c = np.zeros(num_vars)
    c[num_vars - 1] = -1.0
    return c


def _exact_result(
    table: ArcTable,
    x: np.ndarray,
    num_dests: int,
    per_server_demand: float,
    dropped: int,
    iterations: int,
    fold: bool,
) -> ThroughputResult:
    """Extract ``t`` and per-arc utilization from an exact-LP solution.

    A folded solution loads each arc with its cable's flow in both
    directions: the load of the mirror-symmetric full optimum.
    """
    num_arcs = table.num_arcs
    t = float(x[num_dests * num_arcs])
    utilization: Dict[Tuple[int, int], float] = {}
    flows = x[: num_dests * num_arcs].reshape(num_dests, num_arcs).sum(axis=0)
    if fold:
        flows = np.repeat(flows[0::2] + flows[1::2], 2)
    caps = table.caps
    for a, (u, v) in enumerate(table.arcs):
        utilization[(u, v)] = float(flows[a] / caps[a]) if caps[a] else 0.0
    return ThroughputResult(
        throughput=t,
        per_server=min(1.0, t * per_server_demand),
        link_utilization=utilization,
        disconnected_pairs=dropped,
        iterations=iterations,
    )


#: Bound on cached LP structures per context (distinct demand supports).
DEFAULT_MAX_STRUCTURES = 32


def _structure_key(
    dests: List[int], demand_to: Dict[int, Dict[int, float]], fold: bool
) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...], bool]:
    """The demand-structure identity: destination set, nonzero support
    and whether the LP is folded.

    Zero-valued demands are excluded exactly as assembly excludes them,
    so a TM whose entry drops to zero keys a different (correct)
    structure instead of patching a coefficient that does not exist.
    """
    support = tuple(
        sorted(
            (d, v)
            for d in dests
            for v, dem in demand_to[d].items()
            if dem
        )
    )
    return tuple(dests), support, fold


@dataclass
class _LpStructure:
    """One fully assembled exact LP, ready for coefficient patching."""

    num_dests: int
    #: Mirror-folded: one capacity row per cable, ``s < d`` pairs only.
    fold: bool
    #: ``[capacities; equalities]``, the row layout of
    #: :func:`~repro.throughput.highs.solve`; demand coefficients are
    #: patched in place between solves.
    matrix: sp.csc_matrix
    demand_slots: np.ndarray  # index into matrix.data per support entry
    values: np.ndarray  # current (positive) demand values, support order
    #: The optimum of the current coefficients and the iterations it
    #: took; ``None`` until solved and again after a patch changes them.
    x: Optional[np.ndarray] = None
    iterations: int = 0
    #: Final basis of the last optimal solve (``reuse_basis`` only).
    basis: Any = None


class EdgeLpContext:
    """Prepared per-topology state for exact edge-LP solves.

    Hoists the topology side of the LP once — the
    :class:`~repro.throughput.arcs.ArcTable` and component labels — and
    keeps a bounded LRU of fully assembled LP structures keyed by demand
    structure (destination set + demand support).  A later solve over a
    cached support patches only the demand coefficients of ``t`` and
    re-solves; when no coefficient changed, the structure's stored
    optimum is the answer and nothing is solved.  Every solve is one
    :func:`~repro.throughput.highs.solve` on a fresh HiGHS model,
    dropped afterwards; no model outlives its solve.

    * A structure's first solve is always cold, and the patched
      canonical matrix is *identical* to fresh assembly, so with
      ``reuse_basis=False`` every result is byte-identical to
      :func:`max_concurrent_throughput` — itself a one-shot context
      solved with ``warm=False`` — whatever was solved before it.
    * With ``reuse_basis=True`` (scipy's bundled HiGHS core) a structure
      also keeps the final basis of its last optimum, and its next solve
      starts the dual simplex there, at the memory of a few status
      bytes per row and column.  The objective is within 1e-9 of a
      cold solve's; the per-arc flows may sit at another optimal vertex
      of this degenerate LP and depend on which solve left the basis.
      A warm solve that ends off the optimum drops the basis and
      re-solves cold once, so callers see exactly the cold solve's
      failure.

    Solves never serialize on the context: the structure LRU (a
    :class:`repro.perf.Lru`) locks only around its own dictionary
    operations.  A structure is checked out (``pop``) for the duration
    of its solve, so a concurrent solve over the same support assembles
    its own, and HiGHS (which releases the GIL) runs the two in
    parallel.

    **Symmetric TMs are folded.**  Every cable has one capacity for both
    directions, so when each routable demand ``s -> d`` equals its
    mirror ``d -> s`` the LP has a mirror-symmetric optimum: reverse
    every commodity and every arc of an optimum and average the two.
    Such a TM solves only the pairs ``s < d`` (aggregated by
    destination as usual) under one capacity row per cable, whose
    columns are both orientations, arcs ``2e`` and ``2e + 1``, of every
    kept commodity; it has the full LP's ``t`` at about half the
    columns and rows.  Each arc's ``link_utilization`` is then its
    cable's load in both directions, the load of the symmetric full
    optimum.  Any other TM solves the full LP.  The fold is part of the
    structure key, so stored optima and bases never cross between the
    two forms.
    """

    kind = "edge-lp"

    @staticmethod
    def kind_of(reuse_basis: bool) -> str:
        """The ``kind`` of a context with this ``reuse_basis``."""
        return "edge-lp-basis" if reuse_basis else EdgeLpContext.kind

    def __init__(
        self,
        topology: Topology,
        reuse_basis: bool = False,
        max_structures: int = DEFAULT_MAX_STRUCTURES,
    ):
        self.topology = topology
        self.table = ArcTable.from_topology(topology)
        self.labels: Dict[int, int] = _component_labels(topology.graph)
        self.reuse_basis = bool(reuse_basis)
        if self.reuse_basis and not highs.have_highs_core():
            raise ValueError(
                "reuse_basis=True needs scipy's bundled HiGHS core, which "
                "this scipy build lacks; use the cold engine"
            )
        self.kind = self.kind_of(self.reuse_basis)
        self.max_structures = int(max_structures)
        self._structures = Lru(self.max_structures, "lp.structures")
        # Guards the solve counters; the structure LRU locks itself.
        self._lock = threading.Lock()
        self.models_built = 0
        self.warm_solves = 0
        self.cold_solves = 0
        self.bases_reused = 0
        self.results_reused = 0

    def solve(
        self,
        tm: TrafficMatrix,
        per_server_demand: float = 1.0,
        warm: bool = True,
        flags: Optional[Dict[str, Any]] = None,
    ) -> ThroughputResult:
        """Solve one TM, warm-starting off any cached matching structure.

        Degenerate conventions and the failure taxonomy are exactly
        those of :func:`max_concurrent_throughput`.  With ``warm=False``
        the solve assembles fresh and caches nothing.  ``flags``, when
        given, receives this solve's ``warm_started`` (a cached
        structure was patched), ``result_reused`` (its coefficients were
        unchanged, so the stored optimum, with the iterations that found
        it, is returned unsolved), ``basis_reused`` (the result came
        from a solve started at a stored basis) and ``models_built``
        (HiGHS models built: 0 for a reused result, 1, or 2 when a warm
        start was retried cold); it is left empty for degenerate TMs
        that never reach the LP.
        """
        if tm.num_flows == 0:
            return ThroughputResult(throughput=float("inf"), per_server=1.0)
        tm, dropped = _drop_by_labels(tm, self.labels)
        if tm.num_flows == 0:
            return ThroughputResult(
                throughput=0.0, per_server=0.0, disconnected_pairs=dropped
            )

        obs.add("lp.calls")
        fold = _is_symmetric(tm)
        dests, demand_to = _demands_by_destination(tm, fold)
        key = _structure_key(dests, demand_to, fold)
        structure = self._structures.pop(key) if warm else None
        warm_started = structure is not None
        with self._lock:
            if warm_started:
                self.warm_solves += 1
            else:
                self.cold_solves += 1
        if structure is None:
            structure = self._build_structure(dests, demand_to, key[1], fold)
        else:
            self._patch_values(
                structure,
                np.asarray([demand_to[d][v] for d, v in key[1]], dtype=float),
            )
        reused = structure.x is not None
        if flags is not None:
            flags.update(
                warm_started=warm_started, result_reused=reused,
                basis_reused=False, models_built=0,
            )
        context = {"topology": self.topology.name, "demands": tm.num_flows}
        try:
            if reused:
                obs.add("lp.results_reused")
                with self._lock:
                    self.results_reused += 1
            else:
                structure.x, structure.iterations = self._solve_structure(
                    structure, context, flags
                )
            # Read before the structure goes back: a concurrent solve may
            # check it out and patch it at once.
            x, iterations = structure.x, structure.iterations
        finally:
            if warm:
                self._structures.put(key, structure)
        return _exact_result(
            self.table, x, structure.num_dests, per_server_demand,
            dropped, iterations, structure.fold,
        )

    # ------------------------------------------------------------------
    def _build_structure(
        self,
        dests: List[int],
        demand_to: Dict[int, Dict[int, float]],
        support: Tuple[Tuple[int, int], ...],
        fold: bool,
    ) -> _LpStructure:
        table = self.table
        num_dests = len(dests)
        n = table.num_nodes
        t_var = num_dests * table.num_arcs
        with obs.span(
            "lp.assemble", formulation="exact", demands=len(support)
        ):
            a_eq, _b_eq, a_ub = _assemble_exact_vectorized(
                table, dests, demand_to, fold
            )
            matrix = sp.vstack([a_ub, a_eq], format="csc")
        m = a_ub.shape[0]  # capacity rows come first
        # t is the last column; its entries are the demand rows, sorted.
        first = matrix.indptr[t_var]
        t_rows = matrix.indices[first:matrix.indptr[t_var + 1]]
        dest_index = {d: i for i, d in enumerate(dests)}
        rows = np.empty(len(support), dtype=np.intp)
        for i, (d, v) in enumerate(support):
            dn_i = table.node_index[d]
            vi = table.node_index[v]
            rows[i] = m + dest_index[d] * (n - 1) + vi - (vi > dn_i)
        if not np.array_equal(np.sort(rows), t_rows):  # pragma: no cover
            raise SolverNumericalError(
                "incremental assembly lost a demand coefficient",
                formulation="exact",
            )
        slots = first + np.searchsorted(t_rows, rows)
        return _LpStructure(
            num_dests=num_dests,
            fold=fold,
            matrix=matrix,
            demand_slots=slots,
            values=-matrix.data[slots],
        )

    @staticmethod
    def _patch_values(structure: _LpStructure, values: np.ndarray) -> None:
        """Write only the changed demand coefficients; any change drops
        the stored optimum."""
        changed = np.nonzero(values != structure.values)[0]
        if changed.size:
            structure.matrix.data[structure.demand_slots[changed]] = (
                -values[changed]
            )
            structure.values = values
            structure.x = None

    def _solve_structure(
        self,
        structure: _LpStructure,
        context: Dict[str, Any],
        flags: Optional[Dict[str, Any]],
    ) -> Tuple[np.ndarray, int]:
        """``(x, iterations)`` of one solve, warm from the stored basis
        when there is one and cold otherwise (or after a warm failure).

        The stored basis is taken before the solve, so a failed solve
        leaves none behind.
        """
        basis, structure.basis = structure.basis, None
        try:
            solution = self._run(structure, basis, context, flags)
        except SolverFailure:
            if basis is None:
                raise
            # A warm start that ends off the optimum is retried cold, so
            # callers see exactly the cold solve's failure.
            obs.add("lp.warm_retries")
            solution = self._run(structure, None, context, flags)
        if self.reuse_basis:
            structure.basis = solution.basis
        if solution.warm:
            with self._lock:
                self.bases_reused += 1
            if flags is not None:
                flags["basis_reused"] = True
        return solution.x, solution.iterations

    def _run(
        self,
        structure: _LpStructure,
        basis: Any,
        context: Dict[str, Any],
        flags: Optional[Dict[str, Any]],
    ) -> highs.Solution:
        matrix = structure.matrix
        caps = self.table.caps[0::2] if structure.fold else self.table.caps
        with self._lock:
            self.models_built += 1
        if flags is not None:
            flags["models_built"] += 1
        with obs.span(
            "lp.solve", formulation="exact", variables=matrix.shape[1],
            warm=basis is not None,
        ):
            return highs.solve(
                _c_for_exact(matrix.shape[1]),
                matrix,
                caps,
                formulation="exact",
                context=context,
                basis=basis,
            )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """JSON-ready counters; never waits for an in-flight solve.

        ``cold_solves`` / ``warm_solves`` count solves that assembled a
        structure / patched a cached one; ``results_reused`` counts
        patched structures whose coefficients were unchanged, answered
        from the stored optimum without a solve; ``models_built`` counts
        HiGHS models (one per solve, plus one per warm start retried
        cold); ``basis_reused`` counts results that came from a stored
        basis.
        """
        with self._lock:
            return {
                "kind": self.kind,
                "structures": len(self._structures),
                "max_structures": self.max_structures,
                "models_built": self.models_built,
                "warm_solves": self.warm_solves,
                "cold_solves": self.cold_solves,
                "results_reused": self.results_reused,
                "basis_reused": self.bases_reused,
                "engine": highs.engine_label(
                    "basis" if self.reuse_basis else None
                ),
            }


def max_concurrent_throughput(
    topology: Topology,
    tm: TrafficMatrix,
    per_server_demand: float = 1.0,
) -> ThroughputResult:
    """Exact max-concurrent-flow throughput of ``tm`` on ``topology``.

    Parameters
    ----------
    topology:
        The switch-level network (capacities in server line-rate units).
    tm:
        Rack-to-rack demands in line-rate units.
    per_server_demand:
        Demand each active server requests (line-rate fraction); used only
        to normalize ``per_server`` in the result.

    Raises
    ------
    InfeasibleError, UnboundedError, SolverNumericalError
        Typed :class:`~repro.throughput.errors.SolverFailure` subclasses
        (all ``RuntimeError``) carrying topology/TM context when HiGHS
        does not return an optimum.

    Notes
    -----
    Destination-aggregated arc-flow LP: variables ``f[d, a]`` (flow bound
    for destination ToR ``d`` on arc ``a``) plus the concurrency ``t``;
    conservation at every node except the destination; arc capacity sums
    over destinations; a symmetric TM solves the mirror-folded half
    (see :class:`EdgeLpContext`).  A one-shot :class:`EdgeLpContext`
    solve: one cold HiGHS solve on freshly assembled matrices, nothing
    cached.

    Degenerate cases are conventions, not errors: an empty TM returns
    ``(inf, 1.0)``; a TM whose demands are all disconnected returns
    ``(0.0, 0.0)`` with ``disconnected_pairs`` set (see
    :class:`ThroughputResult`).
    """
    return EdgeLpContext(topology).solve(
        tm, per_server_demand, warm=False
    )


def path_throughput(
    topology: Topology,
    tm: TrafficMatrix,
    k: int = 8,
    per_server_demand: float = 1.0,
    path_cache: Optional["PathCache"] = None,
) -> ThroughputResult:
    """Max-concurrent-flow restricted to k shortest paths per demand.

    A lower bound on :func:`max_concurrent_throughput`; the LP has one
    variable per (demand, path) plus ``t``, and one capacity row per
    directed arc, so it scales to networks where the exact LP does not.
    It is the column-generation master of
    :mod:`repro.throughput.colgen` seeded with the k shortest paths and
    solved once with pricing off (``phases=0``, ``max_rounds=0``) on
    the cold engine; failures report ``formulation="paths"``.

    Degenerate cases follow the same convention as the exact LP: empty
    TM returns ``(inf, 1.0)``, all-disconnected returns ``(0.0, 0.0)``;
    solver failures raise the typed
    :class:`~repro.throughput.errors.SolverFailure` subclasses.

    Parameters
    ----------
    path_cache:
        A shared :class:`repro.perf.PathCache` to serve the k-shortest-
        path sets.  Defaults to the process-wide cache for this
        topology, so a sweep over routings (or ``k`` values) on one
        topology enumerates Yen's algorithm exactly once per pair.
    """
    from .colgen import ColgenTopologyContext

    context = ColgenTopologyContext(
        topology, k=k, phases=0, max_rounds=0, use_core=False,
        path_cache=path_cache,
    )
    return context.solve(tm, per_server_demand, warm=False)
