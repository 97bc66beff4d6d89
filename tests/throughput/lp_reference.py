"""Test-only references for the exact LP.

:mod:`repro.throughput.lp` builds the destination-aggregated edge LP's
conservation and capacity blocks from numpy coordinate arrays
(``_assemble_exact_vectorized``).  This module keeps the per-(destination,
node) loop assembly it replaced, so tests can assert that both produce
identical canonical CSR matrices and the kernel bench can time one
against the other.

It also keeps the unfolded solve, :func:`unfolded_exact`: every ordered
pair routed, one capacity row per arc, whatever the TM's symmetry.  The
library folds a symmetric TM's LP onto one orientation per rack pair;
this is the oracle that folded solve is checked against.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np
import scipy.sparse as sp

from repro.throughput import highs
from repro.throughput.arcs import ArcTable
from repro.throughput.lp import (
    _assemble_exact_vectorized,
    _c_for_exact,
    _demands_by_destination,
)


class UnfoldedSolution(NamedTuple):
    """The unfolded exact LP's optimum: ``t``, the solution vector and
    the iterations HiGHS spent."""

    throughput: float
    x: np.ndarray
    iterations: int


def unfolded_exact(topology, tm) -> UnfoldedSolution:
    """One cold solve of the exact LP over all ordered pairs of ``tm``
    (assumed connected), with one capacity row per directed arc."""
    table = ArcTable.from_topology(topology)
    dests, demand_to = _demands_by_destination(tm)
    a_eq, _b_eq, a_ub = _assemble_exact_vectorized(table, dests, demand_to)
    matrix = sp.vstack([a_ub, a_eq], format="csc")
    solution = highs.solve(
        _c_for_exact(matrix.shape[1]), matrix, table.caps,
        formulation="exact",
    )
    x = solution.x
    return UnfoldedSolution(
        float(x[len(dests) * table.num_arcs]), x, solution.iterations
    )


def assemble_exact_reference(
    table: ArcTable,
    dests: List[int],
    demand_to: Dict[int, Dict[int, float]],
) -> Tuple[sp.csr_matrix, np.ndarray, sp.csr_matrix]:
    """Loop-based assembly of the exact LP's constraint matrices:
    one Python append per (destination, node, arc) entry."""
    arcs = table.arcs
    nodes = table.nodes
    num_arcs = table.num_arcs
    num_dests = len(dests)
    dest_index = {d: i for i, d in enumerate(dests)}
    num_vars = num_dests * num_arcs + 1  # + t
    t_var = num_vars - 1

    def fvar(d_idx: int, a_idx: int) -> int:
        return d_idx * num_arcs + a_idx

    # Equality: conservation per (dest, node != dest):
    #   sum(out arcs) - sum(in arcs) - t * demand(v -> d) = 0
    eq_rows: List[int] = []
    eq_cols: List[int] = []
    eq_vals: List[float] = []
    row = 0
    out_arcs: Dict[int, List[int]] = {v: [] for v in nodes}
    in_arcs: Dict[int, List[int]] = {v: [] for v in nodes}
    for i, (u, v) in enumerate(arcs):
        out_arcs[u].append(i)
        in_arcs[v].append(i)

    for d in dests:
        di = dest_index[d]
        for v in nodes:
            if v == d:
                continue
            for a in out_arcs[v]:
                eq_rows.append(row)
                eq_cols.append(fvar(di, a))
                eq_vals.append(1.0)
            for a in in_arcs[v]:
                eq_rows.append(row)
                eq_cols.append(fvar(di, a))
                eq_vals.append(-1.0)
            dem = demand_to[d].get(v, 0.0)
            if dem:
                eq_rows.append(row)
                eq_cols.append(t_var)
                eq_vals.append(-dem)
            row += 1
    a_eq = sp.csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(row, num_vars))
    b_eq = np.zeros(row)

    # Inequality: per-arc capacity, sum over destinations.
    ub_rows: List[int] = []
    ub_cols: List[int] = []
    ub_vals: List[float] = []
    for a in range(num_arcs):
        for di in range(num_dests):
            ub_rows.append(a)
            ub_cols.append(fvar(di, a))
            ub_vals.append(1.0)
    a_ub = sp.csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(num_arcs, num_vars))
    return a_eq, b_eq, a_ub
