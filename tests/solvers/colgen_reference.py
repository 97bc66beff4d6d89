"""Test-only reference for colgen's pool sweep: the per-demand decode.

The pricer in :mod:`repro.throughput.colgen` reads shortest-path trees
as Python ints (``pred.item``) through an O(m) arc lookup.  This module
keeps the decode it replaced — a dense ``n x n`` arc table walked with
one numpy scalar read per hop — together with the sweep built on it
(one ``np.asarray`` and one ``np.full`` per path), so tests can assert
that both produce the same columns, the same pool order and the same
inflated lengths, and the kernel bench can time one against the other.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy.sparse import csgraph

from repro.throughput.colgen import _MWU_EPS


class ReferenceDecoder:
    """Shortest-path trees decoded through a dense (tail, head) table."""

    def __init__(self, pricer) -> None:
        self.pricer = pricer
        table = pricer.table
        self.csr, self.perm = table.csr_structure()
        n = table.num_nodes
        self.lut = np.full(n * n, -1, dtype=np.int64)
        self.lut[
            table.tails.astype(np.int64) * n + table.heads.astype(np.int64)
        ] = np.arange(table.num_arcs)

    def tree_paths(
        self, lengths: np.ndarray
    ) -> Tuple[List[Optional[Tuple[int, ...]]], np.ndarray]:
        pricer = self.pricer
        csr, perm, lut = self.csr, self.perm, self.lut
        csr.data = lengths[perm]
        dist, pred = csgraph.dijkstra(
            csr, directed=True, indices=pricer.unique_srcs,
            return_predecessors=True,
        )
        n = pricer.table.num_nodes
        out: List[Optional[Tuple[int, ...]]] = []
        for i in range(pricer.nd):
            row = pricer.inv[i]
            dcol = int(pricer.dsts[i])
            scol = int(pricer.srcs[i])
            if not np.isfinite(dist[row, dcol]):
                out.append(None)
                continue
            path: List[int] = []
            v = dcol
            while v != scol:
                u = int(pred[row, v])
                path.append(int(lut[u * n + v]))
                v = u
            path.reverse()
            out.append(tuple(path))
        return out, dist


def reference_sweep(pricer, pool, caps: np.ndarray, phases: int) -> np.ndarray:
    """The pool sweep on the reference decode; returns the final lengths."""
    decoder = ReferenceDecoder(pricer)
    lengths = 1.0 / caps
    dem_vals = pricer.dem_vals
    for _ in range(phases):
        paths, _ = decoder.tree_paths(lengths)
        flats = [np.asarray(c, dtype=np.intp) for c in paths if c]
        if not flats:
            return lengths
        flat = np.concatenate(flats)
        vals = np.concatenate(
            [np.full(len(c), dem_vals[i]) for i, c in enumerate(paths) if c]
        )
        for i, col in enumerate(paths):
            if col is not None:
                pool.add(i, col)
        np.multiply.at(lengths, flat, 1.0 + _MWU_EPS * vals / caps[flat])
    return lengths
