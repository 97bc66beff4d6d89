"""Shared per-topology path/routing cache (the hot-path accelerator).

Every layer of the library needs the same derived routing structures for
a given topology — hop-count distance matrices, ECMP next-hop tables,
k-shortest-path sets — and before this module each layer recomputed them
from scratch (one ``networkx`` BFS per destination per routing-policy
instance, Yen's algorithm per demand per LP call).  A :class:`PathCache`
computes each structure **once per topology**:

* the all-pairs hop-count matrix comes from a single C-speed sweep over
  a CSR adjacency (``scipy.sparse.csgraph``), replacing ``n`` Python
  BFS traversals;
* ECMP next-hop tables are derived from that matrix with vectorized
  arc filters (an arc ``v -> w`` is a valid next hop toward ``d`` iff
  ``dist[w, d] == dist[v, d] - 1``), byte-identical to the reference
  :func:`repro.throughput.paths.ecmp_next_hops` tables;
* k-shortest-path sets are memoized per ``(src, dst)`` pair with the
  largest ``k`` computed so far, so a sweep over routings or ``k``
  values enumerates Yen's algorithm exactly once per pair.

Caches are shared through :func:`shared_path_cache`, an in-process LRU
registry keyed on a stable *content hash* of the switch graph (node and
edge sets only — capacities do not affect hop counts), so any number of
routing policies, LP calls, and property analyses on equal topologies
hit one cache.  Optional disk persistence under ``.repro-cache/`` reuses
the atomic-write machinery of the result cache (PR 1), letting repeated
sweeps skip even the first computation.

Graphs are treated as immutable once cached (mutating a cached graph in
place yields stale tables, exactly as it would have with the previously
per-instance precomputation); topology *generators* in this library
always build fresh graphs, and the content-hash registry key means a
rebuilt or edited graph never aliases a stale entry.

Both the shared registry and each :class:`PathCache` are thread-safe:
the registry is a :class:`~repro.perf.lru.Lru`, and a
cache's lazy structures (distance matrix, ECMP tables, k-shortest-path
sets) are computed under a per-instance lock, so the threaded request
handlers of :mod:`repro.api` can share one warm cache without ever
observing a half-built table or computing one twice.  Content addressing
already made the caches safe across *processes*; the locks make them
safe across *threads*.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .. import obs
from ..ioutils import atomic_write_bytes, atomic_write_json
from .lru import Lru

__all__ = [
    "PathCache",
    "topology_content_hash",
    "shared_path_cache",
    "shared_cache_stats",
    "clear_shared_caches",
    "invalidate_shared_cache",
]


def _as_graph(graph_or_topology):
    """Accept either a networkx graph or anything exposing ``.graph``."""
    if hasattr(graph_or_topology, "edges"):
        return graph_or_topology
    graph = getattr(graph_or_topology, "graph", None)
    if graph is None or not hasattr(graph, "edges"):
        raise TypeError(
            f"expected a networkx graph or a Topology, got {graph_or_topology!r}"
        )
    return graph


def topology_content_hash(graph_or_topology, capacities: bool = False) -> str:
    """Stable SHA-256 of a switch graph's structure (nodes + edges).

    With ``capacities=False`` (the path caches' key) capacities are
    excluded: hop-count distances, ECMP tables, and k-shortest-path sets
    depend only on the unweighted structure, so equal-structure
    topologies with different link speeds share one cache entry.
    ``capacities=True`` also covers every edge's ``capacity`` — the key
    of the solver contexts, whose LP matrices bake capacities in.
    """
    graph = _as_graph(graph_or_topology)
    nodes = sorted(graph.nodes())
    if capacities:
        edges = sorted(
            (min(u, v), max(u, v), data.get("capacity"))
            for u, v, data in graph.edges(data=True)
        )
    else:
        edges = sorted(tuple(sorted((u, v))) for u, v in graph.edges())
    blob = json.dumps([nodes, edges], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class PathCache:
    """All-pairs routing structures for one topology, computed once.

    Parameters
    ----------
    graph_or_topology:
        The switch-level ``networkx`` graph (or a :class:`Topology`).
    persist_dir:
        Optional directory for on-disk persistence of the distance
        matrix and k-shortest-path sets (``None`` disables persistence).
        Writes are atomic (temp file + rename).
    """

    def __init__(self, graph_or_topology, persist_dir: Optional[str] = None) -> None:
        graph = _as_graph(graph_or_topology)
        self.graph = graph
        self.nodes: List[int] = sorted(graph.nodes())
        self.node_index: Dict[int, int] = {v: i for i, v in enumerate(self.nodes)}
        # The content hash and the CSR adjacency are built on first use:
        # a cache that only serves k-shortest paths never needs either.
        self._content_hash: Optional[str] = None
        self.persist_dir = persist_dir
        self._adjacency: Optional[sp.csr_matrix] = None
        self._arc_tails: Optional[np.ndarray] = None
        self._arc_heads: Optional[np.ndarray] = None

        self._dist: Optional[np.ndarray] = None
        self._tables: Optional[Dict[int, Dict[int, List[int]]]] = None
        # (src, dst) -> (k_computed, paths); serves any k <= k_computed,
        # and any k at all once Yen's has been exhausted (fewer than
        # k_computed simple paths exist).
        self._ksp: Dict[Tuple[int, int], Tuple[int, List[List[int]]]] = {}
        # Reentrant: ecmp_tables -> ecmp_next_hops -> distances nest.
        self._lock = threading.RLock()
        if persist_dir is not None:
            self._load_persisted()

    @property
    def content_hash(self) -> str:
        """:func:`topology_content_hash` of the graph (names the
        persistence files)."""
        if self._content_hash is None:
            self._content_hash = topology_content_hash(self.graph)
        return self._content_hash

    def _csr_adjacency(self) -> sp.csr_matrix:
        """The symmetric CSR adjacency, built on first use together with
        the arc arrays of :meth:`ecmp_next_hops`."""
        with self._lock:
            if self._adjacency is None:
                index = self.node_index
                tails: List[int] = []
                heads: List[int] = []
                for u, v in self.graph.edges():
                    ui, vi = index[u], index[v]
                    tails += (ui, vi)
                    heads += (vi, ui)
                tails_arr = np.asarray(tails, dtype=np.intp)
                heads_arr = np.asarray(heads, dtype=np.intp)
                # Arcs sorted by (tail, head) so per-tail next-hop lists
                # come out sorted — matching the reference tables'
                # determinism contract.
                order = np.lexsort((heads_arr, tails_arr))
                self._arc_tails = tails_arr[order]
                self._arc_heads = heads_arr[order]
                n = len(self.nodes)
                self._adjacency = sp.csr_matrix(
                    (np.ones(len(tails_arr)), (tails_arr, heads_arr)),
                    shape=(n, n),
                )
            return self._adjacency

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def distances(self) -> np.ndarray:
        """All-pairs hop-count matrix (``inf`` for unreachable pairs).

        Row/column order follows :attr:`nodes` (sorted switch ids).
        Computed by one C-speed unweighted sweep; cached thereafter.
        """
        with self._lock:
            if self._dist is None:
                obs.add("pathcache.misses")
                with obs.span("pathcache.distances", nodes=self.num_nodes):
                    self._dist = csgraph.shortest_path(
                        self._csr_adjacency(), method="D", directed=False,
                        unweighted=True,
                    )
                if self.persist_dir is not None:
                    self._persist_distances()
            else:
                obs.add("pathcache.hits")
            return self._dist

    def distances_from(self, sources) -> np.ndarray:
        """Hop-count rows for ``sources`` only, without the full matrix.

        The all-pairs matrix is O(n^2) memory — at 4096+ switches that is
        the scale wall, not the BFS time.  This computes just the
        requested rows in one C-speed multi-source sweep and does **not**
        cache them, so callers can stream a large node set in bounded
        chunks.  When the full matrix happens to be cached already, rows
        are sliced from it for free.

        Returns an array of shape ``(len(sources), num_nodes)`` with rows
        in the order given (columns follow :attr:`nodes`); ``inf`` marks
        unreachable pairs.
        """
        idx = np.asarray(
            [self.node_index[s] for s in sources], dtype=np.intp
        )
        with self._lock:
            if self._dist is not None:
                obs.add("pathcache.hits")
                return self._dist[idx]
        obs.add("pathcache.misses")
        with obs.span(
            "pathcache.distances_from", nodes=self.num_nodes,
            sources=int(idx.size),
        ):
            return csgraph.shortest_path(
                self._csr_adjacency(), method="D", directed=False,
                unweighted=True, indices=idx,
            )

    def distance(self, src: int, dst: int) -> float:
        """Hop distance between two switches (``inf`` if unreachable)."""
        d = self.distances()
        return float(d[self.node_index[src], self.node_index[dst]])

    def diameter(self) -> int:
        """Maximum hop count between any two switches.

        Raises :class:`ValueError` on a disconnected graph.
        """
        d = self.distances()
        if not np.all(np.isfinite(d)):
            raise ValueError("graph is not connected: diameter is infinite")
        return int(d.max())

    def average_path_length(self) -> float:
        """Mean hop count over all ordered switch pairs."""
        n = self.num_nodes
        if n < 2:
            raise ValueError("average path length needs at least two switches")
        d = self.distances()
        if not np.all(np.isfinite(d)):
            raise ValueError("graph is not connected")
        return float(d.sum() / (n * (n - 1)))

    def hop_distance_distribution(self) -> Dict[int, float]:
        """Fraction of ordered reachable switch pairs at each hop count."""
        d = self.distances()
        finite = d[np.isfinite(d) & (d > 0)].astype(np.int64)
        total = finite.size
        if total == 0:
            return {}
        counts = np.bincount(finite)
        return {
            int(hops): int(c) / total
            for hops, c in enumerate(counts)
            if c > 0
        }

    # ------------------------------------------------------------------
    # ECMP next-hop tables
    # ------------------------------------------------------------------
    def ecmp_next_hops(self, dst: int) -> Dict[int, List[int]]:
        """ECMP next-hop sets toward ``dst`` for every switch.

        Identical to :func:`repro.throughput.paths.ecmp_next_hops`
        (sorted next hops; empty list at the destination and at switches
        that cannot reach it), derived from the cached distance matrix.
        """
        self._csr_adjacency()  # the sorted arc arrays
        dist_d = self.distances()[:, self.node_index[dst]]
        tail_dist = dist_d[self._arc_tails]
        ok = np.isfinite(tail_dist) & (dist_d[self._arc_heads] == tail_dist - 1.0)
        table: Dict[int, List[int]] = {v: [] for v in self.nodes}
        nodes = self.nodes
        for ti, hi in zip(
            self._arc_tails[ok].tolist(), self._arc_heads[ok].tolist()
        ):
            table[nodes[ti]].append(nodes[hi])
        return table

    def ecmp_tables(self) -> Dict[int, Dict[int, List[int]]]:
        """Next-hop tables for every destination, computed once and shared.

        The returned mapping is cached on the :class:`PathCache` and
        handed out by reference — callers must treat it as read-only.
        """
        with self._lock:
            if self._tables is None:
                obs.add("pathcache.misses")
                with obs.span("pathcache.ecmp_tables", nodes=self.num_nodes):
                    self._tables = {
                        dst: self.ecmp_next_hops(dst) for dst in self.nodes
                    }
            else:
                obs.add("pathcache.hits")
            return self._tables

    # ------------------------------------------------------------------
    # K-shortest paths
    # ------------------------------------------------------------------
    def k_shortest_paths(self, src: int, dst: int, k: int) -> List[List[int]]:
        """The k shortest loopless paths from ``src`` to ``dst`` (memoized).

        Delegates to the reference Yen's implementation on a miss; a
        request for a smaller ``k`` than previously computed — or any
        ``k`` once the pair's simple paths are exhausted — is served
        from memory without touching the graph.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        key = (src, dst)
        with self._lock:
            cached = self._ksp.get(key)
            if cached is not None:
                k_computed, paths = cached
                if k <= k_computed or len(paths) < k_computed:
                    obs.add("pathcache.hits")
                    return [list(p) for p in paths[:k]]
            from ..throughput.paths import k_shortest_paths as yen

            obs.add("pathcache.misses")
            with obs.span("pathcache.ksp", k=k):
                paths = yen(self.graph, src, dst, k)
            self._ksp[key] = (k, paths)
            return [list(p) for p in paths]

    # ------------------------------------------------------------------
    # Disk persistence (atomic, under e.g. .repro-cache/)
    # ------------------------------------------------------------------
    def _dist_path(self) -> str:
        return os.path.join(
            self.persist_dir, f"paths-{self.content_hash[:32]}-dist.npy"
        )

    def _ksp_path(self) -> str:
        return os.path.join(
            self.persist_dir, f"paths-{self.content_hash[:32]}-ksp.json"
        )

    def _persist_distances(self) -> None:
        buf = io.BytesIO()
        np.save(buf, self._dist)
        atomic_write_bytes(self._dist_path(), buf.getvalue())

    def _load_persisted(self) -> None:
        n = self.num_nodes
        try:
            dist = np.load(self._dist_path())
            if dist.shape == (n, n):
                self._dist = dist
        except (OSError, ValueError):
            pass
        try:
            with open(self._ksp_path()) as f:
                raw = json.load(f)
            for key, (k_computed, paths) in raw.items():
                s, d = key.split("|")
                self._ksp[(int(s), int(d))] = (int(k_computed), paths)
        except (OSError, ValueError, TypeError):
            pass

    def save(self) -> None:
        """Persist the computed structures (no-op without ``persist_dir``).

        The distance matrix is already written when first computed; this
        additionally flushes the accumulated k-shortest-path sets.
        """
        if self.persist_dir is None:
            return
        with self._lock:
            if self._dist is not None:
                self._persist_distances()
            if self._ksp:
                payload = {
                    f"{s}|{d}": [k_computed, paths]
                    for (s, d), (k_computed, paths) in sorted(self._ksp.items())
                }
                atomic_write_json(self._ksp_path(), payload)


# ----------------------------------------------------------------------
# In-process shared registry
# ----------------------------------------------------------------------
_REGISTRY_MAX = 16
# PathCache construction builds nothing but the node index (every
# structure stays lazy), so a raced double-build is cheap, and the LRU
# keeps the first-inserted instance for every caller.
_REGISTRY = Lru(_REGISTRY_MAX, "pathcache.shared")


def shared_path_cache(
    graph_or_topology, persist_dir: Optional[str] = None
) -> PathCache:
    """The process-wide :class:`PathCache` for a topology.

    Keyed on the graph's content hash, so every routing policy, LP call,
    and property analysis over structurally equal topologies shares one
    cache (and its already-computed tables).  A small LRU bound keeps
    long sweeps over many distinct topologies from accumulating matrices.
    Thread-safe: concurrent callers with equal graphs get the *same*
    instance, whose lazy tables are themselves computed under the
    instance lock.
    """
    graph = _as_graph(graph_or_topology)
    key = (topology_content_hash(graph), persist_dir)
    cache = _REGISTRY.get(key)
    if cache is None:
        cache = _REGISTRY.put(key, PathCache(graph, persist_dir=persist_dir))
    return cache


def shared_cache_stats() -> Dict[str, int]:
    """Registry occupancy plus per-entry computed-structure counts.

    A cheap, lock-consistent snapshot for status surfaces (the
    ``repro.api`` ``/context`` manifest): how many topologies are warm
    and how many have their distance matrix / ECMP tables / k-shortest
    path sets already computed.
    """
    caches = _REGISTRY.values()
    return {
        "entries": len(caches),
        "max_entries": _REGISTRY.max_entries,
        "with_distances": sum(1 for c in caches if c._dist is not None),
        "with_ecmp_tables": sum(1 for c in caches if c._tables is not None),
        "ksp_pairs": sum(len(c._ksp) for c in caches),
    }


def clear_shared_caches() -> int:
    """Drop every registry entry; returns the number removed (tests)."""
    return _REGISTRY.clear()


def invalidate_shared_cache(graph_or_topology) -> int:
    """Drop the shared entries for one topology; returns how many.

    Called when a topology is degraded: any cache keyed on the degraded
    graph's content hash (e.g. from a graph that was mutated in place)
    is discarded so distance
    matrices, ECMP tables, and path sets are rebuilt against the actual
    degraded structure on next use.
    """
    content = topology_content_hash(graph_or_topology)
    stale = [key for key in _REGISTRY.keys() if key[0] == content]
    for key in stale:
        _REGISTRY.pop(key)
    if stale:
        obs.add("pathcache.invalidations", len(stale))
    return len(stale)
