"""Warm in-process state shared across requests of the API service.

The whole point of running topology evaluation as a *long-lived* service
(rather than a process per query) is that the expensive, reusable
structure survives between requests:

* **built topologies** — constructing a topology (and degrading it under
  a failure scenario) is pure given its spec, so equal specs share one
  immutable instance;
* **solver contexts** — one per (topology, context kind, solver
  parameters): the exact edge LP's
  :class:`~repro.throughput.EdgeLpContext` (ArcTable, component labels,
  assembled LP structures and — with ``mode=core`` — live HiGHS models
  whose simplex bases carry over),
  shared by ``highs-exact`` / ``exact`` / ``highs-batched`` /
  ``highs-incremental``, and colgen's
  :class:`~repro.throughput.ColgenTopologyContext` (its path pool), so
  a repeated query warm-starts off *prior requests* exactly as the
  harness Runner does across sweep points;
* **solve results** — throughput queries are deterministic functions of
  their canonical payload, so identical queries are served straight from
  a content-addressed memo (the in-memory analogue of the harness's
  ``.repro-cache/``);
* **path caches** — topology properties (diameter, average path length)
  are served from the process-wide
  :func:`repro.perf.shared_path_cache`, which request handlers share
  with every other layer of the library.

Each layer is a :class:`repro.perf.Lru`, whose lock is held only around
dictionary operations — construction happens outside it, so two
concurrent misses on *different* topologies build in parallel, and a
raced double-build of the *same* key keeps the first-inserted instance.
Its counters are mirrored to :mod:`repro.obs` (``api.topology.hits``
etc.) so warm-state behaviour shows up in traces.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, Tuple

from .. import registry
from ..perf import Lru
from ..topologies import Topology

__all__ = ["WarmState", "canonical_key"]


def canonical_key(payload: Any) -> str:
    """A stable content key for any JSON-serializable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class WarmState:
    """The request handlers' shared caches, thread-safe.

    Parameters bound the footprint: topologies and solver contexts hold
    dense per-topology structure (an ArcTable, component labels, cached
    LP structures or path pools), so their LRUs stay small; result memo
    entries are single solve outcomes, stored without per-arc flows.
    :func:`repro.harness.execute.evaluate_lp` is the one reader and
    writer of all three.
    """

    def __init__(
        self,
        max_topologies: int = 32,
        max_contexts: int = 16,
        max_results: int = 4096,
    ) -> None:
        self._topologies = Lru(max_topologies, "api.topology")
        self._contexts = Lru(max_contexts, "api.context")
        self._results = Lru(max_results, "api.results")
        self.started_at = time.time()

    # ------------------------------------------------------------------
    # Topologies
    # ------------------------------------------------------------------
    @staticmethod
    def topology_key(spec: Any, failures: Any = None) -> str:
        """The canonical cache key of a (topology spec, failures) pair.

        Raises :class:`~repro.registry.RegistryError` on malformed
        specs — before any construction work happens.
        """
        name, params = registry.parse_spec(spec, key="family")
        failure_spec = None
        if failures is not None:
            failure_spec = registry.failure(failures).to_spec()
        return canonical_key(
            {"family": name, "params": params, "failures": failure_spec}
        )

    def topology(self, spec: Any, failures: Any = None) -> Tuple[Topology, bool]:
        """The warm topology for a spec; returns ``(topology, was_hit)``.

        Cached topologies are treated as immutable, which every layer of
        the library already assumes (``degrade`` copies, generators
        build fresh graphs).
        """
        key = self.topology_key(spec, failures)
        topo = self._topologies.get(key)
        if topo is not None:
            return topo, True
        topo = registry.topology(spec)
        if failures is not None:
            topo = topo.degrade(registry.failure(failures))
        return self._topologies.put(key, topo), False

    # ------------------------------------------------------------------
    # Solver contexts (ArcTables, LP structures, path pools)
    # ------------------------------------------------------------------
    def solver_context(
        self, topology_key: str, topology: Topology, backend: Any,
        params: Dict[str, Any],
    ) -> Tuple[Any, bool]:
        """The warm solver context; returns ``(context, was_hit)``.

        Keyed on the topology *spec* key (not the graph structure alone,
        because contexts bake in per-arc capacities), the backend's
        ``context_kind`` and the solver parameters, so backends that
        build equal contexts share one.  Contexts guard their own
        mutable state, so concurrent handlers share one freely.
        """
        key = canonical_key(
            {
                "topology": topology_key,
                "kind": backend.context_kind,
                "params": params,
            }
        )
        context = self._contexts.get(key)
        if context is not None:
            return context, True
        context = backend.new_context(topology)
        return self._contexts.put(key, context), False

    # ------------------------------------------------------------------
    # Content-addressed result memo
    # ------------------------------------------------------------------
    def result_get(self, key: str) -> Any:
        return self._results.get(key)

    def result_put(self, key: str, value: Any) -> None:
        self._results.put(key, value)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """A JSON-ready snapshot for the ``/context`` manifest.

        Context stats are read from a snapshot, outside the LRU's lock,
        so a context busy with a long solve never stalls other requests'
        cache lookups.
        """
        from ..perf import shared_cache_stats
        from ..solvers import warm_start_stats

        warm = {
            "topologies": self._topologies.stats(),
            "solver_contexts": self._contexts.stats(),
            "results": self._results.stats(),
        }
        warm["solver_contexts"]["contexts"] = [
            ctx.stats() for ctx in self._contexts.values()
        ]
        warm["path_cache"] = shared_cache_stats()
        warm["warm_start"] = warm_start_stats()
        return warm

    def clear(self) -> None:
        """Drop every warm entry (tests; counters are kept)."""
        self._topologies.clear()
        self._contexts.clear()
        self._results.clear()
