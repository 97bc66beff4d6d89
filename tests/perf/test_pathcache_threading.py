"""Concurrent-access regression tests for the shared path cache.

The cache was multiprocess-safe by construction (content addressing,
atomic writes) but only thread-safe by luck before the ``repro.api``
threaded server made concurrent in-process access routine.  These tests
hammer the registry LRU and one cache's lazy structures from many
threads and assert the invariants the locks are meant to provide:

* equal graphs resolve to one shared ``PathCache`` instance;
* lazily computed structures are identical across threads (no reader
  ever sees a half-built table);
* eviction under a tiny LRU bound never corrupts the registry or
  raises from a concurrent get/insert.
"""

import threading

import pytest

from repro.perf import (
    PathCache,
    clear_shared_caches,
    shared_cache_stats,
    shared_path_cache,
)
from repro.perf import pathcache as pathcache_mod
from repro.topologies import jellyfish

THREADS = 8


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_shared_caches()
    yield
    clear_shared_caches()


def _run_threads(worker, n=THREADS):
    """Run ``worker(i)`` on n threads; re-raise the first failure."""
    errors = []
    barrier = threading.Barrier(n)

    def wrapped(i):
        try:
            barrier.wait(timeout=10)
            worker(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    if errors:
        raise errors[0]


def test_equal_graphs_share_one_instance_across_threads():
    topo = jellyfish(12, 4, 2, seed=1)
    seen = []
    lock = threading.Lock()

    def worker(_i):
        cache = shared_path_cache(topo)
        with lock:
            seen.append(cache)

    _run_threads(worker)
    assert len(seen) == THREADS
    assert all(c is seen[0] for c in seen)
    assert shared_cache_stats()["entries"] == 1


def test_lazy_structures_consistent_under_concurrency():
    topo = jellyfish(12, 4, 2, seed=2)
    reference = PathCache(topo.graph)
    ref_tables = reference.ecmp_tables()
    ref_dist = reference.distances()
    results = []
    lock = threading.Lock()

    def worker(i):
        cache = shared_path_cache(topo)
        tables = cache.ecmp_tables()
        dist = cache.distances()
        paths = cache.k_shortest_paths(
            cache.nodes[0], cache.nodes[-1], k=2 + i % 3
        )
        with lock:
            results.append((tables, dist, paths))

    _run_threads(worker)
    for tables, dist, paths in results:
        assert tables == ref_tables
        assert (dist == ref_dist).all()
        # Every thread's k prefix agrees with the reference enumeration.
        ref_paths = reference.k_shortest_paths(
            reference.nodes[0], reference.nodes[-1], k=len(paths)
        )
        assert paths == ref_paths


def test_eviction_under_concurrent_distinct_topologies(monkeypatch):
    monkeypatch.setattr(pathcache_mod._REGISTRY, "max_entries", 2)
    topologies = [jellyfish(10, 4, 2, seed=s) for s in range(THREADS)]

    def worker(i):
        # Each thread cycles through every topology, forcing constant
        # insert/evict churn on a 2-entry LRU.
        for topo in topologies[i:] + topologies[:i]:
            cache = shared_path_cache(topo)
            assert cache.diameter() >= 1

    _run_threads(worker)
    assert shared_cache_stats()["entries"] <= 2


def test_stats_snapshot_is_consistent():
    topo = jellyfish(10, 4, 2, seed=3)
    shared_path_cache(topo).distances()
    stats = shared_cache_stats()
    assert stats["entries"] == 1
    assert stats["with_distances"] == 1
    assert stats["with_ecmp_tables"] == 0
