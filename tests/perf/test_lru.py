"""The shared counted LRU behind every warm cache in the library."""

import sys
import threading

from repro import obs
from repro.perf import Lru


def _counter(name):
    snap = obs.snapshot().get(name)
    return snap["value"] if snap else 0.0


def test_bound_evicts_least_recent():
    lru = Lru(3, "test.lru")
    for i in range(5):
        lru.put(i, f"v{i}")
    assert len(lru) == 3
    assert lru.keys() == [2, 3, 4]
    assert lru.get(0) is None
    assert lru.stats() == {
        "entries": 3, "max_entries": 3, "hits": 0, "misses": 1,
        "evictions": 2,
    }


def test_get_refreshes_recency():
    lru = Lru(2, "test.lru")
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1
    lru.put("c", 3)
    assert lru.keys() == ["a", "c"]
    assert lru.values() == [1, 3]


def test_put_keeps_incumbent():
    lru = Lru(4, "test.lru")
    first, second = object(), object()
    assert lru.put("k", first) is first
    assert lru.put("k", second) is first
    assert lru.get("k") is first
    assert len(lru) == 1


def test_pop_checks_out_without_counting():
    lru = Lru(4, "test.lru")
    lru.put("k", "v")
    assert lru.pop("k") == "v"
    assert lru.pop("k") is None
    assert len(lru) == 0
    stats = lru.stats()
    assert (stats["hits"], stats["misses"]) == (0, 0)
    # Put back after use, as the edge-LP structure pool does.
    lru.put("k", "v")
    assert lru.get("k") == "v"


def test_clear_returns_removed_and_keeps_counters():
    lru = Lru(4, "test.lru")
    lru.put(1, "a")
    lru.get(1)
    assert lru.clear() == 1
    assert len(lru) == 0
    assert lru.stats()["hits"] == 1


def test_obs_counter_names():
    lru = Lru(1, "test.lru")
    with obs.session():
        lru.get("x")
        lru.put("x", 1)
        lru.get("x")
        lru.put("y", 2)
        assert _counter("test.lru.misses") == 1
        assert _counter("test.lru.hits") == 1
        assert _counter("test.lru.evictions") == 1


def test_concurrent_churn_does_not_corrupt():
    """Eight threads interleave get/put under eviction pressure (the
    design engine's memos are shared by HTTP handler threads and job
    workers); nothing may raise, the bound must hold and every counted
    lookup must be accounted for."""
    lru = Lru(8, "test.lru")
    errors = []
    rounds = 2000

    def worker(offset):
        try:
            for i in range(rounds):
                key = f"k{(i + offset) % 32}"
                lru.get(key)
                lru.put(key, {"i": i})
        except Exception as exc:  # noqa: BLE001 - the assertion
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(o,)) for o in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(lru) <= 8
    stats = lru.stats()
    assert stats["hits"] + stats["misses"] == 8 * rounds
