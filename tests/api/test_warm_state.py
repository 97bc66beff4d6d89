"""Warm-state behaviour: the acceptance criterion of the service.

A second request naming the same topology spec must hit the warm layers
— the built topology, the exact-LP context (persistent ArcTable), and
the process-wide shared path cache — which is asserted here through the
obs counters the caches emit (``api.topology.hits``,
``api.context.hits``, ``pathcache.shared.hits``), not through private
attributes.  Byte-identical queries short-circuit into the
content-addressed result memo; ``"warm": false`` bypasses everything.
"""

import threading

import pytest

from repro import obs
from repro.api import ApiService, InProcessClient, WarmState
from repro.perf import clear_shared_caches
from repro.solvers import have_highs_core

JELLYFISH = "jellyfish:switches=12,degree=4,servers=2"


@pytest.fixture()
def client():
    clear_shared_caches()
    yield InProcessClient(ApiService())
    clear_shared_caches()


def _counter(name):
    snap = obs.snapshot().get(name)
    return snap["value"] if snap else 0.0


def test_second_request_hits_warm_state_via_obs_counters(client):
    with obs.session():
        first = client.post(
            "/v1/throughput", {"topology": JELLYFISH, "fraction": 1.0}
        ).raise_for_status()
        assert first.json["warm"]["topology"] == "miss"
        assert first.json["warm"]["context"] == "miss"
        assert _counter("api.topology.misses") == 1
        assert _counter("api.context.misses") == 1

        # Different fraction: skips the result memo, so the solve runs
        # again — against every warm layer.
        second = client.post(
            "/v1/throughput", {"topology": JELLYFISH, "fraction": 0.5}
        ).raise_for_status()
        assert second.json["warm"]["topology"] == "hit"
        assert second.json["warm"]["context"] == "hit"
        assert _counter("api.topology.hits") >= 1
        assert _counter("api.context.hits") >= 1
        assert _counter("pathcache.shared.hits") >= 1
        assert _counter("api.requests") == 2


def test_identical_request_served_from_result_memo(client):
    body = {"topology": JELLYFISH, "fraction": 0.8}
    first = client.post("/v1/throughput", dict(body)).raise_for_status()
    second = client.post("/v1/throughput", dict(body)).raise_for_status()
    assert first.json["results"][0]["cached"] is False
    assert second.json["results"][0]["cached"] is True
    assert second.json["warm"]["results_cached"] == 1
    assert (
        second.json["results"][0]["per_server_throughput"]
        == first.json["results"][0]["per_server_throughput"]
    )


def test_cold_mode_bypasses_every_warm_layer(client):
    body = {"topology": JELLYFISH, "warm": False}
    first = client.post("/v1/throughput", dict(body)).raise_for_status()
    second = client.post("/v1/throughput", dict(body)).raise_for_status()
    for resp in (first, second):
        assert resp.json["warm"]["enabled"] is False
        assert resp.json["warm"]["topology"] == "miss"
        assert resp.json["results"][0]["cached"] is False
    stats = client.service.state.stats()
    assert stats["topologies"]["entries"] == 0
    assert stats["solver_contexts"]["entries"] == 0
    assert stats["results"]["entries"] == 0


def test_warm_and_cold_agree(client):
    warm = client.post(
        "/v1/throughput", {"topology": JELLYFISH}
    ).raise_for_status()
    cold = client.post(
        "/v1/throughput", {"topology": JELLYFISH, "warm": False}
    ).raise_for_status()
    assert warm.json["results"][0]["per_server_throughput"] == pytest.approx(
        cold.json["results"][0]["per_server_throughput"]
    )
    assert warm.json["topology"] == cold.json["topology"]


def test_context_reports_cache_stats(client):
    client.post("/v1/throughput", {"topology": JELLYFISH}).raise_for_status()
    caches = client.get("/v1/context").raise_for_status().json["caches"]
    assert caches["topologies"]["entries"] == 1
    assert caches["solver_contexts"]["entries"] == 1
    assert caches["results"]["entries"] == 1
    assert caches["path_cache"]["entries"] == 1


def test_failures_key_separates_warm_entries(client):
    healthy = client.post(
        "/v1/throughput", {"topology": JELLYFISH}
    ).raise_for_status()
    degraded = client.post(
        "/v1/throughput",
        {"topology": JELLYFISH, "failures": "links:fraction=0.1,seed=3"},
    )
    assert degraded.json["warm"]["topology"] == "miss"
    stats = client.service.state.stats()
    assert stats["topologies"]["entries"] == 2
    if degraded.status == 200:
        assert (
            degraded.json["topology"]["links"]
            < healthy.json["topology"]["links"]
        )


def test_warm_state_topology_identity():
    state = WarmState()
    a, hit_a = state.topology(JELLYFISH)
    b, hit_b = state.topology(JELLYFISH)
    assert (hit_a, hit_b) == (False, True)
    assert a is b
    # Equivalent mapping spec resolves to the same cache entry.
    c, hit_c = state.topology(
        {"family": "jellyfish", "switches": 12, "degree": 4, "servers": 2}
    )
    assert hit_c and c is a


def test_result_memo_lru_eviction():
    state = WarmState(max_results=2)
    for i in range(4):
        state.result_put(f"key-{i}", {"i": i})
    assert state.result_get("key-0") is None
    assert state.result_get("key-3") == {"i": 3}
    assert state.stats()["results"]["evictions"] == 2


def test_incremental_contexts_survive_across_requests(client):
    """The ISSUE's acceptance: repeated requests with the incremental
    solver warm-start off prior requests — visible through the
    ``solver.warm_start.*`` counters and per-point flags."""
    from repro.solvers import reset_warm_start_stats

    reset_warm_start_stats()
    with obs.session():
        first = client.post(
            "/v1/throughput",
            {"topology": JELLYFISH, "solver": "highs-incremental",
             "fraction": 1.0, "seed": 1},
        ).raise_for_status()
        assert first.json["warm"]["context"] == "miss"
        assert first.json["results"][0]["warm_started"] is False
        assert _counter("solver.warm_start.miss") == 1
        assert _counter("api.context.misses") == 1

        # Different demand (scaled), same support: a warm re-solve off
        # the model the *previous request* built.
        second = client.post(
            "/v1/throughput",
            {"topology": JELLYFISH, "solver": "highs-incremental",
             "fraction": 1.0, "seed": 1, "per_server_demand": 0.5},
        ).raise_for_status()
        assert second.json["warm"]["context"] == "hit"
        assert _counter("api.context.hits") == 1

    exact = client.post(
        "/v1/throughput",
        {"topology": JELLYFISH, "solver": "highs-exact", "fraction": 1.0,
         "seed": 1},
    ).raise_for_status()
    assert first.json["results"][0]["per_server_throughput"] == pytest.approx(
        exact.json["results"][0]["per_server_throughput"], abs=1e-9
    )


def test_context_surfaces_warm_start_counters_and_incremental_stats(client):
    from repro.solvers import reset_warm_start_stats

    reset_warm_start_stats()
    for fraction in (0.5, 1.0, 0.5):
        client.post(
            "/v1/throughput",
            {"topology": JELLYFISH, "solver": "highs-incremental",
             "fraction": fraction, "seed": 2},
        ).raise_for_status()
    caches = client.get("/v1/context").raise_for_status().json["caches"]
    warm_start = caches["warm_start"]
    assert warm_start["models_built"] >= 1
    assert warm_start["miss"] >= 1
    contexts = caches["solver_contexts"]
    assert contexts["entries"] == 1
    (ctx,) = contexts["contexts"]
    assert ctx["kind"] == "edge-lp"
    assert ctx["models_built"] >= 1
    assert ctx["cold_solves"] >= 1
    # No live model: each solve builds a fresh core model (``linprog``
    # only where scipy lacks the core bindings).
    assert ctx["engine"] == (
        "highs-core-cold" if have_highs_core() else "linprog"
    )
    # The third request repeated fraction 0.5 → served from the result
    # memo, so solves stay at two and both were cold (new supports).
    assert ctx["cold_solves"] + ctx["warm_solves"] == 2


def test_incremental_cold_bypass(client):
    body = {"topology": JELLYFISH, "solver": "highs-incremental",
            "warm": False}
    resp = client.post("/v1/throughput", dict(body)).raise_for_status()
    assert resp.json["warm"]["enabled"] is False
    assert resp.json["results"][0]["warm_started"] is False
    assert resp.json["results"][0]["basis_reused"] is False
    stats = client.service.state.stats()
    assert stats["solver_contexts"]["entries"] == 0


def test_concurrent_requests_share_one_warm_entry(client):
    statuses = []
    lock = threading.Lock()
    barrier = threading.Barrier(4)

    def worker(i):
        barrier.wait(timeout=10)
        resp = client.post(
            "/v1/throughput",
            {"topology": JELLYFISH, "fraction": 0.2 + 0.2 * i},
        )
        with lock:
            statuses.append(resp.status)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert statuses == [200, 200, 200, 200]
    stats = client.service.state.stats()
    assert stats["topologies"]["entries"] == 1
    assert stats["solver_contexts"]["entries"] == 1


def test_context_stats_never_stall_other_requests():
    """``/v1/context`` reads context stats outside the state lock: a
    context busy in a long solve must not block other requests' cache
    lookups."""
    from repro import registry

    state = WarmState()
    topo, _ = state.topology(JELLYFISH)
    backend = registry.solver("highs-incremental")
    context, _ = state.solver_context(
        state.topology_key(JELLYFISH), topo, backend, {}
    )
    held, release = threading.Event(), threading.Event()

    def hold():
        with context._lock:
            held.set()
            release.wait(timeout=10)

    holder = threading.Thread(target=hold)
    holder.start()
    assert held.wait(timeout=5)
    reader = threading.Thread(target=state.stats)
    reader.start()
    reader.join(timeout=0.2)  # let stats() reach the busy context
    lookup = threading.Thread(target=state.topology, args=("fattree:k=4",))
    try:
        lookup.start()
        lookup.join(timeout=2)
        assert not lookup.is_alive(), "topology lookup stalled behind stats()"
    finally:
        release.set()
        for t in (holder, reader, lookup):
            t.join(timeout=10)
