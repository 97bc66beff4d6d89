"""Load bench for the ``repro.api`` service: warm state must pay for itself.

Boots a real :class:`ApiServer` on an ephemeral port and drives it with
concurrent stdlib HTTP clients in two phases over the same query mix:

* **cold** — every request carries ``"warm": false``, so the server
  rebuilds the topology, its path cache, and the exact-LP ArcTable and
  re-solves from scratch per request: the process-per-query baseline.
* **warm** — the same requests with the warm layers on: topologies,
  solver contexts, and the shared path cache persist across requests,
  and repeated queries short-circuit into the content-addressed result
  memo.

Requests-per-second and latency percentiles for both phases land in
``BENCH_api.json`` at the repo root.  Acceptance (full mode): warm
throughput >= 3x cold.  Both modes gate the warm p50 under 20 ms: a
keep-alive reply split across two TCP segments with Nagle on waits
~40 ms for the client's delayed ACK, and this catches that stall
coming back.  Set ``REPRO_PERF_QUICK=1`` for the reduced CI grid
(ratio still reported, only sanity-asserted), written to
``bench_out.bench_path`` outside the repository.
"""

from __future__ import annotations

import threading
import time

from bench_out import QUICK, bench_path
from repro.api import ApiServer, ApiService, HttpClient
from repro.ioutils import atomic_write_json
from repro.version import SPEC_HASH_VERSION, __version__

BENCH_PATH = bench_path("BENCH_api.json")

TOPOLOGY = (
    "jellyfish:switches=14,degree=4,servers=2"
    if QUICK
    else "jellyfish:switches=24,degree=5,servers=3"
)
FRACTIONS = [0.25, 0.5, 0.75, 1.0]
CLIENTS = 4
REQUESTS_PER_CLIENT = 8 if QUICK else 32
WARM_P50_LIMIT_MS = 20.0


def _percentile(values, q):
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _drive(server, warm: bool):
    """All clients hammer the same query mix; returns timing stats."""
    latencies = []
    failures = []
    lock = threading.Lock()
    barrier = threading.Barrier(CLIENTS + 1)

    def worker(worker_id):
        client = HttpClient(server.host, server.port, timeout=300.0)
        try:
            barrier.wait(timeout=30)
            for i in range(REQUESTS_PER_CLIENT):
                body = {
                    "topology": TOPOLOGY,
                    "fraction": FRACTIONS[(worker_id + i) % len(FRACTIONS)],
                    "warm": warm,
                }
                t0 = time.perf_counter()
                resp = client.post("/v1/throughput", body)
                elapsed = time.perf_counter() - t0
                with lock:
                    latencies.append(elapsed)
                    if resp.status != 200:
                        failures.append(resp.json)
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    barrier.wait(timeout=30)
    t0 = time.perf_counter()
    for t in threads:
        t.join(timeout=600)
    wall = time.perf_counter() - t0
    assert not failures, failures[:2]
    total = CLIENTS * REQUESTS_PER_CLIENT
    assert len(latencies) == total
    return {
        "requests": total,
        "clients": CLIENTS,
        "wall_s": round(wall, 4),
        "rps": round(total / wall, 2),
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
    }


def test_api_load_warm_vs_cold():
    service = ApiService()
    with ApiServer(service, port=0, workers=CLIENTS) as server:
        # Prime once so the warm phase measures steady state, not the
        # first-touch build (the cold phase rebuilds per request anyway).
        HttpClient(server.host, server.port, timeout=300.0).post(
            "/v1/throughput", {"topology": TOPOLOGY, "fractions": FRACTIONS}
        ).raise_for_status()

        cold = _drive(server, warm=False)
        warm = _drive(server, warm=True)
        cache_stats = service.state.stats()

    ratio = round(warm["rps"] / cold["rps"], 2)
    payload = {
        "suite": "api-load",
        "quick": QUICK,
        "library_version": __version__,
        "spec_hash_version": SPEC_HASH_VERSION,
        "topology": TOPOLOGY,
        "fractions": FRACTIONS,
        "cold": cold,
        "warm": warm,
        "warm_over_cold": ratio,
        "warm_caches": {
            "topologies": cache_stats["topologies"]["entries"],
            "solver_contexts": cache_stats["solver_contexts"]["entries"],
            "results": cache_stats["results"]["entries"],
            "result_hits": cache_stats["results"]["hits"],
        },
    }
    atomic_write_json(BENCH_PATH, payload, sort_keys=True)
    print(
        f"\napi-load: cold {cold['rps']} rps (p99 {cold['p99_ms']} ms), "
        f"warm {warm['rps']} rps (p99 {warm['p99_ms']} ms), {ratio}x"
    )

    # The warm phase must have actually exercised the warm layers.
    assert cache_stats["results"]["hits"] > 0
    assert cache_stats["topologies"]["entries"] == 1
    assert warm["p50_ms"] < WARM_P50_LIMIT_MS, payload
    if QUICK:
        assert ratio > 1.0, payload
    else:
        # Acceptance: warm serving >= 3x the cold-rebuild baseline.
        assert ratio >= 3.0, payload
