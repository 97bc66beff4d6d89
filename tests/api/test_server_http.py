"""The real HTTP server: sockets, headers, framing, concurrency.

Everything semantic is covered through the in-process client; these
tests only assert what the wire adds — an ephemeral-port server is
booted once per module and exercised with stdlib ``http.client``.
"""

import json
import socket
import statistics
import threading
import time

import pytest

from repro.api import ApiServer, ApiService, HttpClient

JELLYFISH = "jellyfish:switches=12,degree=4,servers=2"


@pytest.fixture(scope="module")
def server():
    srv = ApiServer(
        ApiService(max_body_bytes=256 * 1024), port=0, workers=4
    ).start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    c = HttpClient(server.host, server.port)
    yield c
    c.close()


def test_ephemeral_port_resolved(server):
    assert server.port != 0
    assert server.url.startswith("http://127.0.0.1:")


def test_healthz_over_http(client):
    resp = client.get("/v1/healthz").raise_for_status()
    assert resp.json["ok"] is True
    assert resp.headers["Content-Type"] == "application/json"


def test_request_id_header_roundtrip(client):
    resp = client.post(
        "/v1/throughput", {"topology": JELLYFISH}, request_id="wire-7"
    ).raise_for_status()
    assert resp.headers["X-Request-Id"] == "wire-7"
    assert resp.json["request_id"] == "wire-7"


def test_request_id_generated_and_echoed(client):
    resp = client.get("/v1/context").raise_for_status()
    assert resp.headers["X-Request-Id"] == resp.json["request_id"]
    assert len(resp.json["request_id"]) >= 8


def test_content_length_is_exact(client):
    resp = client.get("/v1/healthz")
    assert int(resp.headers["Content-Length"]) == len(
        json.dumps(resp.json).encode()
    )


def test_trailing_slash_and_query_string_normalized(client):
    assert client.get("/v1/healthz/").status == 200
    assert client.get("/v1/healthz?probe=1").status == 200


def test_error_statuses_over_http(client):
    assert client.get("/v1/nope").status == 404
    assert client.post("/v1/schema").status == 405
    assert client.post("/v1/throughput", b"{broken").status == 400


def test_oversized_body_rejected_without_reading(client):
    resp = client.post("/v1/throughput", b"x" * (512 * 1024))
    assert resp.status == 413
    assert resp.json["error"]["code"] == "payload_too_large"
    # The connection stays usable (the client may transparently
    # reconnect if the server dropped it mid-upload).
    assert client.get("/v1/healthz").status == 200


def test_concurrent_clients_all_served(server):
    statuses, lock = [], threading.Lock()
    barrier = threading.Barrier(4)

    def worker(i):
        c = HttpClient(server.host, server.port)
        try:
            barrier.wait(timeout=10)
            resp = c.post(
                "/v1/throughput",
                {"topology": JELLYFISH, "fraction": 0.25 * (i + 1)},
            )
            with lock:
                statuses.append(resp.status)
        finally:
            c.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert statuses == [200, 200, 200, 200]


def test_context_manager_lifecycle():
    with ApiServer(ApiService(), port=0, workers=1) as srv:
        c = HttpClient(srv.host, srv.port)
        assert c.get("/v1/healthz").status == 200
        c.close()


@pytest.fixture()
def probed_server():
    """A server whose handlers record, per connection, whether Nagle is
    off on the accepted socket."""
    srv = ApiServer(ApiService(), port=0, workers=1)
    nodelay = []
    base = srv._httpd.RequestHandlerClass

    class Probed(base):
        def setup(self):
            super().setup()
            nodelay.append(
                self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )

    srv._httpd.RequestHandlerClass = Probed
    srv.start()
    yield srv, nodelay
    srv.stop()


def test_accepted_socket_has_nodelay(probed_server):
    srv, nodelay = probed_server
    c = HttpClient(srv.host, srv.port)
    try:
        assert c.get("/v1/healthz").status == 200
    finally:
        c.close()
    assert nodelay and all(nodelay)


def test_keepalive_requests_do_not_wait_for_delayed_ack(client):
    """Sequential requests on one connection stay far below the ~40 ms
    delayed-ACK floor a two-segment reply with Nagle on would hit."""
    body = {"topology": JELLYFISH, "fraction": 0.5}
    client.post("/v1/throughput", body).raise_for_status()  # memo miss
    timings = {"healthz": [], "hit": []}
    for i in range(30):
        kind = "hit" if i % 2 else "healthz"
        t0 = time.perf_counter()
        if kind == "hit":
            resp = client.post("/v1/throughput", body).raise_for_status()
        else:
            resp = client.get("/v1/healthz").raise_for_status()
        timings[kind].append(time.perf_counter() - t0)
        if kind == "hit":
            assert resp.json["results"][0]["cached"] is True
    for kind, values in timings.items():
        assert statistics.median(values) < 0.015, (kind, values)
