"""The /v1 mount: the service's one URL space.

Every endpoint lives under ``/v1``.  The unversioned paths of the
service's first release get the same 404 ``not_found`` reply as any
other unknown path, listing the ``/v1`` paths, with no ``Deprecation``
header.
"""

import pytest

from repro import registry
from repro.api import ApiServer, ApiService, HttpClient, InProcessClient


@pytest.fixture()
def client():
    return InProcessClient(ApiService())


def _assert_unversioned_404(resp):
    assert resp.status == 404
    assert resp.json["error"]["code"] == "not_found"
    paths = resp.json["error"]["details"]["paths"]
    assert "/v1/healthz" in paths
    assert all(p.startswith("/v1/") for p in paths)
    assert "Deprecation" not in resp.headers


def test_v1_paths_are_canonical(client):
    resp = client.get("/v1/healthz").raise_for_status()
    assert "Deprecation" not in resp.headers


def test_unversioned_paths_are_not_found(client):
    _assert_unversioned_404(client.get("/healthz"))
    _assert_unversioned_404(
        client.post("/throughput", {"topology": "fattree:k=4"})
    )
    requests = client.get("/v1/context").json["requests"]
    assert set(requests) == {"by_endpoint", "errors"}


def test_trailing_slash_normalized(client):
    assert client.get("/v1/healthz/").status == 200
    assert client.get("/healthz/").status == 404


def test_context_registry_filter(client):
    resp = client.get("/v1/context?registry=solvers").raise_for_status()
    assert resp.json["registry"] == "solvers"
    assert set(resp.json["entries"]) == set(registry.SOLVERS.available())
    assert "registries" not in resp.json  # the manifest is not included


def test_context_registry_filter_unknown_name(client):
    resp = client.get("/v1/context?registry=widgets")
    assert resp.status == 400
    assert resp.json["error"]["code"] == "bad_spec"
    assert "solvers" in resp.json["error"]["details"]["registries"]


def test_schema_documents_jobs(client):
    body = client.get("/v1/schema").raise_for_status().json
    assert body["api_version"] == "v1"
    jobs = body["jobs"]
    assert jobs["states"] == [
        "pending", "running", "completed", "failed", "cancelled",
    ]
    assert "POST /v1/jobs" in jobs["endpoints"]
    assert "DELETE /v1/jobs/<id>" in jobs["endpoints"]


def test_404_lists_v1_paths(client):
    resp = client.get("/v1/frobnicate")
    assert resp.status == 404
    paths = resp.json["error"]["details"]["paths"]
    assert "/v1/sweep" in paths
    assert "/v1/jobs/<id>" in paths


def test_unversioned_paths_are_not_found_over_the_wire():
    with ApiServer(ApiService(), port=0) as server:
        http = HttpClient(server.host, server.port)
        try:
            _assert_unversioned_404(http.get("/healthz"))
            v1 = http.get("/v1/healthz").raise_for_status()
            assert "Deprecation" not in v1.headers
            # DELETE is wired through the HTTP front end too.
            resp = http.delete("/v1/jobs/nope")
            assert resp.status == 404
            # Query strings survive the wire path.
            filtered = http.get("/v1/context?registry=routings")
            assert filtered.json["registry"] == "routings"
        finally:
            http.close()
