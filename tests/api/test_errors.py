"""The HTTP error contract: every failure mode → documented status + body.

Covers the full table in :mod:`repro.api.errors`: malformed JSON,
malformed specs (unknown topology/solver/parameters), infeasible LPs
(via a registered always-infeasible fake solver — the paper's
max-concurrent LP is never naturally infeasible), oversized payloads,
unknown paths, and wrong methods.  Every error body must carry the
uniform ``{"error": {code, message, request_id, ...}}`` envelope, with
the request id mirrored at the top level.
"""

import pytest

from repro import registry
from repro.api import ApiError, ApiService, InProcessClient, classify_exception
from repro.harness.spec import SpecError
from repro.registry import RegistryError
from repro.solvers.base import SolveOutcome, SolveStatus
from repro.throughput.errors import InfeasibleError

JELLYFISH = "jellyfish:switches=10,degree=4,servers=2"


@pytest.fixture()
def client():
    return InProcessClient(ApiService(max_body_bytes=64 * 1024))


def _assert_error(resp, status, code):
    assert resp.status == status
    assert resp.json["error"]["code"] == code
    assert resp.json["error"]["message"]
    assert resp.json["request_id"]
    # The id lives inside the envelope too, so the error object is
    # self-contained when logged or forwarded.
    assert resp.json["error"]["request_id"] == resp.json["request_id"]


def test_malformed_json(client):
    _assert_error(client.post("/v1/throughput", b"{not json"), 400, "bad_json")


def test_non_object_body(client):
    _assert_error(client.post("/v1/throughput", b"[1, 2, 3]"), 400, "bad_json")


def test_non_utf8_body(client):
    _assert_error(client.post("/v1/throughput", b"\xff\xfe{}"), 400, "bad_json")


def test_missing_topology_key(client):
    _assert_error(client.post("/v1/throughput", {}), 400, "bad_spec")


def test_unknown_topology_family(client):
    resp = client.post("/v1/throughput", {"topology": "hypercube:dim=4"})
    _assert_error(resp, 400, "bad_spec")
    assert "hypercube" in resp.json["error"]["message"]


def test_bad_topology_parameter(client):
    resp = client.post(
        "/v1/throughput", {"topology": "jellyfish:bogus_knob=1"}
    )
    _assert_error(resp, 400, "bad_spec")


def test_unknown_solver(client):
    resp = client.post(
        "/v1/throughput", {"topology": JELLYFISH, "solver": "cplex"}
    )
    _assert_error(resp, 400, "bad_spec")
    assert "highs-batched" in resp.json["error"]["message"]


@pytest.mark.parametrize(
    "solver",
    [
        "highs-paths:k=2.5",
        "highs-colgen:k=2.5",
        "highs-colgen:passes=-3",
        "highs-colgen:passes=0",
        "highs-colgen:phases=-1",
        "highs-colgen:k=abc",
        "highs-paths:k=abc",
    ],
)
def test_bad_integer_solver_knob(client, solver):
    resp = client.post(
        "/v1/throughput", {"topology": JELLYFISH, "solver": solver}
    )
    _assert_error(resp, 400, "bad_spec")
    assert "must be an integer" in resp.json["error"]["message"]


def test_bad_fractions(client):
    for fractions in ([], [0.0], [1.5], ["half"]):
        resp = client.post(
            "/v1/throughput", {"topology": JELLYFISH, "fractions": fractions}
        )
        _assert_error(resp, 400, "bad_spec")


def test_simulate_unknown_field(client):
    resp = client.post(
        "/v1/simulate", {"topology": {"family": "jellyfish"}, "wlrkoad": {}}
    )
    _assert_error(resp, 400, "bad_spec")


def test_sweep_empty_document(client):
    _assert_error(client.post("/v1/sweep", {"options": {}}), 400, "bad_spec")


def test_sweep_too_many_points():
    client = InProcessClient(ApiService(max_sweep_points=3))
    resp = client.post(
        "/v1/sweep",
        {
            "defaults": {"topology": {"family": "jellyfish"}, "engine": "lp"},
            "grid": {"workload.fraction": [0.2, 0.4, 0.6, 0.8]},
        },
    )
    _assert_error(resp, 400, "too_many_points")
    assert resp.json["error"]["details"]["max_sweep_points"] == 3


def test_compare_needs_two_topologies(client):
    resp = client.post("/v1/compare", {"topologies": [JELLYFISH]})
    _assert_error(resp, 400, "bad_spec")


def test_oversized_payload(client):
    padding = "x" * (128 * 1024)
    resp = client.post("/v1/throughput", '{"topology": "%s"}' % padding)
    _assert_error(resp, 413, "payload_too_large")
    assert resp.json["error"]["details"]["max_body_bytes"] == 64 * 1024


def test_unknown_path(client):
    resp = client.get("/v1/topologies")
    _assert_error(resp, 404, "not_found")
    assert "/v1/throughput" in resp.json["error"]["details"]["paths"]


def test_method_not_allowed(client):
    resp = client.post("/v1/context")
    _assert_error(resp, 405, "method_not_allowed")
    assert resp.json["error"]["details"]["allowed"] == ["GET"]
    resp = client.get("/v1/throughput")
    _assert_error(resp, 405, "method_not_allowed")
    assert resp.json["error"]["details"]["allowed"] == ["POST"]


class _AlwaysInfeasible:
    """A fake backend: the max-concurrent LP is never naturally
    infeasible (t=0 is always a solution), so the 422 path needs one."""

    def solve(self, topology, tm, per_server_demand=1.0):
        error = InfeasibleError(
            "forced for testing",
            formulation="exact",
            status_code=2,
            iterations=7,
            context={"topology": topology.name, "demands": tm.num_flows},
        )
        return SolveOutcome(
            backend="always-infeasible",
            status=SolveStatus.INFEASIBLE,
            error=error,
            iterations=7,
            message=str(error),
        )


def test_infeasible_solve_maps_to_422(client, monkeypatch):
    monkeypatch.setitem(
        registry.SOLVERS._factories, "always-infeasible",
        lambda: _AlwaysInfeasible(),
    )
    resp = client.post(
        "/v1/throughput", {"topology": JELLYFISH, "solver": "always-infeasible"}
    )
    _assert_error(resp, 422, "solver_failure")
    (point,) = resp.json["error"]["details"]["results"]
    assert point["status"] == "infeasible"
    assert point["error"]["failure"] == "InfeasibleError"
    assert point["error"]["formulation"] == "exact"
    assert point["error"]["status_code"] == 2
    assert point["error"]["iterations"] == 7
    assert "topology" in point["error"]["context"]


def test_compare_all_infeasible_maps_to_422(client, monkeypatch):
    monkeypatch.setitem(
        registry.SOLVERS._factories, "always-infeasible",
        lambda: _AlwaysInfeasible(),
    )
    resp = client.post(
        "/v1/compare",
        {
            "topologies": [JELLYFISH, "xpander:degree=4,lift=3,servers=2"],
            "solver": "always-infeasible",
        },
    )
    _assert_error(resp, 422, "solver_failure")


def test_classify_exception_table():
    assert classify_exception(ApiError(418, "teapot", "x")).status == 418
    assert classify_exception(SpecError("bad")).status == 400
    assert classify_exception(RegistryError("bad")).status == 400
    assert classify_exception(ValueError("bad")).status == 400
    assert classify_exception(TypeError("bad")).status == 400
    infeasible = InfeasibleError("no", formulation="paths")
    classified = classify_exception(infeasible)
    assert classified.status == 422
    assert classified.details["failure"] == "InfeasibleError"
    internal = classify_exception(RuntimeError("boom"))
    assert internal.status == 500
    assert internal.code == "internal"
    assert "traceback" not in str(internal.payload()).lower()
