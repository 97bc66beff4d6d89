"""The ReproClient facade: typed results, typed errors, GET retry.

Semantics run through the in-process transport; the HTTP-specific
pieces (retry/backoff on transient connection failures, the facade over
a live server — the ISSUE's "same answer via ReproClient.design()
against a live /v1 server" check) get a real socket.
"""

import http.client
import threading

import pytest

from repro.api import (
    ApiError,
    ApiServer,
    ApiService,
    CompareResult,
    HttpClient,
    InProcessClient,
    ReproClient,
    ServiceContext,
    SweepResult,
    ThroughputEvaluation,
)
from repro.design import DesignReport
from repro.perf import clear_shared_caches

JELLYFISH = "jellyfish:switches=12,degree=4,servers=2"
XPANDER = "xpander:degree=4,lift=3,servers=2"
TARGET = {
    "servers": 16,
    "throughput_per_server": 0.5,
    "families": ["jellyfish", "xpander"],
    "max_switches": 12,
    "radix": 8,
    "sensitivity": False,
}


@pytest.fixture()
def facade():
    clear_shared_caches()
    yield ReproClient.in_process()
    clear_shared_caches()


class TestTypedResults:
    def test_context(self, facade):
        ctx = facade.context()
        assert isinstance(ctx, ServiceContext)
        assert ctx.service == "repro.api/4"
        assert ctx.api_version == "v1"
        assert "topologies" in ctx.registries
        assert ctx.raw["endpoints"]

    def test_throughput(self, facade):
        ev = facade.throughput(JELLYFISH, fractions=[0.5, 1.0])
        assert isinstance(ev, ThroughputEvaluation)
        assert ev.per_server(0.5) >= ev.per_server(1.0)
        assert ev.per_server() == ev.per_server(0.5)  # first result
        with pytest.raises(KeyError):
            ev.per_server(0.123)

    def test_simulate(self, facade):
        sim = facade.simulate({
            "topology": {"family": "jellyfish", "switches": 10,
                         "degree": 4, "servers": 2},
            "workload": {"pattern": "longest_matching", "fraction": 0.5},
            "engine": "lp",
        })
        assert sim.ok
        assert 0 < sim.metrics["per_server_throughput"] <= 1.0
        assert sim.spec_hash

    def test_sweep(self, facade):
        sw = facade.sweep(
            defaults={
                "topology": {"family": "jellyfish", "switches": 10,
                             "degree": 4, "servers": 2},
                "workload": {"pattern": "longest_matching"},
                "engine": "lp",
            },
            grid={"workload.fraction": [0.4, 0.8]},
        )
        assert isinstance(sw, SweepResult)
        assert sw.counts["total"] == 2
        assert len(sw.records) == 2

    def test_compare(self, facade):
        cmp_ = facade.compare([JELLYFISH, XPANDER], fraction=0.7)
        assert isinstance(cmp_, CompareResult)
        assert cmp_.best == cmp_.ranking()[0]
        assert len(cmp_.ranking()) == 2

    def test_design(self, facade):
        report = facade.design(TARGET)
        assert isinstance(report, DesignReport)
        assert report.feasible and report.complete
        assert report.best.spec in report.pareto

    def test_sweep_jobs(self, facade):
        job = facade.submit_job({
            "defaults": {
                "topology": {"family": "jellyfish", "switches": 10,
                             "degree": 4, "servers": 2},
                "workload": {"pattern": "longest_matching"},
                "engine": "lp",
            },
            "grid": {"workload.fraction": [0.3, 0.9]},
        })
        assert job.kind == "sweep"
        payload = facade.wait_job(job.id, timeout_s=120)
        assert payload["state"] == "completed"
        assert len(payload["records"]) == 2
        assert any(j.id == job.id for j in facade.jobs())

    def test_cancel_job_returns_handle(self, facade):
        job = facade.submit_job(kind="design", target=TARGET)
        handle = facade.cancel_job(job.id)
        assert handle.id == job.id
        payload = facade.wait_job(job.id, timeout_s=120)
        assert payload["state"] in ("cancelled", "completed")

    def test_design_job_requires_target(self, facade):
        with pytest.raises(ValueError, match="target"):
            facade.submit_job(kind="design")


class TestTypedErrors:
    def test_api_error_carries_envelope(self, facade):
        with pytest.raises(ApiError) as excinfo:
            facade.throughput("not-a-family:x=1")
        err = excinfo.value
        assert err.status == 400
        assert err.code == "bad_spec"
        assert err.request_id
        assert "not-a-family" in str(err)

    def test_api_error_carries_details(self):
        small = ReproClient(
            InProcessClient(ApiService(max_design_candidates=1))
        )
        with pytest.raises(ApiError) as excinfo:
            small.design(TARGET)
        err = excinfo.value
        assert err.status == 400
        assert err.code == "too_many_points"
        assert err.details["max_design_candidates"] == 1

    def test_wait_job_timeout(self, facade):
        job = facade.submit_job(kind="design", target=TARGET)
        with pytest.raises(TimeoutError):
            facade.wait_job(job.id, timeout_s=0.0, poll_interval_s=0.01)
        facade.wait_job(job.id, timeout_s=120)


class TestOverHttp:
    @pytest.fixture(scope="class")
    def server(self):
        srv = ApiServer(ApiService(), port=0, workers=2).start()
        yield srv
        srv.stop()

    def test_design_matches_in_process(self, server, facade):
        http = ReproClient.http(server.host, server.port)
        try:
            over_wire = http.design(TARGET)
        finally:
            http.close()
        assert over_wire.to_dict() == facade.design(TARGET).to_dict()

    def test_get_retries_transient_failures(self, server):
        client = HttpClient(server.host, server.port, backoff_s=0.0)
        client.get("/v1/healthz").raise_for_status()
        # Poison the pooled socket: the next GET hits a dead connection
        # and must transparently reconnect-and-retry.
        client._conn.sock.close()
        assert client.get("/v1/healthz").status == 200
        client.close()

    def test_get_retry_gives_up_against_dead_server(self):
        dead = ApiServer(ApiService(), port=0, workers=1).start()
        host, port = dead.host, dead.port
        dead.stop()
        client = HttpClient(host, port, get_retries=2, backoff_s=0.001)
        with pytest.raises(OSError):
            client.get("/v1/healthz")
        client.close()

    def test_post_not_blindly_retried(self, server):
        client = HttpClient(server.host, server.port)
        client.get("/v1/healthz")
        client._conn.sock.close()
        # One reconnect-and-resend for a request that never went out is
        # allowed; it must still succeed exactly once.
        resp = client.post("/v1/throughput", {"topology": JELLYFISH})
        assert resp.status == 200
        client.close()


class _Response:
    status = 200
    headers = {"Content-Type": "application/json"}

    def read(self):
        return b'{"ok": true}'


class _ScriptedConn:
    """Sends always succeed; the first ``fail_reads`` reads die."""

    def __init__(self, fail_reads: int):
        self.fail_reads = fail_reads
        self.sends = []
        self.reads = 0

    def request(self, method, path, body=None, headers=None):
        self.sends.append((method, path))

    def getresponse(self):
        self.reads += 1
        if self.reads <= self.fail_reads:
            raise http.client.RemoteDisconnected("server closed")
        return _Response()

    def close(self):
        pass


class TestRetrySplit:
    """Send failures and response-read failures retry differently:
    a request that never went out is safe to resend for any method,
    but once sent only idempotent GETs may be repeated."""

    def _client(self, monkeypatch, conn):
        client = HttpClient("localhost", 1, get_retries=2, backoff_s=0.0)
        client._conn = conn
        monkeypatch.setattr(client, "_reconnect", lambda: None)
        return client

    def test_post_that_died_mid_response_is_never_resent(self, monkeypatch):
        conn = _ScriptedConn(fail_reads=99)
        client = self._client(monkeypatch, conn)
        with pytest.raises(http.client.RemoteDisconnected):
            client.post("/v1/jobs", {"kind": "design"})
        assert conn.sends == [("POST", "/v1/jobs")]  # exactly one send

    def test_get_that_died_mid_response_is_retried(self, monkeypatch):
        conn = _ScriptedConn(fail_reads=1)
        client = self._client(monkeypatch, conn)
        assert client.get("/v1/healthz").status == 200
        assert conn.sends == [("GET", "/v1/healthz")] * 2
