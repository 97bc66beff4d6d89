"""``repro.api`` — the long-lived topology-evaluation HTTP service.

A stdlib-only (``http.server``) front door over the library: resolve
experiment specs through :mod:`repro.registry`, execute them through
the harness and solver layers, and keep the expensive per-topology
structure (built topologies, exact-LP ArcTables, the shared path cache,
a content-addressed result memo) warm across requests.

Quick start::

    python -m repro serve --port 8070
    curl -s localhost:8070/v1/context | python -m json.tool
    curl -s -X POST localhost:8070/v1/throughput \\
        -d '{"topology": "xpander:switches=30,degree=8", "fraction": 1.0}'

Endpoints are mounted under the versioned ``/v1`` prefix; any other
path gets a 404 listing the ``/v1`` paths.  Sweep
campaigns too large for the synchronous ``POST /v1/sweep``, and design
searches too large for ``POST /v1/design``, go through the async jobs
layer (:mod:`repro.api.jobs`): ``POST /v1/jobs``, poll
``GET /v1/jobs/<id>``, ``DELETE`` to cancel.

The recommended programmatic entry point is the typed facade::

    from repro.api import ReproClient

    client = ReproClient.in_process()            # or .http(host, port)
    report = client.design({"servers": 48, "throughput_per_server": 0.3,
                            "max_switches": 24, "radix": 10})

See ``docs/api.md`` for the endpoint reference and the warm-state
semantics, and :mod:`repro.api.errors` for the error contract.
"""

from .client import (
    ApiResponse,
    CompareResult,
    HttpClient,
    InProcessClient,
    JobHandle,
    ReproClient,
    ServiceContext,
    SimulationResult,
    SweepResult,
    ThroughputEvaluation,
)
from .errors import ApiError, classify_exception, error_payload
from .jobs import Job, JobManager, jobs_schema
from .schema import experiment_spec_schema
from .server import ApiServer, serve_forever
from .service import API_PREFIX, SERVICE_SCHEMA, ApiService
from .state import WarmState, canonical_key

__all__ = [
    "API_PREFIX",
    "ApiError",
    "ApiResponse",
    "ApiServer",
    "ApiService",
    "CompareResult",
    "HttpClient",
    "InProcessClient",
    "Job",
    "JobHandle",
    "JobManager",
    "ReproClient",
    "SERVICE_SCHEMA",
    "ServiceContext",
    "SimulationResult",
    "SweepResult",
    "ThroughputEvaluation",
    "WarmState",
    "canonical_key",
    "classify_exception",
    "error_payload",
    "experiment_spec_schema",
    "jobs_schema",
    "serve_forever",
]
