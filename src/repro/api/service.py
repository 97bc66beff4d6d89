"""The endpoint logic of the topology-evaluation service.

:class:`ApiService` is the transport-independent core: it maps
``(method, path, body)`` to ``(status, JSON payload, extra headers)``
and owns the warm :class:`~repro.api.state.WarmState`.  The stdlib HTTP
front end (:mod:`repro.api.server`) and the in-process test client
(:mod:`repro.api.client`) both drive this one dispatcher, so every
status code, error body, and cache interaction is exercised identically
with and without sockets.

Endpoints (all mounted under the versioned ``/v1`` prefix)
----------------------------------------------------------
* ``GET /v1/context`` — self-describing manifest: versions, registered
  constructions, warm-cache statistics, request counters.  Append
  ``?registry=<name>`` to fetch one registry without the manifest.
* ``GET /v1/schema`` — the :class:`ExperimentSpec` JSON schema plus the
  jobs-endpoint contract.
* ``GET /v1/healthz`` — liveness (cheap, no library work).
* ``POST /v1/throughput`` — longest-matching throughput of one topology
  over one or more traffic fractions, served from warm state.
* ``POST /v1/simulate`` — one :class:`ExperimentSpec` run to a
  :class:`RunRecord` (packet / flow / lp engine).
* ``POST /v1/sweep`` — a ``defaults``/``grid``/``points`` sweep
  document executed inline through the harness Runner (bounded by
  ``max_sweep_points``; larger campaigns go through jobs).
* ``POST /v1/compare`` — ``POST /v1/throughput`` across several
  topologies plus a ranking.
* ``POST /v1/design`` — an inverse-design search
  (:mod:`repro.design`): the cheapest candidate meeting a declarative
  SLO target, run synchronously against the service's warm
  :class:`~repro.design.DesignEngine` (bounded by
  ``max_design_candidates``; larger spaces go through jobs).
* ``POST /v1/jobs`` / ``GET /v1/jobs[/<id>]`` / ``DELETE
  /v1/jobs/<id>`` — async jobs (:mod:`repro.api.jobs`): sharded sweep
  campaigns and ``kind: "design"`` searches; submit, poll
  state/progress, cancel.

Any other path, including the unversioned ones of the service's first
release (``/context``, ``/sweep``, …), gets a 404 ``not_found`` reply
listing the ``/v1`` paths.

Warm-state semantics: ``/v1/throughput`` and ``/v1/compare`` run
:func:`repro.harness.execute.evaluate_lp` over the service's
:class:`~repro.api.state.WarmState`, so a repeated query reuses the
built topology and its solver context, and a byte-identical one is
served from the result memo.
Any ``POST`` body may set ``"warm": false`` to bypass every warm layer
and rebuild per request — that is the load bench's cold baseline, and a
live way to check warm results against a from-scratch evaluation.

Every request is observed when an obs run is active: one retrospective
``api.request`` span (endpoint, status, request id) plus an
``api.request`` event land in ``trace.jsonl``, and ``api.requests`` /
``api.errors`` counters track the lifecycle.  Spans are recorded
retrospectively — never through the nesting context manager — because
handler threads would interleave a shared span stack.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
import uuid
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .. import obs, registry
from ..design import DesignEngine, DesignTarget, design_target_schema
from ..design.space import enumerate_candidates
from ..harness import ResultCache, Runner
from ..harness.execute import evaluate_lp, execute_spec
from ..harness.spec import ENGINES, ExperimentSpec, expand_sweep
from ..perf import PathCache, shared_path_cache
from ..solvers import SolveOutcome
from ..version import SPEC_HASH_VERSION, __version__
from .errors import ApiError, classify_exception
from .jobs import JobManager, jobs_schema
from .schema import experiment_spec_schema
from .state import WarmState

__all__ = [
    "ApiService",
    "SERVICE_SCHEMA",
    "API_PREFIX",
    "DEFAULT_MAX_BODY_BYTES",
]

#: Service payload-shape identifier, reported in ``/context``.
SERVICE_SCHEMA = "repro.api/4"

#: The one mount point; every endpoint lives under it.
API_PREFIX = "/v1"

DEFAULT_MAX_BODY_BYTES = 2 * 1024 * 1024
DEFAULT_MAX_SWEEP_POINTS = 256
DEFAULT_MAX_JOB_POINTS = 16384
DEFAULT_MAX_DESIGN_CANDIDATES = 64

def _require(body: Dict[str, Any], key: str) -> Any:
    if key not in body:
        raise ApiError(400, "bad_spec", f"request body needs a {key!r} key")
    return body[key]


class ApiService:
    """Transport-independent request dispatcher with warm shared state.

    Parameters
    ----------
    cache_dir:
        Optional content-addressed :class:`ResultCache` directory for
        ``/simulate`` and ``/sweep`` records (``None`` disables disk
        caching; the in-memory warm state is always on).
    max_body_bytes:
        Reject larger request bodies with 413.
    max_sweep_points:
        Reject *inline* sweep documents expanding past this with 400 —
        a stateless front door should not accept unbounded synchronous
        work.  Async jobs get the (much larger) ``max_job_points``.
    max_job_points:
        Reject job submissions expanding past this with 400.
    max_design_candidates:
        Reject *synchronous* ``/v1/design`` targets whose candidate
        space is larger than this with 400 (async design jobs are
        bounded by ``max_job_points``).
    job_shards:
        Default shard count for submitted jobs (each shard is an
        inline Runner on its own thread).
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        max_sweep_points: int = DEFAULT_MAX_SWEEP_POINTS,
        max_job_points: int = DEFAULT_MAX_JOB_POINTS,
        max_design_candidates: int = DEFAULT_MAX_DESIGN_CANDIDATES,
        job_shards: int = 4,
        state: Optional[WarmState] = None,
    ) -> None:
        self.state = state or WarmState()
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.cache_dir = cache_dir
        self.max_body_bytes = int(max_body_bytes)
        self.max_sweep_points = int(max_sweep_points)
        self.max_job_points = int(max_job_points)
        self.max_design_candidates = int(max_design_candidates)
        self.design_engine = DesignEngine()
        self.jobs = JobManager(cache=self.cache, default_shards=job_shards)
        self._counter_lock = threading.Lock()
        self.request_counts: Dict[str, int] = {}
        self.error_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def routes(self) -> Dict[Tuple[str, str], Callable[..., Dict[str, Any]]]:
        return {
            ("GET", "/v1/context"): self._context,
            ("GET", "/v1/schema"): self._schema,
            ("GET", "/v1/healthz"): self._healthz,
            ("POST", "/v1/throughput"): self._throughput,
            ("POST", "/v1/simulate"): self._simulate,
            ("POST", "/v1/sweep"): self._sweep,
            ("POST", "/v1/compare"): self._compare,
            ("POST", "/v1/design"): self._design,
            ("POST", "/v1/jobs"): self._jobs_create,
            ("GET", "/v1/jobs"): self._jobs_list,
        }

    def dispatch(
        self,
        method: str,
        path: str,
        body: Union[bytes, str, Dict[str, Any], None] = None,
        request_id: Optional[str] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """Handle one request; returns ``(status, payload)``.

        Never raises: every failure is classified into the uniform error
        body (see :mod:`repro.api.errors`).  ``body`` may be raw bytes
        (the HTTP server), a str, or an already-parsed mapping (the
        in-process client) — size and JSON validation run on raw forms.
        ``path`` may carry a query string; it is parsed here so both
        transports agree on semantics.
        """
        rid = (request_id or "").strip()[:64] or uuid.uuid4().hex[:12]
        started = time.perf_counter()
        raw_path, _, raw_query = str(path).partition("?")
        clean = raw_path.rstrip("/") or "/"
        query = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(raw_query).items()
        }
        endpoint = f"{method} {self._endpoint_path(clean)}"
        try:
            handler = self._resolve(method, clean)
            parsed = self._parse_body(body) if method == "POST" else {}
            result = handler(parsed, query)
            if isinstance(result, tuple):
                status, payload = result
            else:
                status, payload = 200, result
        except Exception as exc:
            error = classify_exception(exc)
            status, payload = error.status, error.payload(rid)
        payload["request_id"] = rid
        self._note_request(endpoint, rid, status, started)
        return status, payload

    @staticmethod
    def _endpoint_path(path: str) -> str:
        """Collapse path parameters so counters stay low-cardinality."""
        if path.startswith("/v1/jobs/"):
            return "/v1/jobs/<id>"
        return path

    def _resolve(self, method: str, path: str):
        routes = self.routes()
        handler = routes.get((method, path))
        if handler is not None:
            return handler
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            if job_id and "/" not in job_id:
                if method == "GET":
                    return lambda _body, query: self._job_get(job_id, query)
                if method == "DELETE":
                    return lambda _body, query: self._job_cancel(job_id)
                raise ApiError(
                    405,
                    "method_not_allowed",
                    f"{path} does not support {method}",
                    details={"allowed": ["DELETE", "GET"]},
                )
        allowed = sorted(m for m, p in routes if p == path)
        if allowed:
            raise ApiError(
                405,
                "method_not_allowed",
                f"{path} does not support {method}",
                details={"allowed": allowed},
            )
        raise ApiError(
            404,
            "not_found",
            f"unknown path {path!r}",
            details={
                "paths": sorted({p for _, p in routes} | {"/v1/jobs/<id>"})
            },
        )

    def _parse_body(
        self, body: Union[bytes, str, Dict[str, Any], None]
    ) -> Dict[str, Any]:
        if isinstance(body, dict):
            return body
        if body is None:
            body = b""
        if isinstance(body, str):
            body = body.encode()
        if len(body) > self.max_body_bytes:
            raise ApiError(
                413,
                "payload_too_large",
                f"request body is {len(body)} bytes; "
                f"the limit is {self.max_body_bytes}",
                details={"max_body_bytes": self.max_body_bytes},
            )
        try:
            parsed = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(400, "bad_json", f"body is not valid JSON: {exc}")
        if not isinstance(parsed, dict):
            raise ApiError(
                400, "bad_json",
                f"body must be a JSON object, got {type(parsed).__name__}",
            )
        return parsed

    def _note_request(
        self,
        endpoint: str,
        rid: str,
        status: int,
        started: float,
    ) -> None:
        elapsed = time.perf_counter() - started
        with self._counter_lock:
            self.request_counts[endpoint] = (
                self.request_counts.get(endpoint, 0) + 1
            )
            if status >= 400:
                self.error_counts[endpoint] = (
                    self.error_counts.get(endpoint, 0) + 1
                )
        obs.add("api.requests")
        if status >= 400:
            obs.add("api.errors")
        run = obs.current()
        if run is not None:
            run.record_span(
                "api.request",
                started,
                elapsed,
                attrs={
                    "endpoint": endpoint,
                    "status": status,
                    "request_id": rid,
                },
            )
            run.record_event(
                "api.request",
                {
                    "endpoint": endpoint,
                    "status": status,
                    "request_id": rid,
                    "duration_s": round(elapsed, 9),
                },
            )

    # ------------------------------------------------------------------
    # GET endpoints
    # ------------------------------------------------------------------
    def _healthz(
        self, _body: Dict[str, Any], _query: Optional[Dict[str, str]] = None
    ) -> Dict[str, Any]:
        """Liveness probe (no library work)."""
        return {"ok": True}

    def _schema(
        self, _body: Dict[str, Any], _query: Optional[Dict[str, str]] = None
    ) -> Dict[str, Any]:
        """The ExperimentSpec JSON schema + the jobs contract."""
        return {
            "api_version": API_PREFIX.lstrip("/"),
            "schema": experiment_spec_schema(),
            "design": design_target_schema(),
            "jobs": jobs_schema(),
        }

    def _registries(self) -> Dict[str, Any]:
        return {
            "topologies": registry.TOPOLOGIES,
            "traffic": registry.TRAFFIC,
            "routings": registry.ROUTINGS,
            "failures": registry.FAILURES,
            "solvers": registry.SOLVERS,
            "designs": registry.DESIGNS,
        }

    def _context(
        self, _body: Dict[str, Any], query: Optional[Dict[str, str]] = None
    ) -> Dict[str, Any]:
        """Self-describing manifest: versions, registries, cache stats.

        ``?registry=<name>`` narrows the response to one registry's
        entries (400 on an unknown name).
        """
        def describe(reg) -> Dict[str, str]:
            return {name: reg.describe(name) for name in reg.available()}

        registries = self._registries()
        wanted = (query or {}).get("registry")
        if wanted is not None:
            if wanted not in registries:
                raise ApiError(
                    400,
                    "bad_spec",
                    f"unknown registry {wanted!r}; valid choices: "
                    + ", ".join(sorted(registries)),
                    details={"registries": sorted(registries)},
                )
            return {
                "service": SERVICE_SCHEMA,
                "library_version": __version__,
                "registry": wanted,
                "entries": describe(registries[wanted]),
            }

        with self._counter_lock:
            requests = dict(self.request_counts)
            errors = dict(self.error_counts)
        payload = {
            "service": SERVICE_SCHEMA,
            "api_version": API_PREFIX.lstrip("/"),
            "library_version": __version__,
            "spec_hash_version": SPEC_HASH_VERSION,
            "started_at_unix": self.state.started_at,
            "uptime_s": round(time.time() - self.state.started_at, 3),
            "engines": list(ENGINES),
            "registries": {
                name: describe(reg) for name, reg in registries.items()
            },
            "endpoints": {
                **{
                    f"{method} {path}": (
                        (handler.__doc__ or "").strip().splitlines() or [""]
                    )[0]
                    for (method, path), handler in sorted(
                        self.routes().items()
                    )
                },
                "GET /v1/jobs/<id>": "Job state, progress, and results.",
                "DELETE /v1/jobs/<id>": "Cancel a job cooperatively.",
            },
            "caches": self.state.stats(),
            "jobs": self.jobs.stats(),
            "requests": {
                "by_endpoint": requests,
                "errors": errors,
            },
            "limits": {
                "max_body_bytes": self.max_body_bytes,
                "max_sweep_points": self.max_sweep_points,
                "max_job_points": self.max_job_points,
                "max_design_candidates": self.max_design_candidates,
            },
        }
        payload["result_cache"] = (
            {"dir": self.cache_dir, "entries": len(self.cache)}
            if self.cache is not None
            else None
        )
        return payload

    # ------------------------------------------------------------------
    # POST /throughput (and the shared solve core /compare reuses)
    # ------------------------------------------------------------------
    def _throughput(
        self, body: Dict[str, Any], _query: Optional[Dict[str, str]] = None
    ) -> Dict[str, Any]:
        """Longest-matching throughput of one topology, served warm.

        Any non-optimal solve fails the request with 422 carrying the
        solver taxonomy for each failed fraction.
        """
        evaluation = self._evaluate_throughput(body, _require(body, "topology"))
        failed = [
            r for r in evaluation["results"] if r["status"] != "optimal"
        ]
        if failed:
            raise ApiError(
                422,
                "solver_failure",
                f"{len(failed)} of {len(evaluation['results'])} solves "
                "did not reach an optimum",
                details={"results": evaluation["results"]},
            )
        return evaluation

    def _evaluate_throughput(
        self, body: Dict[str, Any], topology_spec: Any
    ) -> Dict[str, Any]:
        """The throughput core: :func:`evaluate_lp` on the warm state."""
        fractions = self._fractions(body)
        seed = int(body.get("seed", 0))
        warm = bool(body.get("warm", True))
        t0 = time.perf_counter()
        # Unknown solvers and bad knobs fail in here as 400 bad_spec.
        evaluation = evaluate_lp(
            topology_spec,
            [(fraction, seed) for fraction in fractions],
            body.get("solver", "highs-batched"),
            failures=body.get("failures"),
            per_server_demand=float(body.get("per_server_demand", 1.0)),
            warm=warm,
            state=self.state,
        )
        topo = evaluation.topology
        path_cache = shared_path_cache(topo) if warm else PathCache(topo.graph)
        results = [
            {**self._outcome_entry(fraction, outcome), "cached": cached}
            for fraction, outcome, cached in zip(
                fractions, evaluation.outcomes, evaluation.cached
            )
        ]
        context_hit = evaluation.context_hit
        return {
            "topology": {"name": topo.name, **self._properties(path_cache, topo)},
            "solver": evaluation.solver,
            "seed": seed,
            "results": results,
            "warm": {
                "enabled": warm,
                "topology": "hit" if evaluation.topology_hit else "miss",
                "context": (
                    None if context_hit is None
                    else "hit" if context_hit else "miss"
                ),
                "results_cached": sum(evaluation.cached),
            },
            "wall_time_s": round(time.perf_counter() - t0, 6),
        }

    @staticmethod
    def _fractions(body: Dict[str, Any]) -> List[float]:
        raw = body.get("fractions")
        if raw is None:
            raw = [body.get("fraction", 1.0)]
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ApiError(
                400, "bad_spec", "'fractions' must be a non-empty array"
            )
        fractions: List[float] = []
        for value in raw:
            if not isinstance(value, (int, float)) or not 0 < value <= 1:
                raise ApiError(
                    400, "bad_spec",
                    f"fractions must be numbers in (0, 1], got {value!r}",
                )
            fractions.append(float(value))
        return fractions

    @staticmethod
    def _properties(path_cache: PathCache, topo) -> Dict[str, Any]:
        """Structural properties served from the (warm) path cache."""
        connected = topo.is_connected()
        return {
            "switches": topo.num_switches,
            "links": topo.num_links,
            "servers": topo.num_servers,
            "connected": connected,
            "diameter": path_cache.diameter() if connected else None,
            "avg_path_length": (
                round(path_cache.average_path_length(), 6)
                if connected and path_cache.num_nodes > 1
                else None
            ),
        }

    @staticmethod
    def _outcome_entry(fraction: float, outcome: SolveOutcome) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "fraction": fraction,
            "status": outcome.status.value,
            "iterations": outcome.iterations,
            "solve_time_s": round(outcome.wall_time_s, 6),
            "warm_started": outcome.warm_started,
            "basis_reused": outcome.basis_reused,
        }
        if outcome.ok:
            entry["per_server_throughput"] = outcome.result.per_server
            entry["disconnected_pairs"] = outcome.result.disconnected_pairs
        else:
            from .errors import _solver_details

            entry["error"] = _solver_details(outcome.error)
            entry["error"]["message"] = outcome.message
        return entry

    # ------------------------------------------------------------------
    # POST /simulate
    # ------------------------------------------------------------------
    def _simulate(
        self, body: Dict[str, Any], _query: Optional[Dict[str, str]] = None
    ) -> Dict[str, Any]:
        """One ExperimentSpec run to a RunRecord (packet/flow/lp)."""
        body = dict(body)
        options = body.pop("options", {})
        warm = bool(options.get("warm", True)) if isinstance(options, dict) else True
        try:
            spec = ExperimentSpec.from_dict(body)
        except TypeError as exc:
            raise ApiError(400, "bad_spec", str(exc))
        record = None
        if warm and self.cache is not None:
            record = self.cache.get(spec)
        if record is None:
            record = execute_spec(spec)
            if warm and self.cache is not None and record.ok:
                self.cache.put(spec, record)
        return {"record": record.to_dict(), "spec_hash": spec.content_hash()}

    # ------------------------------------------------------------------
    # POST /sweep
    # ------------------------------------------------------------------
    def _sweep(
        self, body: Dict[str, Any], _query: Optional[Dict[str, str]] = None
    ) -> Dict[str, Any]:
        """A defaults/grid/points sweep document run inline."""
        doc = self._sweep_doc(body)
        specs = expand_sweep(doc)
        if len(specs) > self.max_sweep_points:
            raise ApiError(
                400,
                "too_many_points",
                f"sweep expands to {len(specs)} points; the limit is "
                f"{self.max_sweep_points}",
                details={"max_sweep_points": self.max_sweep_points},
            )
        options = body.get("options", {})
        warm = bool(options.get("warm", True)) if isinstance(options, dict) else True
        runner = Runner(
            inline=True,
            retries=0,
            cache=self.cache if warm else None,
        )
        result = runner.run(specs)
        counts = result.counts
        return {
            "counts": counts,
            "cached": counts["cached"],
            "computed": counts["ok"],
            "wall_clock_s": round(result.wall_clock_s, 6),
            "records": [r.to_dict() for r in result.records],
        }

    @staticmethod
    def _sweep_doc(body: Dict[str, Any]) -> Dict[str, Any]:
        doc = {
            key: body[key]
            for key in ("defaults", "grid", "points")
            if key in body
        }
        if not doc:
            raise ApiError(
                400, "bad_spec",
                "sweep body needs at least one of defaults/grid/points",
            )
        return doc

    # ------------------------------------------------------------------
    # POST /design — inverse design against the warm engine
    # ------------------------------------------------------------------
    def _parse_design_target(self, body: Dict[str, Any]) -> DesignTarget:
        """Validate the ``target`` document and bound its candidate space."""
        target = DesignTarget.from_dict(_require(body, "target"))
        # Enumeration is arithmetic-only (no graphs, no LPs), so sizing
        # the space up front is cheap enough to gate the request on.
        return target

    def _design(
        self, body: Dict[str, Any], _query: Optional[Dict[str, str]] = None
    ) -> Dict[str, Any]:
        """The cheapest design meeting a declarative SLO target (sync)."""
        target = self._parse_design_target(body)
        candidates = len(enumerate_candidates(target))
        if candidates > self.max_design_candidates:
            raise ApiError(
                400,
                "too_many_points",
                f"design space has {candidates} candidates; the "
                f"synchronous limit is {self.max_design_candidates} "
                '(submit as a kind: "design" job instead)',
                details={
                    "max_design_candidates": self.max_design_candidates
                },
            )
        report = self.design_engine.search(target)
        return {"report": report.to_dict()}

    # ------------------------------------------------------------------
    # /v1/jobs — async sweep campaigns and design searches
    # ------------------------------------------------------------------
    def _jobs_create(
        self, body: Dict[str, Any], _query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """Submit a sweep document or a design target as an async job (202)."""
        kind = body.get("kind", "sweep")
        if kind == "design":
            target = self._parse_design_target(body)
            candidates = len(enumerate_candidates(target))
            if candidates > self.max_job_points:
                raise ApiError(
                    400,
                    "too_many_points",
                    f"design space has {candidates} candidates; the "
                    f"job limit is {self.max_job_points}",
                    details={"max_job_points": self.max_job_points},
                )
            try:
                job = self.jobs.submit_design(target, self.design_engine)
            except RuntimeError as exc:
                raise ApiError(409, "too_many_jobs", str(exc))
            return 202, {"job": job.summary()}
        if kind != "sweep":
            raise ApiError(
                400,
                "bad_spec",
                f"unknown job kind {kind!r}; valid kinds: design, sweep",
            )
        doc = self._sweep_doc(body)
        specs = expand_sweep(doc)
        if len(specs) > self.max_job_points:
            raise ApiError(
                400,
                "too_many_points",
                f"job expands to {len(specs)} points; the limit is "
                f"{self.max_job_points}",
                details={"max_job_points": self.max_job_points},
            )
        options = body.get("options", {})
        if not isinstance(options, dict):
            raise ApiError(400, "bad_spec", "'options' must be an object")
        try:
            job = self.jobs.submit(
                doc,
                shards=options.get("shards"),
                warm=bool(options.get("warm", True)),
            )
        except RuntimeError as exc:
            raise ApiError(409, "too_many_jobs", str(exc))
        return 202, {"job": job.summary()}

    def _jobs_list(
        self, _body: Dict[str, Any], _query: Optional[Dict[str, str]] = None
    ) -> Dict[str, Any]:
        """Summaries of every known job (no records)."""
        return {"jobs": [job.summary() for job in self.jobs.list()]}

    def _job_get(
        self, job_id: str, query: Optional[Dict[str, str]] = None
    ) -> Dict[str, Any]:
        """Job state, progress, and (when terminal) results."""
        job = self.jobs.get(job_id)
        if job is None:
            raise ApiError(404, "not_found", f"unknown job {job_id!r}")
        include = (query or {}).get("records", "true").lower() not in (
            "false", "0", "no",
        )
        return {"job": job.payload(include_records=include)}

    def _job_cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job cooperatively; idempotent on terminal jobs."""
        job = self.jobs.cancel(job_id)
        if job is None:
            raise ApiError(404, "not_found", f"unknown job {job_id!r}")
        return {"job": job.summary()}

    # ------------------------------------------------------------------
    # POST /compare
    # ------------------------------------------------------------------
    def _compare(
        self, body: Dict[str, Any], _query: Optional[Dict[str, str]] = None
    ) -> Dict[str, Any]:
        """Throughput across several topologies, ranked."""
        specs = _require(body, "topologies")
        if not isinstance(specs, (list, tuple)) or len(specs) < 2:
            raise ApiError(
                400, "bad_spec",
                "'topologies' must be an array of at least two specs",
            )
        entries: List[Dict[str, Any]] = []
        for spec in specs:
            evaluation = self._evaluate_throughput(body, spec)
            solved = [
                r["per_server_throughput"]
                for r in evaluation["results"]
                if r["status"] == "optimal"
            ]
            entries.append(
                {
                    "spec": spec,
                    "topology": evaluation["topology"],
                    "results": evaluation["results"],
                    "warm": evaluation["warm"],
                    # Cross-fraction mean: one scalar to rank on.
                    "mean_per_server_throughput": (
                        sum(solved) / len(solved) if solved else None
                    ),
                }
            )
        ranked = [
            e for e in entries if e["mean_per_server_throughput"] is not None
        ]
        if not ranked:
            raise ApiError(
                422,
                "solver_failure",
                "no topology produced an optimal solve",
                details={"results": [e["results"] for e in entries]},
            )
        best = max(ranked, key=lambda e: e["mean_per_server_throughput"])
        best_value = best["mean_per_server_throughput"]
        for entry in entries:
            value = entry["mean_per_server_throughput"]
            entry["relative_to_best"] = (
                round(value / best_value, 6)
                if value is not None and best_value
                else None
            )
        return {
            "solver": evaluation["solver"],
            "results": entries,
            "best": best["topology"]["name"],
        }
