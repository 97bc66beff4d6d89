"""Typed HTTP error mapping for the topology-evaluation service.

Every failure a request can produce is classified into an
:class:`ApiError` carrying the HTTP status, a stable machine-readable
``code``, and structured ``details``, and every error response — 400,
404, 405, 409, 411, 413, 422, 500 alike — has the same envelope::

    {"error": {"code": "bad_spec", "message": "...",
               "request_id": "...", "details": {...}},
     "request_id": "..."}

The ``request_id`` lives *inside* the error object (so an error body is
self-contained when logged or forwarded) and is mirrored at the top
level for uniformity with success responses.

The mapping mirrors the library's own exception taxonomy:

===========================  ======  ==================================
exception                    status  code
===========================  ======  ==================================
malformed JSON body          400     ``bad_json``
:class:`SpecError` /
:class:`RegistryError` /
``ValueError``               400     ``bad_spec``
unknown path                 404     ``not_found``
method not allowed           405     ``method_not_allowed``
job registry full            409     ``too_many_jobs``
body over the size limit     413     ``payload_too_large``
:class:`SolverFailure`
(``InfeasibleError`` /
``UnboundedError`` /
numerical)                   422     ``solver_failure``
anything else                500     ``internal``
===========================  ======  ==================================

400s are *caller* problems (fix the request), 422 is a well-formed
request whose LP has no usable optimum (an experiment outcome — the
solver taxonomy rides along in ``details``), and 500s are bugs worth a
server-side traceback.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..harness.spec import SpecError
from ..registry import RegistryError
from ..throughput.errors import SolverFailure

__all__ = ["ApiError", "error_payload", "classify_exception"]


class ApiError(Exception):
    """A request failure with a determined HTTP status.

    Raised anywhere inside request handling; the dispatcher turns it
    into the uniform error body.  ``details`` must be JSON-serializable.

    The same type is what clients raise: :meth:`ApiResponse.
    raise_for_status` rebuilds an ``ApiError`` from the error envelope,
    so callers on either side of the wire catch one exception carrying
    the status, stable ``code``, structured ``details``, and the
    server-assigned ``request_id`` (client side only).
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        details: Optional[Dict[str, Any]] = None,
        request_id: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message
        self.details = dict(details or {})
        self.request_id = request_id

    def payload(self, request_id: Optional[str] = None) -> Dict[str, Any]:
        body: Dict[str, Any] = {"code": self.code, "message": self.message}
        if request_id or self.request_id:
            body["request_id"] = request_id or self.request_id
        if self.details:
            body["details"] = self.details
        return {"error": body}


def error_payload(
    status: int,
    code: str,
    message: str,
    details: Optional[Dict[str, Any]] = None,
    request_id: Optional[str] = None,
) -> Dict[str, Any]:
    """The uniform error body for a non-exception failure path."""
    return ApiError(status, code, message, details).payload(request_id)


def _solver_details(exc: SolverFailure) -> Dict[str, Any]:
    """The taxonomy payload carried on 422 responses.

    Everything the typed :class:`SolverFailure` knows — which LP
    formulation failed, the raw HiGHS status, iterations spent, and the
    call-site context (topology name, demand count) — so a planner can
    distinguish "this TM is infeasible on this degraded topology" from
    "the solver hit numerical trouble" without parsing the message.
    """
    return {
        "failure": type(exc).__name__,
        "formulation": exc.formulation,
        "status_code": exc.status_code,
        "iterations": exc.iterations,
        "context": {str(k): str(v) for k, v in exc.context.items()},
    }


def classify_exception(exc: BaseException) -> ApiError:
    """Map any exception raised during request handling to an ApiError.

    Idempotent on :class:`ApiError` itself.  The fallthrough is a 500
    whose message carries only the exception type and text — no
    traceback leaks into the response (the server logs it instead).
    """
    if isinstance(exc, ApiError):
        return exc
    if isinstance(exc, SolverFailure):
        return ApiError(
            422, "solver_failure", str(exc), details=_solver_details(exc)
        )
    if isinstance(exc, (SpecError, RegistryError)):
        return ApiError(400, "bad_spec", str(exc))
    if isinstance(exc, (ValueError, TypeError)):
        # Factory-level validation (bad parameter values/types) that did
        # not come through the registries' typed wrappers.
        return ApiError(400, "bad_spec", f"{type(exc).__name__}: {exc}")
    return ApiError(500, "internal", f"{type(exc).__name__}: {exc}")
