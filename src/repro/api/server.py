"""Stdlib HTTP front end for the topology-evaluation service.

A :class:`ThreadingHTTPServer` whose handler forwards every request to
one shared :class:`~repro.api.service.ApiService` — all transport
concerns (sockets, headers, body framing, request-id propagation,
worker admission) live here; all semantics live in the service.

Design notes:

* **Zero new dependencies.**  ``http.server`` is in the standard
  library; the library's hard dependencies stay numpy/scipy/networkx.
* **Threads, not processes.**  The warm state (built topologies,
  ArcTables, the shared path cache) is the service's reason to exist,
  and threads share it for free.  Solves drop the GIL inside
  scipy/HiGHS, so concurrent LP requests genuinely overlap.
* **Bounded admission.**  ``workers`` is a semaphore around request
  handling, not a thread-pool size: ThreadingHTTPServer spawns a thread
  per connection regardless, and the semaphore caps how many of them
  do library work at once (the rest queue briefly).
* **Nagle off.**  Headers and body go out as two sends; with Nagle on,
  the body would wait for the client's delayed ACK of the headers
  (~40 ms on every keep-alive reply).  ``TCP_NODELAY`` on each accepted
  socket sends the body without waiting.
* **Request ids.**  An ``X-Request-Id`` header is honoured (trimmed to
  64 chars) or generated, echoed on the response, and recorded on the
  request's obs span/event, so a client can line its calls up with
  ``trace.jsonl``.

Run it with ``python -m repro serve --port 8070`` or embed it::

    from repro.api import ApiServer, ApiService
    server = ApiServer(ApiService(), host="127.0.0.1", port=0)
    print(server.url)      # port 0 → an ephemeral port, resolved here
    server.start()         # background thread
    ...
    server.stop()
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

from .errors import error_payload
from .service import ApiService

__all__ = ["ApiServer", "serve_forever"]


class _Handler(BaseHTTPRequestHandler):
    """One request in, one JSON document out."""

    # Keep-alive with a protocol version proxies expect.
    protocol_version = "HTTP/1.1"
    server_version = "repro-api"
    # Nagle off on the accepted socket: _respond writes headers, then
    # body, and the body must not wait for the client's delayed ACK.
    # Also covers the stdlib's own send_error replies (400/414/501).
    disable_nagle_algorithm = True

    # Set by ApiServer on the handler class.
    service: ApiService = None  # type: ignore[assignment]
    workers: Optional[threading.Semaphore] = None
    quiet = True

    def _respond(self, status: int, payload: Dict[str, Any], rid: str) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", rid)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _refuse(
        self,
        status: int,
        code: str,
        message: str,
        rid: str,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Reply with an error before reading the body, then close.

        The unread body would poison the next keep-alive request on
        this connection, so the connection is dropped after the reply.
        """
        rid = rid or "-"
        payload = error_payload(
            status, code, message, details=details, request_id=rid
        )
        payload["request_id"] = rid
        self.close_connection = True
        self._respond(status, payload, rid)

    def _handle(self, method: str) -> None:
        rid = (self.headers.get("X-Request-Id") or "").strip()[:64]
        if self.headers.get("Transfer-Encoding") is not None:
            self._refuse(
                411,
                "length_required",
                "request bodies need a Content-Length; "
                "Transfer-Encoding is not supported",
                rid,
            )
            return
        raw_length = (self.headers.get("Content-Length") or "0").strip()
        if not (raw_length.isascii() and raw_length.isdigit()):
            self._refuse(
                400,
                "bad_request",
                f"Content-Length must be a non-negative integer, "
                f"got {raw_length[:32]!r}",
                rid,
            )
            return
        length = int(raw_length)
        max_bytes = self.service.max_body_bytes
        if length > max_bytes:
            # Refuse before reading: don't buffer a body we already
            # know we will reject.
            self._refuse(
                413,
                "payload_too_large",
                f"request body is {length} bytes; the limit is {max_bytes}",
                rid,
                details={"max_body_bytes": max_bytes},
            )
            return
        body = self.rfile.read(length) if length else b""
        gate = self.workers
        if gate is not None:
            gate.acquire()
        try:
            # The raw path (query string included) goes to the service:
            # query parsing is semantics, and both transports must
            # agree on it.
            status, payload = self.service.dispatch(
                method, self.path, body, request_id=rid or None
            )
        finally:
            if gate is not None:
                gate.release()
        self._respond(status, payload, payload.get("request_id", rid or "-"))

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")

    def log_message(self, format: str, *args: Any) -> None:
        if not self.quiet:
            sys.stderr.write(
                "[repro.api] %s %s\n" % (self.address_string(), format % args)
            )


class ApiServer:
    """Owns the listening socket and the handler's shared state.

    ``port=0`` binds an ephemeral port (resolved before :meth:`start`
    returns — read :attr:`url`), which is what the tests and the load
    bench use to avoid collisions.
    """

    def __init__(
        self,
        service: Optional[ApiService] = None,
        host: str = "127.0.0.1",
        port: int = 8070,
        workers: int = 4,
        quiet: bool = True,
    ) -> None:
        self.service = service or ApiService()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        handler = type(
            "_BoundHandler",
            (_Handler,),
            {
                "service": self.service,
                "workers": threading.Semaphore(workers),
                "quiet": quiet,
            },
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ApiServer":
        """Serve on a daemon background thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-api",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "ApiServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8070,
    workers: int = 4,
    cache_dir: Optional[str] = None,
    quiet: bool = False,
) -> None:
    """Blocking entry point behind ``python -m repro serve``."""
    service = ApiService(cache_dir=cache_dir)
    server = ApiServer(
        service, host=host, port=port, workers=workers, quiet=quiet
    )
    print(f"repro.api listening on {server.url}", flush=True)
    try:
        server._httpd.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        print("\nshutting down", flush=True)
    finally:
        server._httpd.server_close()
