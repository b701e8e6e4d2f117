"""Stdlib-only threaded HTTP front end for the certification service.

A deliberately small surface over :class:`~repro.service.server.
CertificationService` — four routes, JSON in and out, no dependencies
beyond :mod:`http.server`:

============  ======  ====================================================
``/healthz``  GET     liveness probe (``{"ok": true}``)
``/schemes``  GET     the machine-readable catalog (``list-schemes
                      --json`` shape)
``/metrics``  GET     service counters, cache occupancy, in-flight
                      requests
``/certify``  POST    one :class:`~repro.service.envelope.ProofEnvelope`
                      in wire form; returns the :class:`~repro.service.
                      server.CertificationResult`
============  ======  ====================================================

Many envelopes travel as many ``/certify`` requests on one keep-alive
connection (:meth:`repro.service.client.CertifyClient.submit_many`), so
every body reaches the service as bytes.

Status codes carry the verdict taxonomy: **200** for any decided
verdict (acceptance is in the body — a sound rejection is a successful
certification),
**400** for envelopes the service refuses to decide (malformed, unknown
scheme, invalid parameters) and for bodies the server refuses to read
(missing/invalid ``Content-Length``, chunked transfer encoding),
**408** when a client stalls past the per-request read timeout, **409**
for replayed nullifiers, **429** (+ ``Retry-After``) when the in-flight
bound is saturated, **404**/**405** for unknown routes and methods.

Threading model (requests are served concurrently since the
:mod:`repro.obs` scope stacks went thread-local):

* :class:`CertifyHTTPServer` is a :class:`~http.server.
  ThreadingHTTPServer` — one daemon thread per connection, many
  requests per connection over HTTP/1.1 keep-alive.  The
  :class:`~repro.service.server.CertificationService` underneath is
  thread-safe (see its module docstring for the lock ordering).
* A **bounded in-flight semaphore** (``max_inflight``) gates the POST
  route: past the bound the server answers 429 immediately with
  ``Retry-After`` instead of queueing unbounded decider work — the
  backpressure contract (:class:`~repro.errors.ServiceUnavailableError`
  on the client side).  GET routes bypass the gate so health and
  metrics stay readable under saturation.
* A **per-request read timeout** (``request_timeout``, applied to the
  connection socket) bounds how long a stalled client can pin a worker
  thread: a half-sent body turns into 408, an idle keep-alive
  connection is reaped.
* Client disconnects mid-response (``BrokenPipeError``/
  ``ConnectionResetError``) are routine, not errors: replies swallow
  them and :meth:`CertifyHTTPServer.handle_error` keeps them off
  stderr.  Anything *else* escaping a handler thread is recorded on
  ``server.errors`` (a bounded deque) so tests and operators can
  assert the storm stayed clean.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.errors import ReplayError, ServiceError
from repro.obs import metrics as _metrics
from repro.service.server import CertificationService

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_REQUEST_TIMEOUT",
    "CertifyHTTPServer",
    "make_server",
]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8423

#: Largest accepted request body; a 10^6-node envelope is ~tens of MB,
#: so this bounds memory without constraining the benchmark sizes.
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Concurrent POSTs admitted past the gate before 429s start.
DEFAULT_MAX_INFLIGHT = 8

#: Seconds a stalled client may pin a worker thread (socket timeout).
DEFAULT_REQUEST_TIMEOUT = 30.0

#: ``Retry-After`` hint (seconds) sent with every 429.
RETRY_AFTER_S = 1

#: Exceptions that mean "the peer went away", not "the handler broke".
_DISCONNECTS = (BrokenPipeError, ConnectionResetError, TimeoutError)


class CertifyHTTPServer(ThreadingHTTPServer):
    """Threaded server owning the service, the gate, and the error log."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: CertificationService,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
        verbose: bool = False,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        if request_timeout is not None and not request_timeout > 0:
            raise ValueError(
                f"request_timeout must be positive, got {request_timeout}"
            )
        super().__init__(address, _Handler)
        self.service = service
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        self.verbose = verbose
        #: Bounds concurrently admitted POST work (the backpressure gate).
        self.gate = threading.BoundedSemaphore(max_inflight)
        #: Unexpected handler-thread exceptions (disconnects excluded);
        #: bounded so a pathological client cannot grow it without limit.
        self.errors: deque[str] = deque(maxlen=64)

    def handle_error(self, request, client_address) -> None:
        """Keep routine disconnects quiet; record real handler failures.

        The stock implementation dumps a traceback to stderr for every
        exception a handler thread raises — under a client that hangs
        up mid-response that floods the log with ``BrokenPipeError``
        noise.  Disconnect classes are swallowed here (the reply path
        already treats them as normal); anything else is appended to
        :attr:`errors` and printed only when ``verbose``.
        """
        exc = sys.exc_info()[1]
        if isinstance(exc, _DISCONNECTS):
            return
        self.errors.append(f"{client_address}: {exc!r}")
        if self.verbose:  # pragma: no cover - diagnostic path
            super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    """One request, one JSON response; the service hangs off the server."""

    server_version = "pls-certifyd/2"
    protocol_version = "HTTP/1.1"
    # Replies go out as two writes (header block, then payload); with
    # Nagle on, the second write waits out the peer's delayed ACK and
    # every keep-alive round trip stalls ~40 ms.
    disable_nagle_algorithm = True

    @property
    def service(self) -> CertificationService:
        return self.server.service  # type: ignore[attr-defined]

    def setup(self) -> None:
        # StreamRequestHandler applies ``self.timeout`` to the socket,
        # which bounds every blocking read below — the per-request read
        # timeout (and the idle keep-alive reaper).
        self.timeout = self.server.request_timeout  # type: ignore[attr-defined]
        super().setup()

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # -- plumbing -----------------------------------------------------------

    def _reply(
        self, status: int, obj: Any, retry_after: int | None = None
    ) -> None:
        """Send one JSON response; a vanished client is not an error.

        A peer that hangs up between our read and our write raises
        ``BrokenPipeError``/``ConnectionResetError`` (or times out) on
        the send path.  Handler threads must survive that silently —
        the verdict is already computed and cached; there is nobody
        left to tell — so the connection is simply marked closed.
        """
        payload = json.dumps(obj).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            if retry_after is not None:
                self.send_header("Retry-After", str(retry_after))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(payload)
        except _DISCONNECTS:
            self.close_connection = True

    def _error(self, status: int, message: str, **extra: Any) -> None:
        self._reply(status, {"error": message, **extra})

    def _refuse(self, status: int, message: str) -> None:
        """A body-framing refusal: reply and drop the connection.

        Whenever the declared body cannot be read (missing/invalid
        length, chunked encoding, truncation, timeout), any bytes the
        client still sends would be misparsed as the next request on a
        kept-alive connection — so framing errors always close.
        """
        self.close_connection = True
        self._error(status, message)

    def _read_body(self) -> bytes | None:
        """The request body, or ``None`` after a 4xx refusal was sent.

        Strict framing keeps worker threads unstoppable by malformed
        clients: a chunked or length-less POST is refused with 400
        *before* any blocking read (``rfile.read`` on a chunked body
        would wait forever for bytes the header never promised), a
        stalled body hits the socket timeout and turns into 408, and a
        short read (client closed early) is a clean 400.
        """
        encoding = self.headers.get("Transfer-Encoding", "")
        if "chunked" in encoding.lower():
            self._refuse(400, "chunked transfer encoding is not supported")
            return None
        declared = self.headers.get("Content-Length")
        if declared is None:
            self._refuse(400, "missing Content-Length")
            return None
        try:
            length = int(declared)
        except ValueError:
            self._refuse(400, f"bad Content-Length {declared!r}")
            return None
        if length <= 0 or length > MAX_BODY_BYTES:
            self._refuse(400, f"body length {length} out of bounds")
            return None
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            self._refuse(408, "timed out reading request body")
            return None
        if len(body) != length:
            self._refuse(
                400, f"truncated body: {len(body)} of {length} bytes"
            )
            return None
        return body

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._reply(200, {"ok": True})
        elif self.path == "/schemes":
            self._reply(200, {"schemes": self.service.describe_catalog()})
        elif self.path == "/metrics":
            body = self.service.metrics()
            gate = self.server.gate  # type: ignore[attr-defined]
            body["max_inflight"] = self.server.max_inflight  # type: ignore[attr-defined]
            body["inflight"] = self.server.max_inflight - gate._value  # type: ignore[attr-defined]
            self._reply(200, body)
        else:
            self._error(404, f"no route {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/certify":
            self._error(404, f"no route {self.path!r}")
            return
        gate = self.server.gate  # type: ignore[attr-defined]
        if not gate.acquire(blocking=False):
            # Saturated: refuse before reading the body (whose bytes
            # are in flight regardless — hence the connection close).
            _metrics.inc("service.http.throttled")
            self.close_connection = True
            self._reply(
                429,
                {"error": "server saturated; retry later",
                 "retry_after": RETRY_AFTER_S},
                retry_after=RETRY_AFTER_S,
            )
            return
        try:
            body = self._read_body()
            if body is None:
                return
            self._certify(body)
        finally:
            gate.release()

    def _certify(self, body: bytes) -> None:
        try:
            result = self.service.submit(body)
        except ReplayError as error:
            self._error(409, str(error), replay=True)
        except ServiceError as error:
            # EnvelopeError is a ServiceError: malformed and unservable
            # submissions share the 400 class.
            self._error(400, str(error))
        else:
            self._reply(200, result.to_obj())


def make_server(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    service: CertificationService | None = None,
    verbose: bool = False,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
) -> CertifyHTTPServer:
    """A ready (not yet serving) HTTP server bound to ``host:port``.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``) — the shape the tests and the CI smoke
    job use.  The caller owns the service's lifetime.  ``max_inflight``
    bounds concurrently admitted POSTs (429 past it);
    ``request_timeout`` is the per-request socket read timeout in
    seconds (``None`` disables it).
    """
    return CertifyHTTPServer(
        (host, port),
        service or CertificationService(),
        max_inflight=max_inflight,
        request_timeout=request_timeout,
        verbose=verbose,
    )
