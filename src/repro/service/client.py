"""Stdlib client for the certification service: one connection, many envelopes.

:class:`CertifyClient` is the other half of the threaded front end
(:mod:`repro.service.httpd`): a small, dependency-free HTTP/1.1 client
that streams many envelopes over **one keep-alive connection** —
the shape heavy traffic actually takes, where per-request TCP setup
would dominate the cached hot path — and that understands the
server's backpressure contract:

* **409** (replayed nullifier) raises
  :class:`~repro.errors.ReplayError`;
* **400** (malformed / unservable) raises
  :class:`~repro.errors.ServiceError`;
* **429** (saturated) is retried with a bounded budget, honouring the
  server's ``Retry-After`` hint but capped per attempt; a budget spent
  raises :class:`~repro.errors.ServiceUnavailableError` — the
  submission was never admitted, so retrying later is legal and is
  not a replay;
* a dropped keep-alive connection (the server reaps idle ones at its
  read timeout) is re-dialled once per request, transparently.

:meth:`CertifyClient.submit_many` posts many envelopes to
``/certify`` in turn on that one connection and returns **settled
outcomes** — one :class:`~repro.service.server.CertificationResult`
*or* one typed exception instance per envelope, in order, errors as
values so a replay or a spent 429 budget cannot hide the verdicts
already admitted around it.

Threading contract: one client owns one socket — share nothing, or
give each thread its own client (the stress tests and the CLI do the
latter).
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse
from typing import Any, Callable, Iterable

from repro.errors import ReplayError, ServiceError, ServiceUnavailableError
from repro.service.envelope import ProofEnvelope
from repro.service.server import CertificationResult

__all__ = ["CertifyClient"]

#: Retries after the first 429 before giving up.
DEFAULT_RETRIES = 8

#: Per-attempt sleep cap (seconds): the server's ``Retry-After`` hint
#: is honoured up to this bound, so a misbehaving hint cannot park the
#: client for minutes.
MAX_RETRY_WAIT_S = 1.0

#: Wait (seconds) assumed when a 429 carries no parseable Retry-After.
RETRY_AFTER_FALLBACK = 0.2


class CertifyClient:
    """Keep-alive client for a running certification server.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of a server started by ``repro serve`` /
        :func:`repro.service.httpd.make_server`.
    timeout:
        Socket timeout (seconds) for connect and each response read.
    retries:
        Bounded retry budget for 429 responses (0 = fail fast).
    sleep:
        Injection point for the retry wait (tests pass a recorder); the
        wait honours the server's ``Retry-After`` up to
        :data:`MAX_RETRY_WAIT_S`.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retries: int = DEFAULT_RETRIES,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        parsed = urllib.parse.urlsplit(base_url if "//" in base_url
                                       else f"http://{base_url}")
        if parsed.scheme not in ("", "http"):
            raise ValueError(
                f"only plain http is supported, got {parsed.scheme!r}"
            )
        if not parsed.hostname:
            raise ValueError(f"no host in base url {base_url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self.retries = retries
        self._sleep = sleep
        self._conn: http.client.HTTPConnection | None = None

    # -- connection lifecycle ------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "CertifyClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- transport -----------------------------------------------------------

    def _round_trip(
        self, method: str, path: str, body: bytes | None
    ) -> tuple[int, dict[str, str], Any]:
        """One request/response on the kept-alive connection.

        A connection the server has since closed (idle reap, a 429's
        ``Connection: close``) surfaces as a send error or an empty
        response; it is re-dialled exactly once per call.
        """
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                payload = response.read()
                return (
                    response.status,
                    dict(response.getheaders()),
                    json.loads(payload) if payload else None,
                )
            except (
                ConnectionError,
                http.client.RemoteDisconnected,
                http.client.CannotSendRequest,
                BrokenPipeError,
            ):
                self.close()
                if attempt:
                    raise
            except OSError:
                self.close()
                raise

    def _request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, Any]:
        """A round trip with the bounded 429 retry loop applied."""
        for attempt in range(self.retries + 1):
            status, headers, obj = self._round_trip(method, path, body)
            if status != 429:
                return status, obj
            if attempt >= self.retries:
                break
            try:
                hint = float(headers.get("Retry-After", RETRY_AFTER_FALLBACK))
            except ValueError:
                hint = RETRY_AFTER_FALLBACK
            self._sleep(min(max(hint, 0.0), MAX_RETRY_WAIT_S))
        raise ServiceUnavailableError(
            f"server saturated after {self.retries + 1} attempts on {path}"
        )

    @staticmethod
    def _raise_for(status: int, obj: Any) -> None:
        message = (obj or {}).get("error", f"HTTP {status}")
        if status == 409:
            raise ReplayError(message)
        raise ServiceError(message)

    # -- API -----------------------------------------------------------------

    def healthz(self) -> bool:
        status, obj = self._request("GET", "/healthz")
        return status == 200 and bool((obj or {}).get("ok"))

    def metrics(self) -> dict[str, Any]:
        status, obj = self._request("GET", "/metrics")
        if status != 200:
            self._raise_for(status, obj)
        return obj

    def schemes(self) -> list[dict[str, Any]]:
        status, obj = self._request("GET", "/schemes")
        if status != 200:
            self._raise_for(status, obj)
        return obj["schemes"]

    def submit(self, envelope: Any) -> CertificationResult:
        """Certify one envelope (instance, wire bytes/str, or wire dict).

        Returns the served :class:`CertificationResult` for any decided
        verdict; raises :class:`ReplayError` on 409,
        :class:`ServiceError` on 400, and
        :class:`ServiceUnavailableError` once the 429 retry budget is
        spent.
        """
        if isinstance(envelope, ProofEnvelope):
            body = envelope.to_bytes()
        elif isinstance(envelope, (bytes, bytearray)):
            body = bytes(envelope)
        elif isinstance(envelope, str):
            body = envelope.encode("utf-8")
        else:
            body = json.dumps(envelope).encode("utf-8")
        status, obj = self._request("POST", "/certify", body)
        if status != 200:
            self._raise_for(status, obj)
        return CertificationResult.from_obj(obj)

    def submit_many(
        self, envelopes: Iterable[Any]
    ) -> list[CertificationResult | ServiceError]:
        """Certify many envelopes, one :meth:`submit` each, in order.

        Outcomes come back settled: a :class:`CertificationResult`
        where the service decided, the raised :class:`ServiceError`
        instance otherwise (:class:`ReplayError` for a spent nullifier,
        :class:`ServiceUnavailableError` for a spent 429 budget, the
        base class for the 400 class) — errors as values, never raised,
        so one bad envelope cannot hide the verdicts around it.  A body
        repeated in one call under other nonces is decoded once; the
        later copies are cache hits.  Transport-level failures still
        raise.
        """
        outcomes: list[CertificationResult | ServiceError] = []
        for envelope in envelopes:
            try:
                outcomes.append(self.submit(envelope))
            except ServiceError as error:
                outcomes.append(error)
        return outcomes
