"""The stdlib HTTP front end: routes, status codes, verdict fidelity."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import catalog
from repro.errors import ReplayError, ServiceError
from repro.obs import metrics as obs
from repro.service import (
    CertificationResult,
    CertificationService,
    build_envelope,
)
from repro.service.client import CertifyClient
from repro.service.httpd import make_server


@pytest.fixture
def served():
    """``(url, server)`` of a threaded server on a free port."""
    service = CertificationService()
    server = make_server(port=0, service=service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", server
    server.shutdown()
    server.server_close()
    service.close()


@pytest.fixture
def server_url(served):
    return served[0]


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.load(response)


def _post(url, payload: bytes):
    request = urllib.request.Request(
        url, data=payload, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


@pytest.mark.parametrize("timeout", [-1, 0])
def test_make_server_refuses_a_non_positive_request_timeout(timeout):
    with pytest.raises(ValueError, match="request_timeout"):
        make_server(port=0, request_timeout=timeout)


class TestRoutes:
    def test_healthz(self, server_url):
        status, body = _get(server_url + "/healthz")
        assert status == 200 and body == {"ok": True}

    def test_schemes_matches_catalog(self, server_url):
        status, body = _get(server_url + "/schemes")
        assert status == 200
        names = [entry["name"] for entry in body["schemes"]]
        assert names == catalog.names()
        by_name = {entry["name"]: entry for entry in body["schemes"]}
        eps = [p for p in by_name["approx-tree-weight"]["params"]
               if p["name"] == "eps"]
        assert eps and eps[0]["minimum"] == 0 and eps[0]["exclusive"]

    @pytest.mark.parametrize("route", ["/nope", "/certify-batch"])
    def test_unknown_route_404(self, server_url, route):
        status, body = _post(server_url + route, b"{}")
        assert status == 404 and "error" in body


class TestCertify:
    def test_honest_then_replay_then_fresh(self, server_url):
        envelope = build_envelope("spanning-tree-ptr", n=24, seed=11)
        status, body = _post(server_url + "/certify", envelope.to_bytes())
        assert status == 200
        assert body["accepted"] and not body["cache_hit"]

        status, body = _post(server_url + "/certify", envelope.to_bytes())
        assert status == 409 and body["replay"]

        status, body = _post(
            server_url + "/certify", envelope.with_nonce("f").to_bytes()
        )
        assert status == 200 and body["cache_hit"] and body["accepted"]

        # Replaying the hit is refused too: a cached body's nullifier is
        # spent before the verdict is returned.
        status, body = _post(
            server_url + "/certify", envelope.with_nonce("f").to_bytes()
        )
        assert status == 409 and body["replay"]
        status, body = _get(server_url + "/metrics")
        assert body["stats"]["replays_rejected"] == 2

    def test_corrupted_rejected_with_sample(self, server_url):
        envelope = build_envelope("spanning-tree-ptr", n=24, seed=12, corrupt=3)
        status, body = _post(server_url + "/certify", envelope.to_bytes())
        assert status == 200
        assert not body["accepted"]
        assert body["rejections"] >= 1
        assert body["rejecting"] == sorted(body["rejecting"])

    def test_malformed_envelope_400(self, server_url):
        status, body = _post(server_url + "/certify", b'{"format": "junk"}')
        assert status == 400 and "error" in body

    def test_unknown_scheme_400(self, server_url):
        envelope = build_envelope("bipartite", n=8, seed=13)
        obj = envelope.to_obj()
        obj["scheme"] = "no-such"
        status, body = _post(
            server_url + "/certify", json.dumps(obj).encode()
        )
        assert status == 400 and "unknown scheme" in body["error"]

    def test_metrics_reflect_traffic(self, server_url):
        envelope = build_envelope("bipartite", n=8, seed=14)
        _post(server_url + "/certify", envelope.to_bytes())
        _post(server_url + "/certify", envelope.with_nonce("g").to_bytes())
        status, body = _get(server_url + "/metrics")
        assert status == 200
        assert body["stats"]["cache_hits"] == 1
        assert body["stats"]["cache_misses"] == 1
        assert body["cache_entries"] == 1

    def test_metrics_report_inflight_gauge(self, server_url):
        status, body = _get(server_url + "/metrics")
        assert status == 200
        assert body["max_inflight"] >= 1
        # the GET itself bypasses the gate, so nothing is in flight
        assert body["inflight"] == 0


class TestSubmitMany:
    """Many envelopes, one ``/certify`` request each, settled in order."""

    def test_mixed_envelopes_settle_in_place(self, server_url):
        honest = build_envelope("bipartite", n=8, seed=21)
        corrupted = build_envelope("leader", n=10, seed=22, corrupt=2)
        replayed = build_envelope("spanning-tree-ptr", n=12, seed=23)
        with CertifyClient(server_url) as client:
            outcomes = client.submit_many([
                honest.to_obj(),
                corrupted.to_obj(),
                replayed.to_obj(),
                replayed.to_obj(),        # verbatim duplicate: replay in place
                {"format": "junk"},       # malformed: refused in place
            ])
        assert len(outcomes) == 5
        assert all(
            isinstance(outcome, CertificationResult) for outcome in outcomes[:3]
        )
        assert outcomes[0].accepted
        assert not outcomes[1].accepted and outcomes[1].rejections >= 1
        assert outcomes[2].accepted
        assert isinstance(outcomes[3], ReplayError)
        assert type(outcomes[4]) is ServiceError

    def test_fresh_nonce_hits_cache(self, server_url):
        envelope = build_envelope("bipartite", n=8, seed=24)
        with CertifyClient(server_url) as client:
            first, second = client.submit_many(
                [envelope.to_obj(), envelope.with_nonce("fresh").to_obj()]
            )
        assert not first.cache_hit
        assert second.cache_hit

    def test_fresh_nonce_resubmit_loads_no_json(self, server_url, monkeypatch):
        """Canonical bodies resubmitted under fresh nonces are all served
        from the wire-key index: no body is loaded, and no wire object
        is built to hash its parts, a second time."""
        from repro.service import server as server_module

        built = []

        class CountingWireBody(server_module.WireBody):
            def __init__(self, obj):
                built.append(type(obj).__name__)
                super().__init__(obj)

        monkeypatch.setattr(server_module, "WireBody", CountingWireBody)
        envelopes = [
            build_envelope(name, n=12, seed=25)
            for name in ("spanning-tree-ptr", "leader", "bfs-tree")
        ]
        with CertifyClient(server_url) as client:
            cold = client.submit_many(
                [envelope.to_bytes() for envelope in envelopes]
            )
            before = obs.counter_total("service.envelope.loaded")
            del built[:]
            hot = client.submit_many(
                [envelope.with_nonce("again").to_bytes()
                 for envelope in envelopes]
            )
            loaded = obs.counter_total("service.envelope.loaded") - before
        assert [result.cache_hit for result in cold] == [False] * 3
        assert [result.cache_hit for result in hot] == [True] * 3
        assert loaded == 0
        assert built == []


def _raw_connection(server_url):
    host, port = server_url.removeprefix("http://").rsplit(":", 1)
    import http.client

    return http.client.HTTPConnection(host, int(port), timeout=5)


class TestBodyFraming:
    """Malformed framing must 400 cleanly, never pin a worker thread."""

    def test_missing_content_length_400(self, server_url):
        conn = _raw_connection(server_url)
        try:
            conn.putrequest("POST", "/certify")
            conn.endheaders()  # no body, no Content-Length
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "Content-Length" in body["error"]
            # framing errors poison keep-alive: the server must close
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_chunked_transfer_encoding_400(self, server_url):
        # refused before any body read: a chunked body's length is
        # unknowable up front, and waiting on it would hang the worker
        conn = _raw_connection(server_url)
        try:
            conn.putrequest("POST", "/certify")
            conn.putheader("Transfer-Encoding", "chunked")
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "chunked" in body["error"]
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_unparseable_content_length_400(self, server_url):
        conn = _raw_connection(server_url)
        try:
            conn.putrequest("POST", "/certify")
            conn.putheader("Content-Length", "banana")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_truncated_body_400(self, server_url):
        import socket

        host, port = server_url.removeprefix("http://").rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(
                b"POST /certify HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: 100\r\n\r\n"
                b"only-a-few-bytes"
            )
            sock.shutdown(socket.SHUT_WR)  # EOF long before 100 bytes
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        raw = b"".join(chunks)
        assert raw.split(b"\r\n", 1)[0].endswith(b"400 Bad Request")
        assert b"truncated" in raw


class TestDeeplyNestedJson:
    """A 10⁵-deep array exhausts ``json``'s recursion; every entry point
    must refuse it as a malformed submission, never crash a handler."""

    DEEP = b"[" * 100_000 + b"]" * 100_000

    def test_in_process_submit_raises_service_error(self):
        from repro.errors import EnvelopeError, ServiceError
        from repro.service.envelope import ProofEnvelope

        with pytest.raises(EnvelopeError, match="nested"):
            ProofEnvelope.from_bytes(self.DEEP)
        service = CertificationService()
        try:
            with pytest.raises(ServiceError, match="nested"):
                service.submit(self.DEEP)
        finally:
            service.close()

    def test_certify_replies_400(self, served):
        url, server = served
        status, body = _post(url + "/certify", self.DEEP)
        assert status == 400 and "nested" in body["error"]
        assert _get(url + "/healthz")[0] == 200
        assert not server.errors, list(server.errors)


class TestLabelingMustFitTheDeclaredGraph:
    """A few hundred bytes that declare a graph of 3·10⁶ nodes, under a
    matching graph hash, but carry a three-node labeling are refused
    before any graph is built."""

    MESSAGE = (
        "labeling does not fit the graph: "
        "labeling does not cover the graph's nodes"
    )

    @staticmethod
    def _body(n=3_000_000, relabel=None):
        from repro.graphs.serialize import GRAPH_HASH_DOMAIN
        from repro.util.canonical import canonical_bytes, domain_hash

        obj = build_envelope("leader", n=3, honest_certificates=False).to_obj()
        obj["graph"]["n"] = n
        obj["graph_hash"] = domain_hash(
            GRAPH_HASH_DOMAIN, canonical_bytes(obj["graph"])
        )
        if relabel is not None:
            obj["labeling"][-1][0] = relabel
        return canonical_bytes(obj)

    def test_in_process_rejects_before_building_the_graph(self):
        import time

        from repro.errors import EnvelopeError, ServiceError
        from repro.service.envelope import ProofEnvelope

        body = self._body()
        assert len(body) < 1000
        start = time.perf_counter()
        with pytest.raises(EnvelopeError) as parsed:
            ProofEnvelope.from_bytes(body)
        service = CertificationService()
        try:
            with pytest.raises(ServiceError) as submitted:
                service.submit(body)
        finally:
            service.close()
        assert time.perf_counter() - start < 0.2
        assert str(parsed.value) == str(submitted.value) == self.MESSAGE

    def test_certify_replies_400(self, served):
        url, server = served
        status, body = _post(url + "/certify", self._body())
        assert (status, body["error"]) == (400, self.MESSAGE)
        # Three states on three nodes, one of them not a node: the size
        # check passes, and the decide stage refuses it the same way.
        status, body = _post(url + "/certify", self._body(n=3, relabel=5))
        assert (status, body["error"]) == (400, self.MESSAGE)
        assert not server.errors, list(server.errors)



@pytest.mark.parametrize("unbuffered", [False, True])
def test_submit_into_a_closed_pipe_keeps_its_exit_code(
    server_url, tmp_path, run_into_closed_pipe, unbuffered
):
    """``repro submit … | grep -q`` under ``pipefail``: a reader that
    closes stdout early leaves the verdict's exit code, and no trace."""
    path = tmp_path / "good.json"
    path.write_bytes(build_envelope("bipartite", n=8, seed=26).to_bytes())
    done = run_into_closed_pipe(
        "submit", str(path), "--url", server_url, "--nonce", "fresh",
        unbuffered=unbuffered,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr
