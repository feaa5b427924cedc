import socket
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from httpclient import http_roundtrip

from shmchain.audit import AuditLedger, verify
from shmchain.bench import StaticUpstream
from shmchain.descriptors import EGRESS, INGRESS_ID
from shmchain.errors import DoubleFree, InvalidConfig, ParseError
from shmchain.handlers import make_reverse_proxy, make_url_rewriter
from shmchain.http11 import (
    MAX_HEADER_BYTES,
    read_response,
    serialize_request,
    simple_response,
    try_parse_request,
)
from shmchain.packet_plane import Mode
from shmchain.pool import PoolConfig
from shmchain.proxy_plane import BrokerConfig, ProxyPlane, UpstreamPool


@pytest.fixture(scope="module")
def upstreams():
    stubs = [StaticUpstream(b"body-zero\n", "u0"),
             StaticUpstream(b"body-one\n", "u1")]
    yield stubs
    for stub in stubs:
        stub.stop()


def make_plane(pool, upstreams, mode, ledger=None):
    config = BrokerConfig(upstreams=[s.address for s in upstreams], mode=mode)
    plane = ProxyPlane(pool, config, ledger, name="px")
    plane.register("lb", make_reverse_proxy(len(upstreams)))
    plane.register("rw", make_url_rewriter({"/old": "/new"}))
    plane.set_entry("lb")
    plane.set_route("lb", "rw")
    plane.set_route("rw", EGRESS)
    return plane


def make_gate_plane(pool, upstreams, mode):
    """A chain whose ``gate`` function drops every path containing /drop/."""
    config = BrokerConfig(upstreams=[s.address for s in upstreams], mode=mode)
    plane = ProxyPlane(pool, config, name="px")
    plane.register("lb", make_reverse_proxy(len(upstreams)))
    plane.register("gate", lambda _ctx, batch:
                   [None if "/drop/" in desc.meta.path else desc for desc in batch])
    plane.set_entry("lb")
    plane.set_route("lb", "gate")
    plane.set_route("gate", EGRESS)
    return plane


def read_responses(sock, count):
    """Read ``count`` pipelined responses off ``sock``: (status, raw) each."""
    buf = bytearray()
    responses = []
    for _ in range(count):
        raw, status, _body, _ = read_response(sock, buf)
        responses.append((status, raw))
    return responses


def get(path):
    return serialize_request("GET", path, [("Host", "t")], b"")


def pipeline(sock, paths):
    sock.sendall(b"".join(get(path) for path in paths))


def x_path(raw):
    return raw.split(b"\r\nX-Path: ", 1)[1].split(b"\r\n", 1)[0].decode()


def dead_address():
    """An address nothing listens on."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


class ScriptedBackend:
    """A backend that logs the path of every request it reads, one list per
    connection, and answers with ``X-Path`` set to that path. It answers
    once a connection has sent ``gather`` requests, and only a connection's
    first ``keep``; the last of those says ``Connection: close`` if
    ``close``. Then it stops writing and reads the connection until the
    client hangs up. A path in ``answers`` is answered with its raw bytes
    instead."""

    def __init__(self, keep=None, close=False, gather=1, answers=None):
        self.keep, self.close, self.gather = keep, close, gather
        self.answers = answers or {}
        self.paths: list[list[str]] = []
        self._server = socket.create_server(("127.0.0.1", 0))
        self.address = self._server.getsockname()
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    def _accept(self):
        while True:
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return
            self.paths.append([])
            thread = threading.Thread(target=self._serve,
                                      args=(sock, self.paths[-1]), daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, sock, paths):
        buf, answered = bytearray(), 0
        keep = 10**6 if self.keep is None else self.keep
        with sock:
            sock.settimeout(10)
            while True:
                request, consumed = try_parse_request(buf)
                if request is not None:
                    del buf[:consumed]
                    paths.append(request.target)
                    continue
                while len(paths) >= self.gather and answered < min(len(paths), keep):
                    answered += 1
                    last = answered == keep
                    headers = [("X-Path", paths[answered - 1])]
                    if last and self.close:
                        headers.append(("Connection", "close"))
                    sock.sendall(self.answers.get(paths[answered - 1]) or
                                 simple_response(200, "OK", extra_headers=headers))
                    if last:
                        sock.shutdown(socket.SHUT_WR)
                try:
                    data = sock.recv(65536)
                except OSError:
                    return
                if not data:
                    return
                buf += data

    def stop(self):
        """Close the listener and wait until every client has hung up."""
        self._server.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self._server.close()
        for thread in self._threads:
            thread.join(timeout=10)
            assert not thread.is_alive()


def assert_threads_alive(plane):
    alive = {thread.native_id for thread in threading.enumerate()}
    dead = {label for label, tid in plane.thread_ids().items() if tid not in alive}
    assert not dead, f"plane threads died: {sorted(dead)}"


def fake_socket(chunks):
    """A socket stand-in whose ``recv`` returns ``chunks`` in turn, then
    b"" as a closed connection does."""
    chunks = list(chunks)
    return SimpleNamespace(recv=lambda _size: chunks.pop(0) if chunks else b"")


class TestHttpWire:
    def test_parse_request_roundtrip(self):
        raw = b"GET /x HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc"
        request, consumed = try_parse_request(raw)
        assert consumed == len(raw)
        assert request.method == "GET"
        assert request.target == "/x"
        assert request.body == b"abc"

    def test_method_is_forwarded_in_the_case_the_client_sent(self):
        request, _consumed = try_parse_request(b"get /x HTTP/1.1\r\n\r\n")
        assert request.method == "get"
        raw = serialize_request(request.method, request.target, request.headers,
                                request.body)
        assert raw.startswith(b"get /x ")

    def test_body_over_max_body_is_refused_once_the_head_is_whole(self):
        head = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\n"
        request, consumed = try_parse_request(head + b"abc", max_body=9)
        assert (request.method, request.body, consumed) == ("POST", None, len(head) + 10)
        request, consumed = try_parse_request(head + b"abc", max_body=10)
        assert request is None and consumed == 0  # fits: wait for the body

    def test_parse_needs_more_data(self):
        request, consumed = try_parse_request(b"GET /x HTTP/1.1\r\nContent-")
        assert request is None and consumed == 0

    def test_malformed_request_line(self):
        with pytest.raises(ParseError):
            try_parse_request(b"NOT-A-REQUEST\r\n\r\n")

    def test_chunked_rejected(self):
        raw = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(ParseError):
            try_parse_request(raw)

    def test_pipelined_responses_in_one_recv_are_both_kept(self):
        first = simple_response(200, "OK", b"one")
        second = simple_response(404, "Not Found", b"two")
        chunks = [first + second]
        sock = SimpleNamespace(recv=lambda _size: chunks.pop(0))
        buf = bytearray()
        raw, status, body, reusable = read_response(sock, buf)
        assert (raw, status, body, reusable) == (first, 200, b"one", True)
        assert buf == second
        raw, status, body, reusable = read_response(sock, buf)  # no recv
        assert (raw, status, body, reusable) == (second, 404, b"two", True)
        assert buf == b""

    def test_response_split_across_recvs(self):
        response = simple_response(200, "OK", b"x" * 100)
        chunks = [response[i:i + 7] for i in range(0, len(response), 7)]
        sock = SimpleNamespace(recv=lambda _size: chunks.pop(0))
        buf = bytearray()
        assert read_response(sock, buf) == (response, 200, b"x" * 100, True)
        assert buf == b"" and chunks == []

    def test_bytes_past_the_response_without_a_buffer_end_reuse(self):
        chunks = [simple_response(200, "OK") * 2]
        sock = SimpleNamespace(recv=lambda _size: chunks.pop(0))
        _raw, status, _body, reusable = read_response(sock)
        assert status == 200 and not reusable

    def test_serialize_sets_content_length(self):
        data = serialize_request("POST", "/y", [("Host", "h")], b"12345")
        assert b"Content-Length: 5" in data
        assert data.endswith(b"12345")

    @pytest.mark.parametrize("raw", [
        pytest.param(b"GET /" + b"x" * MAX_HEADER_BYTES, id="head-too-large"),
        pytest.param(b"GET /x\r\n\r\n", id="malformed-request-line"),
        pytest.param(b"GET /x FTP/1.1\r\n\r\n", id="not-http-1"),
        pytest.param(b"GET  HTTP/1.1\r\n\r\n", id="empty-target"),
        pytest.param(b"GET /x HTTP/1.1\r\nHost t\r\n\r\n", id="header-without-colon"),
        pytest.param(b"GET /x HTTP/1.1\r\n: t\r\n\r\n", id="header-without-name"),
        pytest.param(b"POST /x HTTP/1.1\r\nTransfer-Encoding: identity\r\n"
                     b"Content-Length: 0\r\n\r\n", id="transfer-encoding"),
        pytest.param(b"POST /x HTTP/1.1\r\nContent-Length: 1x\r\n\r\n",
                     id="content-length-not-digits"),
        pytest.param(b"POST /x HTTP/1.1\r\nContent-Length: \xb2\r\n\r\nab",
                     id="content-length-non-ascii-digit"),
        pytest.param(b"POST /x HTTP/1.1\r\nContent-Length: " + b"1" * 4301 +
                     b"\r\n\r\n", id="content-length-4301-digits"),
        pytest.param(b"G\xe9t /x HTTP/1.1\r\n\r\n", id="method-not-ascii"),
    ])
    def test_malformed_request_is_a_parse_error(self, raw):
        with pytest.raises(ParseError):
            try_parse_request(raw)

    @pytest.mark.parametrize("chunks", [
        pytest.param([b"HTTP/1.1 200 OK\r\n" + b"x" * MAX_HEADER_BYTES],
                     id="head-too-large"),
        pytest.param([b"HTTP/1.1\r\nContent-Length: 0\r\n\r\n"],
                     id="malformed-status-line"),
        pytest.param([b"HTTP/1.1 OK\r\nContent-Length: 0\r\n\r\n"],
                     id="status-not-digits"),
        pytest.param([b"HTTP/1.1 \xb200 OK\r\nContent-Length: 0\r\n\r\n"],
                     id="status-non-ascii-digit"),
        pytest.param([b"HTTP/1.1 20 OK\r\nContent-Length: 0\r\n\r\n"],
                     id="status-not-three-digits"),
        pytest.param([b"HTTP/1.1 " + b"2" * 4301 + b" OK\r\nContent-Length: 0\r\n\r\n"],
                     id="status-4301-digits"),
        pytest.param([b"HTTP/1.1 200 OK\r\nX-Up u0\r\nContent-Length: 0\r\n\r\n"],
                     id="header-without-colon"),
        pytest.param([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
                      b"Content-Length: 0\r\n\r\n"], id="transfer-encoding"),
        pytest.param([b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n"],
                     id="content-length-not-digits"),
        pytest.param([b"HTTP/1.1 200 OK\r\nContent-Length: \xb2\r\n\r\nab"],
                     id="content-length-non-ascii-digit"),
        pytest.param([b"HTTP/1.1 200 OK\r\nContent-Length: " + b"1" * 4301 +
                      b"\r\n\r\n"], id="content-length-4301-digits"),
        pytest.param([b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n"],
                     id="no-content-length"),
        pytest.param([b"HTTP/1.1 200 OK\r\nContent-"], id="closed-before-head"),
        pytest.param([b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n", b"ab"],
                     id="closed-mid-body"),
    ])
    def test_malformed_response_is_a_parse_error(self, chunks):
        with pytest.raises(ParseError):
            read_response(fake_socket(chunks), bytearray())


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_roundtrip_and_rewrites(registry, upstreams, mode):
    pool = registry.create(PoolConfig(f"rt-{mode.value}", 128, 4096))
    plane = make_plane(pool, upstreams, mode)
    plane.start()
    try:
        status, body, _ = http_roundtrip(plane, "GET", "/old/a.html")
        assert status == 200
        # round robin alternates backends
        statuses = set()
        bodies = []
        for _ in range(4):
            _s, b, _r = http_roundtrip(plane, "GET", "/old/b")
            bodies.append(bytes(b))
        assert any(b.startswith(b"body-zero") for b in bodies)
        assert any(b.startswith(b"body-one") for b in bodies)
    finally:
        plane.close()
    # the rewrite is visible at the upstream
    seen = [p for stub in upstreams for p in stub.seen_paths]
    assert "/new/a.html" in seen


@pytest.mark.parametrize("mode,model", [(Mode.POLLING, "gamma"),
                                        (Mode.EVENT, "delta")])
def test_audit_totals_match_model(registry, upstreams, mode, model):
    pool = registry.create(PoolConfig(f"audit-{mode.value}", 128, 4096))
    ledger = AuditLedger()
    plane = make_plane(pool, upstreams, mode, ledger)
    plane.start()
    try:
        for i in range(150):
            status, _b, _r = http_roundtrip(plane, "POST", f"/old/{i}",
                                            body=b"payload-" + bytes([65 + i % 26]))
            assert status == 200
    finally:
        plane.close()
    report = verify(ledger, model)
    assert report.passed, report.render_text()


def test_body_rides_through_untouched(registry, upstreams):
    pool = registry.create(PoolConfig("body-check", 128, 4096))
    plane = make_plane(pool, upstreams, Mode.EVENT)
    plane.start()
    try:
        body = bytes(range(256)) * 4
        status, resp_body, _ = http_roundtrip(plane, "POST", "/old/echo", body=body)
        assert status == 200
        # the stub echoes the request body after its own banner
        assert resp_body.endswith(body)
    finally:
        plane.close()


def test_parse_error_resets_connection(registry, upstreams):
    pool = registry.create(PoolConfig("parse-err", 64, 4096))
    plane = make_plane(pool, upstreams, Mode.EVENT)
    plane.start()
    try:
        with socket.create_connection(plane.listen_address, timeout=5) as sock:
            sock.sendall(b"BADLINE\r\n\r\n")
            sock.settimeout(5)
            raw, status, _body, _ = read_response(sock)
            assert status == 400
            assert sock.recv(1024) == b""  # closed after the reset
        assert plane.parse_errors == 1
    finally:
        plane.close()


@pytest.mark.parametrize("length", [pytest.param(b"\xb2", id="superscript-two"),
                                    pytest.param(b"1" * 4301, id="4301-digits")])
@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_non_ascii_content_length_is_answered_400_and_the_broker_goes_on(
        registry, upstreams, mode, length):
    """A request whose Content-Length is "²", or 4301 digits, gets a 400,
    not a dead io thread: a fresh connection then gets its 200."""
    pool = registry.create(PoolConfig(f"sup-req-{mode.value}", 16, 4096))
    plane = make_plane(pool, upstreams, mode)
    plane.start()
    try:
        with socket.create_connection(plane.listen_address, timeout=5) as sock:
            sock.sendall(b"POST /old/x HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: " + length + b"\r\n\r\nab")
            (status, _raw), = read_responses(sock, 1)
        assert status == 400
        assert http_roundtrip(plane, "GET", "/old/y")[0] == 200
        assert_threads_alive(plane)
    finally:
        plane.close()
    assert plane.parse_errors == 1


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_non_ascii_method_is_answered_400_and_the_broker_goes_on(registry,
                                                                  upstreams, mode):
    """A method with a latin-1 letter is a 400, never forwarded upstream
    upper-cased: a fresh connection then gets its 200."""
    pool = registry.create(PoolConfig(f"method-{mode.value}", 16, 4096))
    plane = make_plane(pool, upstreams, mode)
    plane.start()
    try:
        with socket.create_connection(plane.listen_address, timeout=5) as sock:
            sock.sendall(b"G\xe9t /old/x HTTP/1.1\r\nHost: t\r\n\r\n")
            (status, _raw), = read_responses(sock, 1)
        assert status == 400
        assert http_roundtrip(plane, "GET", "/old/y")[0] == 200
        assert_threads_alive(plane)
    finally:
        plane.close()
    assert plane.parse_errors == 1


@pytest.mark.parametrize("answer", [
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: \xb2\r\n\r\n",
                 id="length-superscript-two"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: " + b"1" * 4301 + b"\r\n\r\n",
                 id="length-4301-digits"),
    pytest.param(b"HTTP/1.1 " + b"2" * 4301 + b" OK\r\nContent-Length: 0\r\n\r\n",
                 id="status-4301-digits"),
])
@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_non_ascii_content_length_upstream_is_answered_502_and_the_broker_goes_on(
        registry, mode, answer):
    """An upstream response whose Content-Length is "²" or 4301 digits, or
    whose status is 4301 digits, is answered 502, not by a dead egress
    thread: the next request gets its 200."""
    backend = ScriptedBackend(answers={"/bad": answer})
    pool = registry.create(PoolConfig(f"sup-resp-{mode.value}", 16, 4096))
    config = BrokerConfig(upstreams=[backend.address], mode=mode)
    plane = ProxyPlane(pool, config, name="sup-resp")
    plane.register("lb", make_reverse_proxy(1))
    plane.set_entry("lb")
    plane.set_route("lb", EGRESS)
    plane.start()
    try:
        assert http_roundtrip(plane, "GET", "/bad")[0] == 502
        assert http_roundtrip(plane, "GET", "/good")[0] == 200
        assert_threads_alive(plane)
    finally:
        plane.close()
        backend.stop()
    assert plane.upstream_errors == 1
    assert pool.free_count == pool.config.frame_count


class TestUpstreamPool:
    def test_burst_to_one_backend_is_pipelined_on_one_connection(self):
        """The backend answers only once all five requests have arrived, so
        the burst is written before any response is read."""
        backend = ScriptedBackend(gather=5)
        pool = UpstreamPool([backend.address], timeout=5)
        answers = pool.roundtrip([(0, get(f"/{i}")) for i in range(5)])
        pool.close_all()
        backend.stop()
        assert [x_path(raw) for raw in answers] == [f"/{i}" for i in range(5)]
        assert backend.paths == [[f"/{i}" for i in range(5)]]

    def test_stale_pooled_connection_resends_only_the_unanswered(self):
        """The pooled connection answers one request of the burst and then
        closes: the other two, and only they, go out again on a fresh
        connection."""
        backend = ScriptedBackend(keep=2)
        pool = UpstreamPool([backend.address], timeout=5)
        assert x_path(pool.roundtrip([(0, get("/warm"))])[0]) == "/warm"
        answers = pool.roundtrip([(0, get(f"/{i}")) for i in range(3)])
        pool.close_all()
        backend.stop()
        assert [x_path(raw) for raw in answers] == ["/0", "/1", "/2"]
        assert backend.paths == [["/warm", "/0", "/1", "/2"], ["/1", "/2"]]

    def test_stale_pooled_connection_is_retried_once(self):
        """The pooled connection answers nothing more and the fresh one
        answers one request: the rest of the burst is not sent a third
        time."""
        backend = ScriptedBackend(keep=1)
        pool = UpstreamPool([backend.address], timeout=5)
        pool.roundtrip([(0, get("/warm"))])
        answers = pool.roundtrip([(0, get(f"/{i}")) for i in range(3)])
        pool.close_all()
        backend.stop()
        assert x_path(answers[0]) == "/0" and answers[1:] == [None, None]
        assert backend.paths == [["/warm", "/0", "/1", "/2"], ["/0", "/1", "/2"]]

    def test_connection_close_midway_resends_the_rest(self):
        """Every connection answers once with ``Connection: close``: the rest
        of the burst goes out again on a fresh connection each time."""
        backend = ScriptedBackend(keep=1, close=True)
        pool = UpstreamPool([backend.address], timeout=5)
        answers = pool.roundtrip([(0, get(f"/{i}")) for i in range(3)])
        pool.close_all()
        backend.stop()
        assert [x_path(raw) for raw in answers] == ["/0", "/1", "/2"]
        assert backend.paths == [["/0", "/1", "/2"], ["/1", "/2"], ["/2"]]

    def test_dead_backend_leaves_only_its_requests_unanswered(self):
        backend = ScriptedBackend()
        pool = UpstreamPool([backend.address, dead_address()], timeout=5)
        answers = pool.roundtrip([(i % 2, get(f"/{i}")) for i in range(4)])
        pool.close_all()
        backend.stop()
        assert x_path(answers[0]) == "/0" and x_path(answers[2]) == "/2"
        assert answers[1] is None and answers[3] is None
        assert backend.paths == [["/0", "/2"]]


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_pipelined_requests_share_one_upstream_connection(registry, mode):
    """N pipelined requests to one backend reach it on one connection and
    get their N answers in order; ingest = egress and the pool is full
    after stop."""
    n = 12
    backend = ScriptedBackend()
    pool = registry.create(PoolConfig(f"one-conn-{mode.value}", 32, 4096))
    config = BrokerConfig(upstreams=[backend.address], mode=mode)
    plane = ProxyPlane(pool, config, name="one-conn")
    plane.register("lb", make_reverse_proxy(1))
    plane.set_entry("lb")
    plane.set_route("lb", EGRESS)
    plane.start()
    try:
        with socket.create_connection(plane.listen_address, timeout=5) as sock:
            pipeline(sock, [f"/{i}" for i in range(n)])
            responses = read_responses(sock, n)
    finally:
        plane.close()
        backend.stop()
    assert [(s, x_path(raw)) for s, raw in responses] == [
        (200, f"/{i}") for i in range(n)]
    assert backend.paths == [[f"/{i}" for i in range(n)]]
    assert plane.ingress_count == plane.egress_count == n
    assert plane.upstream_errors == 0 and not plane.drops
    assert pool.free_count == pool.config.frame_count


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_dead_backend_gives_502_per_request(registry, upstreams, mode):
    """Round robin over a live and a dead backend: each request sent to the
    dead one is answered 502 in its place, and ``upstream_errors`` counts
    each of them."""
    n = 10
    pool = registry.create(PoolConfig(f"half-dead-{mode.value}", 32, 4096))
    config = BrokerConfig(upstreams=[upstreams[0].address, dead_address()],
                          mode=mode)
    plane = ProxyPlane(pool, config, name="half-dead")
    plane.register("lb", make_reverse_proxy(2))
    plane.set_entry("lb")
    plane.set_route("lb", EGRESS)
    plane.start()
    try:
        with socket.create_connection(plane.listen_address, timeout=10) as sock:
            pipeline(sock, [f"/{i}" for i in range(n)])
            responses = read_responses(sock, n)
    finally:
        plane.close()
    assert [s for s, _raw in responses] == [200, 502] * (n // 2)
    assert [x_path(raw) for _s, raw in responses[::2]] == [
        f"/{i}" for i in range(0, n, 2)]
    assert plane.upstream_errors == n // 2
    assert plane.ingress_count == plane.egress_count == n
    assert pool.free_count == pool.config.frame_count


def test_upstream_down_gives_502(registry):
    pool = registry.create(PoolConfig("down", 64, 4096))
    # a port nothing listens on
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_addr = probe.getsockname()
    probe.close()
    config = BrokerConfig(upstreams=[dead_addr], mode=Mode.EVENT,
                          upstream_timeout=1.0)
    plane = ProxyPlane(pool, config, name="down")
    plane.register("lb", make_reverse_proxy(1))
    plane.set_entry("lb")
    plane.set_route("lb", EGRESS)
    plane.start()
    try:
        status, _body, _ = http_roundtrip(plane, "GET", "/x", timeout=10)
        assert status == 502
        assert plane.upstream_errors == 1
        assert pool.free_count == pool.config.frame_count
    finally:
        plane.close()


def test_silent_upstream_gives_502(registry):
    """A backend that accepts and never answers times out into a 502."""
    pool = registry.create(PoolConfig("silent", 64, 4096))
    server = socket.create_server(("127.0.0.1", 0))
    held = []
    acceptor = threading.Thread(target=lambda: held.append(server.accept()[0]),
                                daemon=True)
    acceptor.start()
    config = BrokerConfig(upstreams=[server.getsockname()], mode=Mode.EVENT,
                          upstream_timeout=0.3)
    plane = ProxyPlane(pool, config, name="silent")
    plane.register("lb", make_reverse_proxy(1))
    plane.set_entry("lb")
    plane.set_route("lb", EGRESS)
    plane.start()
    try:
        t0 = time.monotonic()
        status, _body, _ = http_roundtrip(plane, "GET", "/x", timeout=10)
        elapsed = time.monotonic() - t0
        assert status == 502
        assert 0.25 <= elapsed < 3.0  # the read timed out; nothing refused it
        assert plane.upstream_errors == 1
        assert pool.free_count == pool.config.frame_count
    finally:
        plane.close()
        acceptor.join(timeout=5)
        for sock in held:
            sock.close()
        server.close()


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_keepalive_pipeline_order(registry, upstreams, mode):
    pool = registry.create(PoolConfig(f"keep-{mode.value}", 128, 4096))
    plane = make_plane(pool, upstreams, mode)
    plane.start()
    try:
        with socket.create_connection(plane.listen_address, timeout=5) as sock:
            pipeline(sock, [f"/old/{i}" for i in range(20)])
            responses = read_responses(sock, 20)
    finally:
        plane.close()
    assert [(s, x_path(raw)) for s, raw in responses] == [
        (200, f"/new/{i}") for i in range(20)]


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_pipelined_drop_answers_in_order(registry, upstreams, mode):
    pool = registry.create(PoolConfig(f"pipe-drop-{mode.value}", 16, 4096))
    plane = make_gate_plane(pool, upstreams, mode)
    plane.start()
    try:
        with socket.create_connection(plane.listen_address, timeout=5) as sock:
            pipeline(sock, ["/keep/0", "/drop/1", "/keep/2"])
            responses = read_responses(sock, 3)
    finally:
        plane.close()
    assert [s for s, _raw in responses] == [200, 503, 200]
    assert x_path(responses[0][1]) == "/keep/0"
    assert x_path(responses[2][1]) == "/keep/2"
    assert dict(plane.drops) == {"handler": 1}
    assert plane.ingress_count == plane.egress_count + sum(plane.drops.values())
    assert pool.free_count == pool.config.frame_count


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_bad_frame_at_egress_answers_503_and_the_plane_goes_on(registry, upstreams,
                                                              mode):
    """A function frees one request's frame and still hands the request on.
    Egress drops that request alone as ``bad_frame``, without reading the
    frame, and answers it 503; a later request still gets its 200, every
    request is counted once, and close raises the DoubleFree that the drop's
    free met, with every frame back in the pool."""
    pool = registry.create(PoolConfig(f"bad-egress-{mode.value}", 16, 4096))
    config = BrokerConfig(upstreams=[upstreams[0].address], mode=mode)
    plane = ProxyPlane(pool, config, name="bad-egress")

    def spoil(ctx, batch):
        for desc in batch:
            if desc.meta.path == "/bad":
                ctx.pool.free_frame(desc.frame)
        return list(batch)

    plane.register("spoil", spoil)
    plane.set_entry("spoil")
    plane.set_route("spoil", EGRESS)
    plane.start()
    try:
        with socket.create_connection(plane.listen_address, timeout=5) as sock:
            pipeline(sock, ["/bad"])
            (bad, _raw), = read_responses(sock, 1)
            pipeline(sock, ["/good"])
            (good, raw), = read_responses(sock, 1)
    except BaseException:
        plane.close()
        raise
    with pytest.raises(DoubleFree):
        plane.close()
    assert (bad, good, x_path(raw)) == (503, 200, "/good")
    assert dict(plane.drops) == {"bad_frame": 1}
    assert plane.ingress_count == plane.egress_count + sum(plane.drops.values())
    assert plane.egress_count == 1 and plane.upstream_errors == 0
    assert pool.free_count == pool.config.frame_count


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_pipelined_connections_stress_answer_in_order(registry, upstreams, mode):
    """Four clients pipeline at once into a 4-frame pool, with one request in
    three dropped mid-chain and a short switch interval. Egress answers on
    one thread and the dropping stage on another, yet each connection gets
    all of its own answers in request order, and no frame or request is
    lost."""
    pool = registry.create(PoolConfig(f"pipe-stress-{mode.value}", 4, 4096))
    plane = make_gate_plane(pool, upstreams, mode)
    paths = [[f"/{'drop' if i % 3 == 1 else 'keep'}/{c}-{i}" for i in range(90)]
             for c in range(4)]
    results = {}

    def client(c):
        with socket.create_connection(plane.listen_address, timeout=10) as sock:
            pipeline(sock, paths[c])
            results[c] = read_responses(sock, len(paths[c]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    plane.start()
    try:
        clients = [threading.Thread(target=client, args=(c,), daemon=True)
                   for c in range(len(paths))]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in clients)
    finally:
        plane.close()
        sys.setswitchinterval(interval)
    for c, sent in enumerate(paths):
        assert [(s, None if s == 503 else x_path(raw)) for s, raw in results[c]] \
            == [(503, None) if "/drop/" in p else (200, p) for p in sent]
    dropped = sum("/drop/" in p for sent in paths for p in sent)
    assert dict(plane.drops) == {"handler": dropped}
    assert plane.ingress_count == plane.egress_count + dropped
    assert pool.free_count == pool.config.frame_count


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_parse_error_after_pipelined_requests(registry, upstreams, mode):
    pool = registry.create(PoolConfig(f"pipe-bad-{mode.value}", 16, 4096))
    plane = make_plane(pool, upstreams, mode)
    plane.start()
    try:
        with socket.create_connection(plane.listen_address, timeout=5) as sock:
            sock.sendall(serialize_request("GET", "/old/0", [("Host", "t")], b"")
                         + serialize_request("GET", "/old/1", [("Host", "t")], b"")
                         + b"BADLINE\r\n\r\n")
            responses = read_responses(sock, 3)
            assert sock.recv(1024) == b""  # the 400 ends the stream
    finally:
        plane.close()
    assert [s for s, _raw in responses] == [200, 200, 400]
    assert [x_path(raw) for _s, raw in responses[:2]] == ["/new/0", "/new/1"]
    assert plane.parse_errors == 1


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_pipeline_deeper_than_pool_resumes_after_parking(registry, upstreams,
                                                         mode):
    pool = registry.create(PoolConfig(f"pipe-park-{mode.value}", 2, 4096))
    plane = make_plane(pool, upstreams, mode)
    plane.start()
    try:
        with socket.create_connection(plane.listen_address, timeout=5) as sock:
            # all ten arrive at once, so after a parked request the rest are
            # already buffered and no new bytes wake the io thread
            pipeline(sock, [f"/old/{i}" for i in range(10)])
            responses = read_responses(sock, 10)
    finally:
        plane.close()
    assert [(s, x_path(raw)) for s, raw in responses] == [
        (200, f"/new/{i}") for i in range(10)]
    assert "pool_exhausted" not in plane.drops
    assert pool.free_count == pool.config.frame_count


def test_pool_pressure_backpressures_not_drops(registry, upstreams):
    pool = registry.create(PoolConfig("tiny-px", 2, 4096))
    plane = make_plane(pool, upstreams, Mode.EVENT)
    plane.start()
    try:
        # more concurrent requests than frames; stream semantics demand all
        # are eventually answered
        socks = []
        for i in range(6):
            sock = socket.create_connection(plane.listen_address, timeout=5)
            sock.settimeout(10)
            sock.sendall(serialize_request("GET", f"/old/{i}", [("Host", "t")],
                                           b""))
            socks.append(sock)
        for sock in socks:
            _raw, status, _body, _ = read_response(sock)
            assert status == 200
            sock.close()
        assert plane.egress_count == 6
        assert plane.drops.get("pool_exhausted", 0) == 0
    finally:
        plane.close()


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_ingress_filter_denies_in_both_modes(registry, upstreams, mode):
    pool = registry.create(PoolConfig(f"ingress-deny-{mode.value}", 16, 4096))
    plane = make_plane(pool, upstreams, mode)
    plane.set_filter(INGRESS_ID, "lb", "deny")
    plane.start()
    try:
        status, _body, _raw = http_roundtrip(plane, "GET", "/old/x")
    finally:
        plane.close()
    assert status == 503
    assert dict(plane.drops) == {"filtered": 1}
    assert pool.free_count == pool.config.frame_count


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_oversize_body_is_answered_413_and_counted_as_a_drop(registry,
                                                             upstreams, mode):
    """A POST whose body does not fit a frame is answered 413 and counted as
    ingested and dropped as ``oversize``, as the packet plane counts it; a
    later request on the same connection still gets its 200."""
    pool = registry.create(PoolConfig(f"oversize-{mode.value}", 16, 2048))
    plane = make_plane(pool, upstreams, mode)
    plane.start()
    try:
        with socket.create_connection(plane.listen_address, timeout=5) as sock:
            sock.sendall(serialize_request("POST", "/old/big", [("Host", "t")],
                                           b"x" * (2048 + 1)))
            (big, _raw), = read_responses(sock, 1)
            pipeline(sock, ["/old/small"])
            (small, raw), = read_responses(sock, 1)
    finally:
        plane.close()
    assert (big, small, x_path(raw)) == (413, 200, "/new/small")
    stats = plane.stats()
    assert stats["drops"] == {"oversize": 1}
    assert (stats["ingest"], stats["egress"]) == (2, 1)
    assert stats["ingest"] == stats["egress"] + sum(stats["drops"].values())
    assert pool.free_count == pool.config.frame_count


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_oversize_head_is_answered_413_before_its_body_arrives(registry,
                                                               upstreams, mode):
    """A head that declares 4 MiB to a pool of 2048-byte frames gets its 413
    before any body byte is sent. The body is then skipped as it arrives,
    and a small request sent after it on the same connection gets its 200."""
    size = 4 << 20
    pool = registry.create(PoolConfig(f"early-413-{mode.value}", 16, 2048))
    plane = make_plane(pool, upstreams, mode)
    plane.start()
    try:
        with socket.create_connection(plane.listen_address, timeout=5) as sock:
            sock.sendall(b"POST /old/big HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: %d\r\n\r\n" % size)
            buf = bytearray()
            raw, status, _body, _ = read_response(sock, buf)
            assert status == 413
            sock.sendall(b"x" * size)
            pipeline(sock, ["/old/small"])
            raw, small, _body, _ = read_response(sock, buf)
    finally:
        plane.close()
    assert (small, x_path(raw)) == (200, "/new/small")
    stats = plane.stats()
    assert stats["drops"] == {"oversize": 1}
    assert (stats["ingest"], stats["egress"]) == (2, 1)
    assert pool.free_count == pool.config.frame_count


def test_broker_needs_upstreams():
    with pytest.raises(InvalidConfig):
        BrokerConfig(upstreams=[]).validate()
