import socket
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from shmchain.audit import AuditLedger, verify
from shmchain.bench import StaticUpstream
from shmchain.descriptors import EGRESS, INGRESS_ID
from shmchain.errors import InvalidConfig, ParseError
from shmchain.handlers import make_reverse_proxy, make_url_rewriter
from shmchain.http11 import (
    read_response,
    serialize_request,
    simple_response,
    try_parse_request,
)
from shmchain.packet_plane import Mode
from shmchain.pool import PoolConfig
from shmchain.proxy_plane import BrokerConfig, ProxyPlane


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
    plane.register("gate", lambda _ctx, desc:
                   None if "/drop/" in desc.meta.path else desc)
    plane.set_entry("lb")
    plane.set_route("lb", "gate")
    plane.set_route("gate", EGRESS)
    return plane


def read_responses(sock, count):
    """Read ``count`` pipelined responses off ``sock``: (status, raw) each."""
    with sock.makefile("rb") as stream:
        # one byte per recv, so that read_response stops at the end of its
        # own response and leaves the next one unread
        reader = SimpleNamespace(recv=lambda _size: stream.read(1))
        responses = []
        for _ in range(count):
            raw, status, _body, _ = read_response(reader)
            responses.append((status, raw))
        return responses


def pipeline(sock, paths):
    sock.sendall(b"".join(serialize_request("GET", path, [("Host", "t")], b"")
                          for path in paths))


def x_path(raw):
    return raw.split(b"\r\nX-Path: ", 1)[1].split(b"\r\n", 1)[0].decode()


class TestHttpWire:
    def test_parse_request_roundtrip(self):
        raw = b"GET /x HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc"
        request, consumed = try_parse_request(raw)
        assert consumed == len(raw)
        assert request.method == "GET"
        assert request.target == "/x"
        assert request.body == b"abc"

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

    def test_serialize_sets_content_length(self):
        data = serialize_request("POST", "/y", [("Host", "h")], b"12345")
        assert b"Content-Length: 5" in data
        assert data.endswith(b"12345")


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_roundtrip_and_rewrites(registry, upstreams, mode):
    pool = registry.create(PoolConfig(f"rt-{mode.value}", 128, 4096))
    plane = make_plane(pool, upstreams, mode)
    plane.start()
    try:
        status, body, _ = plane.http_roundtrip("GET", "/old/a.html")
        assert status == 200
        # round robin alternates backends
        statuses = set()
        bodies = []
        for _ in range(4):
            _s, b, _r = plane.http_roundtrip("GET", "/old/b")
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
            status, _b, _r = plane.http_roundtrip("POST", f"/old/{i}",
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
        status, resp_body, _ = plane.http_roundtrip("POST", "/old/echo", body=body)
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
        status, _body, _ = plane.http_roundtrip("GET", "/x", timeout=10)
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
        status, _body, _ = plane.http_roundtrip("GET", "/x", timeout=10)
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
    assert plane.ingest_count == plane.egress_count + sum(plane.drops.values())
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
    assert plane.ingest_count == plane.egress_count + dropped
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
        status, _body, _raw = plane.http_roundtrip("GET", "/old/x")
    finally:
        plane.close()
    assert status == 503
    assert dict(plane.drops) == {"filtered": 1}
    assert pool.free_count == pool.config.frame_count


def test_broker_needs_upstreams():
    with pytest.raises(InvalidConfig):
        BrokerConfig(upstreams=[]).validate()
