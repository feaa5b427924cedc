import socket
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
    ledger = AuditLedger(mode.value)
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


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_keepalive_pipeline_order(registry, upstreams, mode):
    pool = registry.create(PoolConfig(f"keep-{mode.value}", 128, 4096))
    plane = make_plane(pool, upstreams, mode)
    plane.start()
    try:
        with socket.create_connection(plane.listen_address, timeout=5) as sock:
            sock.settimeout(5)
            sock.sendall(b"".join(
                serialize_request("GET", f"/old/{i}", [("Host", "t")], b"")
                for i in range(20)))
            with sock.makefile("rb") as stream:
                # one byte per recv, so that read_response stops at the end
                # of its own response and leaves the next one unread
                reader = SimpleNamespace(recv=lambda _size: stream.read(1))
                for i in range(20):
                    raw, status, _body, _ = read_response(reader)
                    assert status == 200
                    assert f"\r\nX-Path: /new/{i}\r\n".encode() in raw
    finally:
        plane.close()


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


def test_latency_records_written(registry, upstreams, tmp_path):
    pool = registry.create(PoolConfig("lat", 64, 4096))
    plane = make_plane(pool, upstreams, Mode.EVENT)
    plane.start()
    try:
        for _ in range(5):
            plane.http_roundtrip("GET", "/old/x")
    finally:
        plane.close()
    out = tmp_path / "latency.jsonl"
    plane.write_latency_jsonl(out)
    import json
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 5
    for record in lines:
        assert record["t_egress"] >= record["t_ingress"]
        assert record["mode"] == "event"
