"""The chain runtime under both planes and both modes: a denied hop drops
each descriptor exactly once, every frame comes back to the pool at stop,
and no plane runs more threads than its stages need."""

import socket
import time

import pytest

from shmchain.bench import StaticUpstream, build_packet
from shmchain.descriptors import EGRESS
from shmchain.handlers import (
    make_l2_forwarder,
    make_l3_router,
    make_reverse_proxy,
    make_url_rewriter,
)
from shmchain.http11 import read_response, serialize_request
from shmchain.packet_plane import PacketPlane
from shmchain.pool import PoolConfig
from shmchain.proxy_plane import BrokerConfig, ProxyPlane
from shmchain.runtime import Mode

K = 20
# every thread a two-function plane runs: one per function, the router (the
# relay in the broker's event mode), event-mode packet TX and the broker's io
THREADS = {
    ("packet", Mode.POLLING): {"nf.a", "nf.b", "router"},
    ("packet", Mode.EVENT): {"nf.a", "nf.b", "router", "tx"},
    ("proxy", Mode.POLLING): {"mf.a", "mf.b", "router", "io"},
    ("proxy", Mode.EVENT): {"mf.a", "mf.b", "relay", "io"},
}


@pytest.fixture(scope="module")
def upstreams():
    stubs = [StaticUpstream(b"runtime\n", f"u{i}") for i in range(2)]
    yield stubs
    for stub in stubs:
        stub.stop()


def build(kind, mode, pool, upstreams):
    if kind == "packet":
        plane = PacketPlane(pool, mode, name="rt")
        plane.register("a", make_l3_router({"10.0.0.5": "10.0.1.5"}))
        plane.register("b", make_l2_forwarder())
    else:
        config = BrokerConfig(upstreams=[s.address for s in upstreams],
                              mode=mode)
        plane = ProxyPlane(pool, config, name="rt")
        plane.register("a", make_reverse_proxy(len(upstreams)))
        plane.register("b", make_url_rewriter({"/old": "/new"}))
    plane.set_entry("a")
    plane.set_route("a", "b")
    plane.set_route("b", EGRESS)
    return plane


def counts(plane):
    stats = plane.stats()
    ingress = stats["ingress"] if "ingress" in stats else stats["ingest"]
    return ingress, stats["egress"], dict(stats["drops"])


def wait_settled(plane, offered):
    deadline = time.time() + 10
    while True:
        ingress, egress, drops = counts(plane)
        if ingress == offered and egress + sum(drops.values()) == offered:
            return
        assert time.time() < deadline, plane.stats()
        time.sleep(0.005)


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
@pytest.mark.parametrize("kind", ["packet", "proxy"])
def test_denied_middle_hop_drops_once_and_frees_all(registry, upstreams, kind,
                                                    mode):
    pool = registry.create(PoolConfig(f"rt-{kind}-{mode.value}", 256, 2048))
    plane = build(kind, mode, pool, upstreams)
    socks = []

    def offer(seq, expect_status):
        if kind == "packet":
            assert plane.ingress(build_packet(64, seq, 1))
            return
        sock = socket.create_connection(plane.listen_address, timeout=5)
        socks.append(sock)
        sock.sendall(serialize_request("GET", f"/old/{seq}", [("Host", "rt")],
                                       b""))
        _raw, status, _body, _reusable = read_response(sock)
        assert status == expect_status

    plane.start()
    try:
        for seq in range(K):
            offer(seq, 200)
        wait_settled(plane, K)
        plane.set_filter("a", "b", "deny")
        for seq in range(K, 2 * K):
            offer(seq, 503)  # a request dropped inside the chain is answered
        wait_settled(plane, 2 * K)
        assert set(plane.thread_ids()) == THREADS[(kind, mode)]
    finally:
        for sock in socks:
            sock.close()
        if kind == "packet":
            plane.stop()
        else:
            plane.close()
    ingress, egress, drops = counts(plane)
    assert (ingress, egress, drops) == (2 * K, K, {"filtered": K})
    assert pool.free_count == pool.config.frame_count
