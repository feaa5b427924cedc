"""The chain runtime under both planes and both modes: a refused hop drops
each descriptor exactly once, wherever the chain refuses it, a descriptor
still in flight at stop is counted as a shutdown drop, every frame comes
back to the pool at stop, and no plane runs more threads than its stages
need."""

import socket
import sys
import time

import pytest

from shmchain.audit import AuditLedger
from shmchain.bench import StaticUpstream, build_packet
from shmchain.descriptors import EGRESS, INGRESS_ID, PacketDescriptor
from shmchain.errors import DoubleFree
from shmchain.handlers import (
    make_l2_forwarder,
    make_l3_router,
    make_reverse_proxy,
    make_url_rewriter,
)
from shmchain.http11 import read_response, serialize_request
from shmchain.packet_plane import PacketPlane
from shmchain.pool import PoolConfig
from shmchain.proxy_plane import INGEST_COST, BrokerConfig, ProxyPlane
from shmchain.routing import RoutingTable
from shmchain.runtime import BATCH, BURST, Mode

K = 20
# every thread a two-function plane runs: in polling mode the one worker
# that runs the chain; in event mode one per function, the router (the relay
# in the broker) and packet TX; and the broker's io in both modes
THREADS = {
    ("packet", Mode.POLLING): {"worker"},
    ("packet", Mode.EVENT): {"nf.a", "nf.b", "router", "tx"},
    ("proxy", Mode.POLLING): {"worker", "io"},
    ("proxy", Mode.EVENT): {"mf.a", "mf.b", "relay", "io"},
}


@pytest.fixture(scope="module")
def upstreams():
    stubs = [StaticUpstream(b"runtime\n", f"u{i}") for i in range(2)]
    yield stubs
    for stub in stubs:
        stub.stop()


def slowed(handler, delay):
    def slow(ctx, desc):
        time.sleep(delay)
        return handler(ctx, desc)
    return slow


def build(kind, mode, pool, upstreams, entry_delay=0.0):
    if kind == "packet":
        plane = PacketPlane(pool, mode, name="rt")
        entry = make_l3_router({"10.0.0.5": "10.0.1.5"})
        later = make_l2_forwarder()
    else:
        config = BrokerConfig(upstreams=[s.address for s in upstreams],
                              mode=mode)
        plane = ProxyPlane(pool, config, name="rt")
        entry = make_reverse_proxy(len(upstreams))
        later = make_url_rewriter({"/old": "/new"})
    plane.register("a", slowed(entry, entry_delay) if entry_delay else entry)
    plane.register("b", later)
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


def unroute_b(plane):
    routes = RoutingTable()
    routes.set_route("a", "b")
    plane.routes = routes  # b keeps its filter rule but has no next hop


# where the chain refuses: the change made once the first K offers have gone
# through, and the reason each later offer is then dropped under
REFUSALS = {
    "ingress": (lambda plane: plane.set_filter(INGRESS_ID, "a", "deny"),
                "filtered"),
    "middle": (lambda plane: plane.set_filter("a", "b", "deny"), "filtered"),
    "egress": (lambda plane: plane.set_filter("b", EGRESS, "deny"), "filtered"),
    "no_route": (unroute_b, "no_route"),
}


def check_refusal(registry, upstreams, kind, mode, where):
    pool = registry.create(PoolConfig(f"rt-{where}-{kind}-{mode.value}", 256,
                                      2048))
    plane = build(kind, mode, pool, upstreams)
    refuse, reason = REFUSALS[where]
    socks = []

    def offer(seq, refused):
        if kind == "packet":
            # only polling ingress routes, so only it sees its own refusal
            early = refused and where == "ingress" and mode is Mode.POLLING
            assert plane.ingress(build_packet(64, seq, 1)) is not early
            return
        sock = socket.create_connection(plane.listen_address, timeout=5)
        socks.append(sock)
        sock.sendall(serialize_request("GET", f"/old/{seq}", [("Host", "rt")],
                                       b""))
        _raw, status, _body, _reusable = read_response(sock)
        # a request dropped inside the chain is answered
        assert status == (503 if refused else 200)

    plane.start()
    try:
        for seq in range(K):
            offer(seq, False)
        wait_settled(plane, K)
        refuse(plane)
        for seq in range(K, 2 * K):
            offer(seq, True)
        wait_settled(plane, 2 * K)
        assert set(plane.thread_ids()) == THREADS[(kind, mode)]
        # only a polling chain has RX rings
        assert all((reg.rx is None) == (mode is Mode.EVENT)
                   for reg in plane._regs.values())
    finally:
        for sock in socks:
            sock.close()
        if kind == "packet":
            plane.stop()
        else:
            plane.close()
    ingress, egress, drops = counts(plane)
    assert (ingress, egress, drops) == (2 * K, K, {reason: K})
    assert pool.free_count == pool.config.frame_count


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
@pytest.mark.parametrize("kind", ["packet", "proxy"])
def test_denied_middle_hop_drops_once_and_frees_all(registry, upstreams, kind,
                                                    mode):
    check_refusal(registry, upstreams, kind, mode, "middle")


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
@pytest.mark.parametrize("kind", ["packet", "proxy"])
@pytest.mark.parametrize("where", ["ingress", "egress", "no_route"])
def test_refused_at_chain_edge_drops_once_and_frees_all(registry, upstreams,
                                                         where, kind, mode):
    check_refusal(registry, upstreams, kind, mode, where)


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
@pytest.mark.parametrize("kind", ["packet", "proxy"])
def test_stop_counts_in_flight_as_shutdown(registry, upstreams, kind, mode):
    """A 5 ms entry function leaves most offers in flight at stop; each one
    is counted once, and every frame comes back."""
    pool = registry.create(PoolConfig(f"rt-stop-{kind}-{mode.value}", 256, 2048))
    plane = build(kind, mode, pool, upstreams, entry_delay=0.005)
    plane.start()
    if kind == "packet":
        offered = 200
        for seq in range(offered):
            plane.ingress(build_packet(64, seq, 1))
        plane.stop()
    else:
        offered = 100
        sock = socket.create_connection(plane.listen_address, timeout=5)
        try:
            sock.sendall(b"".join(
                serialize_request("GET", f"/old/{seq}", [("Host", "rt")], b"")
                for seq in range(offered)))
            deadline = time.time() + 10
            while plane.ingest_count < offered:
                assert time.time() < deadline, plane.stats()
                time.sleep(0.001)
        finally:
            plane.close()
            sock.close()
    ingress, egress, drops = counts(plane)
    assert ingress == offered
    assert egress + sum(drops.values()) == offered
    assert drops.get("shutdown", 0) > 0
    assert pool.free_count == pool.config.frame_count


def test_stop_raises_ownership_fault_after_full_teardown(registry, upstreams):
    """A descriptor whose frame was already freed is found in flight at stop:
    stop releases every other descriptor, stops the plane, then raises
    DoubleFree instead of hiding it."""
    pool = registry.create(PoolConfig("rt-stop-fault", 16, 2048))
    plane = build("packet", Mode.POLLING, pool, upstreams)
    plane.start()
    # halt the stages first, so that nothing takes the descriptors off the ring
    plane._stop.set()
    for thread in plane._threads.values():
        thread.join(timeout=5)
    freed, live = pool.alloc_frame(), pool.alloc_frame()
    pool.free_frame(freed)
    rx = plane._regs["b"].rx
    for seq, ref in enumerate((freed, live)):
        assert rx.enqueue(PacketDescriptor(ref, 0, 64, "a", seq))
    with pytest.raises(DoubleFree):
        plane.stop()
    assert not plane.running
    assert plane.stats()["drops"]["shutdown"] == 2
    assert pool.free_count == pool.config.frame_count
    plane.start()  # a stopped plane starts again
    assert plane.ingress(build_packet(64, 0, 1))
    deadline = time.time() + 10
    while counts(plane)[1] < 1:
        assert time.time() < deadline, plane.stats()
        time.sleep(0.005)
    plane.stop()
    assert pool.free_count == pool.config.frame_count


def test_event_hop_into_closed_inbox_drops_as_shutdown(registry, upstreams):
    """An event hop refused by an inbox closed at stop is a ``shutdown``
    drop: the hop is not audited, so its trace gets no interrupt or context
    switch for it, and the frame goes back to the pool."""
    pool = registry.create(PoolConfig("rt-closed-inbox", 16, 2048))
    plane = build("proxy", Mode.EVENT, pool, upstreams)
    plane.ledger = ledger = AuditLedger()
    plane.start()
    try:
        plane._regs["b"].endpoint.close()
        status, _body, _raw = plane.http_roundtrip("GET", "/old/0",
                                                   [("Host", "rt")])
        assert status == 503
        assert plane.stats()["drops"] == {"shutdown": 1}
        assert pool.free_count == pool.config.frame_count
    finally:
        plane.close()
    assert ledger.completed_ids("drop") == [0]
    # two hops were made, ingest into a and a into the relay; the third,
    # the relay into b, was refused
    total = ledger.trace_total(0)
    assert total.interrupts == INGEST_COST.interrupts + 2
    assert total.context_switches == INGEST_COST.context_switches + 2


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_stats_count_event_hops_and_wakeups(registry, upstreams, mode):
    """stats() sums the event hops delivered and the blocking receives woken
    over the chain's inboxes, and still reads them after stop; a polling
    chain has no inbox and reports 0 for both."""
    n = 10
    pool = registry.create(PoolConfig(f"rt-wakeups-{mode.value}", 16, 2048))
    plane = build("proxy", mode, pool, upstreams)
    plane.start()
    try:
        for i in range(n):
            status, _body, _raw = plane.http_roundtrip("GET", f"/old/{i}",
                                                       [("Host", "rt")])
            assert status == 200
    finally:
        plane.close()
    stats = plane.stats()
    if mode is Mode.POLLING:
        assert stats["event_hops"] == stats["event_wakeups"] == 0
    else:
        # ingest into a, a into the relay, the relay into b, b into the relay
        assert stats["event_hops"] == 4 * n
        assert 1 <= stats["event_wakeups"] <= stats["event_hops"]


def halt_stages(plane):
    """Stop a started plane's threads but leave it running, so that a test
    steps its chain by hand."""
    plane._stop.set()
    for thread in plane._threads.values():
        thread.join(timeout=5)
        assert not thread.is_alive()


def rewritten(packet: bytes) -> bytes:
    """``packet`` as it leaves the packet chain of ``build``."""
    packet = bytearray(packet)
    packet[30:34] = bytes([10, 0, 1, 5])  # a's l3 rewrite
    packet[0:6] = bytes.fromhex("020000000002")  # b's l2 rewrite
    return bytes(packet)


def test_one_route_step_runs_a_burst_to_completion(registry, upstreams):
    """One polling step runs a burst through both functions and out to the
    sink: every packet arrives rewritten by both, and every frame is back in
    the pool."""
    n = 10
    pool = registry.create(PoolConfig("rt-complete", 64, 2048))
    plane = build("packet", Mode.POLLING, pool, upstreams)
    sent, got = [], []
    plane.set_sink(lambda payload, desc: got.append(bytes(payload)))
    plane.start()
    try:
        halt_stages(plane)
        for seq in range(n):
            sent.append(build_packet(64, seq, 1))
            assert plane.ingress(sent[-1])
        assert plane.route_step() == 2 * n  # n onto b's RX ring, n out
    finally:
        plane.stop()
    assert got == [rewritten(packet) for packet in sent]
    assert plane.stats()["drops"] == {}
    assert pool.free_count == pool.config.frame_count


def test_bad_frame_drops_alone_and_stop_raises_its_fault(registry, upstreams):
    """Three packets wait on the entry function's RX ring, and the middle
    one's frame is freed behind the chain's back. One step still delivers
    the other two with their exact bytes and drops the middle one as
    ``handler``; its drop meets the DoubleFree, which stop raises after
    teardown, with every frame back in the pool."""
    pool = registry.create(PoolConfig("rt-bad-frame", 64, 2048))
    plane = build("packet", Mode.POLLING, pool, upstreams)
    got = []
    plane.set_sink(lambda payload, desc: got.append(bytes(payload)))
    plane.start()
    halt_stages(plane)
    sent = [build_packet(64, seq, 1) for seq in range(3)]
    for packet in sent:
        assert plane.ingress(packet)
    a_rx = plane._regs["a"].rx
    burst = a_rx.burst_dequeue(BURST)
    pool.free_frame(burst[1].frame)
    assert a_rx.enqueue_burst(burst) == 3
    plane.route_step()
    assert got == [rewritten(sent[0]), rewritten(sent[2])]
    assert counts(plane) == (3, 2, {"handler": 1})
    with pytest.raises(DoubleFree):
        plane.stop()
    assert not plane.running
    assert pool.free_count == pool.config.frame_count


def test_event_drop_never_parks_a_bad_frame(registry, upstreams, monkeypatch):
    """In event mode, ``a`` refuses a descriptor whose frame was freed behind
    the chain's back, and its drop does not park that frame on the fill
    ring: the other two packets go out, later ingress takes only good
    frames until both rings run dry, and stop raises the DoubleFree with
    every frame back in the pool. The stages run by hand."""
    pool = registry.create(PoolConfig("rt-bad-event", 16, 2048))
    plane = build("packet", Mode.EVENT, pool, upstreams)
    got = []
    plane.set_sink(lambda payload, desc: got.append(bytes(payload)))
    monkeypatch.setattr(plane, "_spawn", lambda *args: None)
    plane.start()
    a, b = plane._regs["a"], plane._regs["b"]
    router = plane._router_ep
    sent = [build_packet(64, seq, 1) for seq in range(3)]
    for packet in sent:
        assert plane.ingress(packet)
    plane._router_step(router.recv_batch(BATCH))
    batch = a.endpoint.recv_batch(BATCH)
    pool.free_frame(batch[1].frame)
    plane._nf_step_event(a, batch)
    plane._router_step(router.recv_batch(BATCH))
    plane._nf_step_event(b, b.endpoint.recv_batch(BATCH))
    plane._router_step(router.recv_batch(BATCH))
    plane._transmit_event(plane._tx_ep.recv_batch(BATCH))
    assert got == [rewritten(sent[0]), rewritten(sent[2])]
    # 8 frames were parked: 5 are left on the fill ring and 2 on the
    # completion ring, which ingress reaps once the fill ring runs dry
    offered = [plane.ingress(build_packet(64, seq, 1)) for seq in range(3, 11)]
    assert offered == [True] * 7 + [False]
    with pytest.raises(DoubleFree):
        plane.stop()
    assert counts(plane) == (11, 2, {"handler": 1, "fill_empty": 1,
                                     "shutdown": 7})
    assert pool.free_count == pool.config.frame_count


def test_bad_frame_at_egress_drops_alone(registry):
    """A function that never reads its frames hands egress a burst whose
    middle frame was freed behind the chain's back: egress sends the other
    two, drops that one as ``bad_frame`` without reading it, and stop raises
    the DoubleFree its free met, with every frame back in the pool."""
    pool = registry.create(PoolConfig("rt-bad-egress", 64, 2048))
    plane = PacketPlane(pool, Mode.POLLING, name="rt")
    plane.register("a", lambda ctx, desc: desc)
    plane.set_entry("a")
    plane.set_route("a", EGRESS)
    got = []
    plane.set_sink(lambda payload, desc: got.append(bytes(payload)))
    plane.start()
    halt_stages(plane)
    sent = [build_packet(64, seq, 1) for seq in range(3)]
    for packet in sent:
        assert plane.ingress(packet)
    a_rx = plane._regs["a"].rx
    burst = a_rx.burst_dequeue(BURST)
    pool.free_frame(burst[1].frame)
    assert a_rx.enqueue_burst(burst) == 3
    assert plane.route_step() == 3
    assert got == [sent[0], sent[2]]
    assert counts(plane) == (3, 2, {"bad_frame": 1})
    with pytest.raises(DoubleFree):
        plane.stop()
    assert pool.free_count == pool.config.frame_count


def test_route_step_makes_few_python_calls_per_packet(registry, upstreams):
    """One step of a full burst through ``l3route`` and ``l2fwd`` runs each
    handler and egress once per burst: at most 4 Python-level calls per
    packet, the sink's included, counted with ``sys.setprofile``. Per
    descriptor it took about 12."""
    pool = registry.create(PoolConfig("rt-calls", 256, 2048))
    plane = build("packet", Mode.POLLING, pool, upstreams)
    got = []

    def sink(payload, desc):
        got.append(payload)

    plane.set_sink(sink)
    plane.start()
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    try:
        halt_stages(plane)
        for seq in range(BURST):
            assert plane.ingress(build_packet(64, seq, 1))
        sys.setprofile(count_calls)
        try:
            moved = plane.route_step()
        finally:
            sys.setprofile(None)
    finally:
        plane.stop()
    assert moved == 2 * BURST and len(got) == BURST
    assert calls <= 4 * BURST, f"{calls / BURST:.2f} calls per packet"


def test_router_batch_routes_each_source_in_its_order(registry, upstreams,
                                                      monkeypatch):
    """One router batch holds descriptors that left ingress and ``a``,
    interleaved: the router hands each source's descriptors to its next hop
    in their order, and the ledger holds one hop per successful send. The
    stages run by hand: start spawns no thread."""
    pool = registry.create(PoolConfig("rt-router-batch", 64, 2048))
    plane = build("packet", Mode.EVENT, pool, upstreams)
    plane.ledger = ledger = AuditLedger()
    monkeypatch.setattr(plane, "_spawn", lambda *args: None)
    plane.start()
    a, b = plane._regs["a"], plane._regs["b"]
    router = plane._router_ep
    try:
        for seq in range(6):
            assert plane.ingress(build_packet(64, seq, 1))
        plane._router_step(router.recv_batch(BATCH))  # traces 0-5 into a
        plane._nf_step_event(a, a.endpoint.recv_batch(3))  # 0-2 out of a
        for seq in range(6, 9):
            assert plane.ingress(build_packet(64, seq, 1))
        plane._nf_step_event(a, a.endpoint.recv_batch(3))  # 3-5 out of a
        batch = router.recv_batch(BATCH)
        assert [(d.src_fn, d.trace_id) for d in batch] == (
            [("a", t) for t in range(3)] + [(INGRESS_ID, t) for t in range(6, 9)]
            + [("a", t) for t in range(3, 6)])
        plane._router_step(batch)
        # read in place: stop drops what the inboxes hold as shutdown
        assert [d.trace_id for d in b.endpoint._inbox] == list(range(6))
        assert [d.trace_id for d in a.endpoint._inbox] == [6, 7, 8]
        hops = plane.stats()["event_hops"]
    finally:
        plane.stop()
    # traces 0-5: ingress, the router into a, a out, the router into b;
    # traces 6-8: ingress and the router into a
    assert hops == 6 * 4 + 3 * 2
    assert plane.stats()["drops"] == {"shutdown": 9}
    assert sum(ledger.trace_total(t).context_switches for t in range(9)) == hops
    assert pool.free_count == pool.config.frame_count


def test_burst_into_nearly_full_ring_drops_only_the_tail(registry, upstreams):
    """A step runs a burst of k + m through a toward b, whose RX ring has
    room for k: exactly k move on in order, the m behind them drop as
    ``ring_full`` with their frames freed, a deny filter set after start
    drops the next burst as ``filtered``, and after stop ingress = egress +
    drops with every frame back in the pool. Each step also sends a burst of
    b's out through egress, after a has run."""
    k, m, j = 5, 7, 3
    pool = registry.create(PoolConfig("rt-burst", 2048, 2048))
    plane = build("packet", Mode.POLLING, pool, upstreams)
    plane.start()
    halt_stages(plane)
    a_rx = plane._regs["a"].rx
    b_rx = plane._regs["b"].rx
    seq = iter(range(10_000))

    def offer(n):
        for _ in range(n):
            assert plane.ingress(build_packet(64, next(seq), 1))

    offer(b_rx.capacity - k)
    assert b_rx.enqueue_burst(a_rx.burst_dequeue(1024)) == b_rx.capacity - k
    offer(k + m)
    burst = a_rx.burst_dequeue(1024)  # what a's step will take, in order
    assert a_rx.enqueue_burst(burst) == len(burst) == k + m
    in_use = pool.in_flight_count
    assert plane.route_step() == k + BURST
    assert plane.stats()["drops"] == {"ring_full": m}
    assert plane.stats()["egress"] == BURST
    assert pool.in_flight_count == in_use - m - BURST
    on_b = b_rx.burst_dequeue(1024)
    assert [d.trace_id for d in on_b[-k:]] == [d.trace_id for d in burst[:k]]
    assert b_rx.enqueue_burst(on_b) == len(on_b)  # still in flight at stop

    plane.set_filter("a", "b", "deny")
    offer(j)
    assert plane.route_step() == BURST  # none of a's, a burst of b's
    assert plane.stats()["drops"] == {"ring_full": m, "filtered": j}
    plane.stop()
    ingress, egress, drops = counts(plane)
    assert ingress == b_rx.capacity - k + k + m + j
    assert egress == 2 * BURST
    assert drops == {"ring_full": m, "filtered": j,
                     "shutdown": b_rx.capacity - 2 * BURST}
    assert ingress == egress + sum(drops.values())
    assert pool.free_count == pool.config.frame_count
