"""The chain runtime under both planes and both modes: a refused hop drops
each descriptor exactly once, wherever the chain refuses it, a descriptor
still in flight at stop is counted as a shutdown drop, every frame comes
back to the pool at stop, no plane runs more threads than its stages
need, and a plane runs on one CPU with the thread that started it."""

import functools
import json
import os
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from httpclient import http_roundtrip
from steplib import halt_stages, python_calls

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
# that runs the chain; in event mode one per function, each routing its own
# survivors, and packet TX; and the broker's io in both modes
THREADS = {
    ("packet", Mode.POLLING): {"worker"},
    ("packet", Mode.EVENT): {"nf.a", "nf.b", "tx"},
    ("proxy", Mode.POLLING): {"worker", "io"},
    ("proxy", Mode.EVENT): {"mf.a", "mf.b", "io"},
}


@pytest.fixture(scope="module")
def upstreams():
    stubs = [StaticUpstream(b"runtime\n", f"u{i}") for i in range(2)]
    yield stubs
    for stub in stubs:
        stub.stop()


def slowed(handler, delay):
    """``handler`` taking ``delay`` seconds per descriptor."""
    def slow(ctx, batch):
        time.sleep(delay * len(batch))
        return handler(ctx, batch)
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
    return plane.ingress_count, plane.egress_count, dict(plane.drops)


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
            # ingress routes, so it sees its own refusal
            early = refused and where == "ingress"
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
            while plane.ingress_count < offered:
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
    freed, live = pool.try_alloc_frame(), pool.try_alloc_frame()
    pool.free_frame(freed)
    rx = plane._regs["b"].rx
    for seq, ref in enumerate((freed, live)):
        assert rx.enqueue(PacketDescriptor(ref, 64, seq))
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
        status, _body, _raw = http_roundtrip(plane, "GET", "/old/0",
                                             [("Host", "rt")])
        assert status == 503
        assert plane.stats()["drops"] == {"shutdown": 1}
        assert pool.free_count == pool.config.frame_count
    finally:
        plane.close()
    assert ledger.completed_ids("drop") == [0]
    # one hop was made, ingest into a; the second, a into b, was refused
    total = ledger.trace_total(0)
    assert total.interrupts == INGEST_COST.interrupts + 1
    assert total.context_switches == INGEST_COST.context_switches + 1


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
            status, _body, _raw = http_roundtrip(plane, "GET", f"/old/{i}",
                                                 [("Host", "rt")])
            assert status == 200
    finally:
        plane.close()
    stats = plane.stats()
    if mode is Mode.POLLING:
        assert stats["event_hops"] == stats["event_wakeups"] == 0
    else:
        # ingest into a and a into b; b egresses on its own thread
        assert stats["event_hops"] == 2 * n
        assert 1 <= stats["event_wakeups"] <= stats["event_hops"]


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


def test_a_burst_of_one_pays_a_bounded_fixed_cost(registry, upstreams):
    """A one-packet polling ingress makes at most 6 Python calls, and the
    one-packet step that carries it through both functions and out at most
    22: the step itself, per function the ring dequeue, the handler run, the
    handler, its ``frame_views``, the route step, its next-hop lookup and
    filter check, then the ring hop, and at egress ``_egress``,
    ``_transmit``, its ``frame_views``, the sink, ``_free`` and
    ``free_frames``. So fixed cost added to either cannot go unnoticed."""
    pool = registry.create(PoolConfig("rt-fixed-cost", 64, 2048))
    plane = build("packet", Mode.POLLING, pool, upstreams)
    plane.start()
    try:
        halt_stages(plane)
        packet = build_packet(64, 0, 1)
        assert python_calls(functools.partial(plane.ingress, packet)) <= 6
        assert python_calls(plane.route_step) <= 22
    finally:
        plane.stop()
    assert plane.stats()["egress"] == 1
    assert pool.free_count == pool.config.frame_count


def test_step_cost_tool_reports_every_figure():
    """``tools/step_cost.py``, whose figures the docs cite, runs from the
    repository root and prints a positive figure under every key, with no
    more calls than the guard above allows."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "tools/step_cost.py"], cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    figures = ("step_one_us", "step_per_packet_64_us", "step_empty_us",
               "ingress_one_us", "step_one_calls", "ingress_one_calls",
               "step_one_opcodes", "ingress_one_opcodes")
    tables = ("step_one_opcodes_by_function", "ingress_one_opcodes_by_function")
    assert sorted(result) == sorted(figures + tables)
    for key in figures:
        assert result[key] > 0, key
    for key in tables:
        assert result[key] and min(result[key].values()) > 0, key
    assert result["step_one_calls"] <= 22 and result["ingress_one_calls"] <= 6


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
    the chain's back, and its drop frees that frame through the pool's
    checks instead of posting it on the fill ring: the free meets the
    DoubleFree, the other two packets go out, later ingress takes good
    frames until the pool runs dry, and stop raises the DoubleFree with
    every frame back in the pool. The stages run by hand."""
    pool = registry.create(PoolConfig("rt-bad-event", 16, 2048))
    plane = build("packet", Mode.EVENT, pool, upstreams)
    got = []
    plane.set_sink(lambda payload, desc: got.append(bytes(payload)))
    monkeypatch.setattr(plane, "_spawn", lambda *args: None)
    plane.start()
    a, b = plane._regs["a"], plane._regs["b"]
    sent = [build_packet(64, seq, 1) for seq in range(3)]
    for packet in sent:
        assert plane.ingress(packet)
    batch = a.endpoint.recv_batch(BATCH)
    pool.free_frame(batch[1].frame)
    plane._nf_step_event(a, batch)
    plane._nf_step_event(b, b.endpoint.recv_batch(BATCH))
    plane._transmit_event(plane._tx_ep.recv_batch(BATCH))
    assert got == [rewritten(sent[0]), rewritten(sent[2])]
    # the first ingress posted all 16 frames: 13 are left on the fill ring,
    # 2 on the completion ring, and the bad one is back in the pool, where
    # the refill takes it once the fill ring runs dry
    offered = [plane.ingress(build_packet(64, seq, 1)) for seq in range(3, 20)]
    assert offered == [True] * 16 + [False]
    with pytest.raises(DoubleFree):
        plane.stop()
    assert counts(plane) == (20, 2, {"handler": 1, "pool_exhausted": 1,
                                     "shutdown": 16})
    assert pool.free_count == pool.config.frame_count


def test_bad_frame_at_egress_drops_alone(registry):
    """A function that never reads its frames hands egress a burst whose
    middle frame was freed behind the chain's back: egress sends the other
    two, drops that one as ``bad_frame`` without reading it, and stop raises
    the DoubleFree its free met, with every frame back in the pool."""
    pool = registry.create(PoolConfig("rt-bad-egress", 64, 2048))
    plane = PacketPlane(pool, Mode.POLLING, name="rt")
    plane.register("a", lambda ctx, batch: list(batch))
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


def traced(fn, calls):
    """A pass-through wrapper shaped like a tracer's: no attributes of its
    own. Counts its calls per wrapped function in ``calls``."""
    def wrapper(*args, **kwargs):
        calls[fn.kind] += 1
        return fn(*args, **kwargs)
    return wrapper


def calls_in_one_step(registry, upstreams, name, wrap):
    """Python-level calls, the sink's included, counted with
    ``sys.setprofile``, that one polling step makes to run a full burst
    through the packet chain of ``build``, each handler wrapped in
    ``wrap``."""
    pool = registry.create(PoolConfig(name, 256, 2048))
    plane = build("packet", Mode.POLLING, pool, upstreams)
    for reg in plane._regs.values():
        reg.handler = wrap(reg.handler)
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
    return calls


def test_route_step_makes_few_python_calls_per_packet(registry, upstreams):
    """One step of a full burst through ``l3route`` and ``l2fwd`` runs each
    handler and egress once per burst: at most 4 Python-level calls per
    packet, the sink's included. Per descriptor it took about 12. Handlers
    wrapped as a tracer wraps them take the same path: one wrapper call per
    function per step."""
    wrapper_calls = Counter()
    for name, wrap in (("plain", lambda fn: fn),
                       ("wrapped", lambda fn: traced(fn, wrapper_calls))):
        calls = calls_in_one_step(registry, upstreams, f"rt-calls-{name}", wrap)
        assert calls <= 4 * BURST, f"{name}: {calls / BURST:.2f} calls per packet"
    assert wrapper_calls == {"l3route": 1, "l2fwd": 1}


def test_polling_ingress_makes_few_python_calls_per_packet(registry, upstreams):
    """A burst of polling ingresses makes at most 6 Python-level calls per
    packet: ``ingress``, the fused ``try_alloc_frame``, the descriptor's
    ``__init__``, ``_enter``, its one filter check and one ring enqueue. It
    made 8 when the write and the route were calls of their own. Every
    packet lands on the entry function's RX ring, written at the start of
    its frame."""
    pool = registry.create(PoolConfig("rt-ingress-calls", 256, 2048))
    plane = build("packet", Mode.POLLING, pool, upstreams)
    plane.start()
    packets = [build_packet(64, seq, 1) for seq in range(BURST)]
    accepted = []
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    try:
        halt_stages(plane)
        ingress = plane.ingress
        sys.setprofile(count_calls)
        try:
            for packet in packets:
                accepted.append(ingress(packet))
        finally:
            sys.setprofile(None)
        queued = plane._regs["a"].rx.burst_dequeue(BURST)
        assert [bytes(view) for view in pool.frame_views(queued)] == packets
        assert all(desc.chain_hops == 1 for desc in queued)
        assert plane._regs["a"].rx.enqueue_burst(queued) == BURST
    finally:
        plane.stop()
    assert all(accepted)
    assert calls <= 6 * BURST, f"{calls / BURST:.2f} calls per packet"
    assert pool.free_count == pool.config.frame_count


def test_event_stage_sends_its_survivors_straight_on(registry, upstreams,
                                                     monkeypatch):
    """Ingress sends each packet straight into the entry function's inbox,
    and a stage's step sends its survivors straight into the next one's, in
    their order, with no thread between them; the ledger holds one hop per
    successful send. The stages run by hand: start spawns no thread."""
    pool = registry.create(PoolConfig("rt-direct-send", 64, 2048))
    plane = build("packet", Mode.EVENT, pool, upstreams)
    plane.ledger = ledger = AuditLedger()
    monkeypatch.setattr(plane, "_spawn", lambda *args: None)
    plane.start()
    a, b = plane._regs["a"], plane._regs["b"]
    try:
        for seq in range(6):
            assert plane.ingress(build_packet(64, seq, 1))
        # read in place: stop drops what the inboxes hold as shutdown
        assert [d.trace_id for d in a.endpoint._inbox] == list(range(6))
        plane._nf_step_event(a, a.endpoint.recv_batch(3))  # 0-2 out of a
        assert [d.trace_id for d in b.endpoint._inbox] == [0, 1, 2]
        for seq in range(6, 9):
            assert plane.ingress(build_packet(64, seq, 1))
        assert [d.trace_id for d in a.endpoint._inbox] == list(range(3, 9))
        plane._nf_step_event(a, a.endpoint.recv_batch(3))  # 3-5 out of a
        assert [d.trace_id for d in b.endpoint._inbox] == list(range(6))
        assert [d.trace_id for d in a.endpoint._inbox] == [6, 7, 8]
        hops = plane.stats()["event_hops"]
    finally:
        plane.stop()
    # traces 0-5: ingress into a and a into b; traces 6-8: ingress into a
    assert hops == 6 * 2 + 3 * 1
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
    free = pool.free_count
    assert plane.route_step() == k + BURST
    assert plane.stats()["drops"] == {"ring_full": m}
    assert plane.stats()["egress"] == BURST
    assert pool.free_count == free + m + BURST
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


# -- placement -------------------------------------------------------------------


@pytest.fixture
def caller_cpus():
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("the caller's CPU set holds one CPU: there is nothing to place")
    return cpus


def shut(plane):
    if isinstance(plane, ProxyPlane):
        plane.close()
    else:
        plane.stop()


def assert_placed(plane, cpus):
    """The caller and every thread of ``plane`` share one CPU of ``cpus``."""
    placed = os.sched_getaffinity(0)
    assert len(placed) == 1 and placed < cpus
    for label, tid in plane.thread_ids().items():
        assert os.sched_getaffinity(tid) == placed, label


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
@pytest.mark.parametrize("kind", ["packet", "proxy"])
def test_plane_runs_on_one_cpu_with_its_caller(registry, upstreams,
                                               caller_cpus, kind, mode):
    pool = registry.create(PoolConfig(f"rt-place-{kind}-{mode.value}", 64, 2048))
    plane = build(kind, mode, pool, upstreams)
    plane.start()
    try:
        assert_placed(plane, caller_cpus)
    finally:
        shut(plane)
    assert os.sched_getaffinity(0) == caller_cpus


@pytest.mark.parametrize("reverse", [False, True], ids=["in_order", "reversed"])
@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
@pytest.mark.parametrize("kind", ["packet", "proxy"])
def test_two_planes_give_their_starter_its_whole_set_back(
        registry, upstreams, caller_cpus, kind, mode, reverse):
    planes = [build(kind, mode, registry.create(PoolConfig(
        f"rt-two-{kind}-{mode.value}-{reverse}-{i}", 64, 2048)), upstreams)
        for i in range(2)]
    for plane in planes:
        plane.start()
    try:
        for plane in planes:
            assert_placed(plane, caller_cpus)
    finally:
        for plane in reversed(planes) if reverse else planes:
            shut(plane)
    assert os.sched_getaffinity(0) == caller_cpus


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
@pytest.mark.parametrize("kind", ["packet", "proxy"])
def test_stop_on_another_thread_gives_the_starter_its_set_back(
        registry, upstreams, caller_cpus, kind, mode):
    pool = registry.create(PoolConfig(f"rt-other-{kind}-{mode.value}", 64, 2048))
    plane = build(kind, mode, pool, upstreams)
    plane.start()
    try:
        stopper = threading.Thread(target=shut, args=(plane,))
        stopper.start()
        stopper.join(timeout=10)
        assert not stopper.is_alive() and not plane.running
    finally:
        shut(plane)
    assert os.sched_getaffinity(0) == caller_cpus


def test_stop_leaves_a_set_the_caller_changed_meanwhile(registry, upstreams,
                                                        caller_cpus):
    pool = registry.create(PoolConfig("rt-changed", 64, 2048))
    plane = build("packet", Mode.POLLING, pool, upstreams)
    plane.start()
    try:
        chosen = {min(caller_cpus)}
        os.sched_setaffinity(0, chosen)
        plane.stop()
        assert os.sched_getaffinity(0) == chosen
    finally:
        plane.stop()
        os.sched_setaffinity(0, caller_cpus)


def test_stop_gives_the_set_back_and_raises_the_kept_fault(registry, upstreams,
                                                           caller_cpus):
    """The scenario of ``test_bad_frame_drops_alone_and_stop_raises_its_fault``:
    stop raises the DoubleFree it kept, and the caller has its set back."""
    pool = registry.create(PoolConfig("rt-place-fault", 64, 2048))
    plane = build("packet", Mode.POLLING, pool, upstreams)
    plane.set_sink(lambda payload, desc: None)
    plane.start()
    halt_stages(plane)
    for seq in range(3):
        assert plane.ingress(build_packet(64, seq, 1))
    a_rx = plane._regs["a"].rx
    burst = a_rx.burst_dequeue(BURST)
    pool.free_frame(burst[1].frame)
    assert a_rx.enqueue_burst(burst) == 3
    plane.route_step()
    with pytest.raises(DoubleFree):
        plane.stop()
    assert os.sched_getaffinity(0) == caller_cpus


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_start_on_a_taken_port_leaves_the_set_as_it_was(registry, upstreams,
                                                        mode):
    """A ``start`` that raises leaves the plane stopped, with no thread and
    the caller's set as it was, so a second ``start`` fails the same way."""
    cpus = os.sched_getaffinity(0)
    taken = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    taken.bind(("127.0.0.1", 0))
    taken.listen(1)
    pool = registry.create(PoolConfig(f"rt-taken-{mode.value}", 64, 2048))
    plane = ProxyPlane(pool, BrokerConfig(listen=taken.getsockname(),
                                          upstreams=[s.address for s in upstreams],
                                          mode=mode), name="rt")
    plane.register("a", make_reverse_proxy(len(upstreams)))
    plane.set_entry("a")
    plane.set_route("a", EGRESS)
    threads = threading.active_count()
    try:
        for _attempt in range(2):
            with pytest.raises(OSError):
                plane.start()
            assert os.sched_getaffinity(0) == cpus
            assert not plane.running
            assert plane.thread_ids() == {} and plane._endpoints == []
            assert threading.active_count() == threads
    finally:
        plane.close()
        taken.close()
