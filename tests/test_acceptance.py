"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured evidence. Tolerances are pinned here, not tuned elsewhere.

Criteria:
 1. static cost tables reproduced exactly, in under a second
 2. instrumented runs match the tables on the modal trace, exactly
 3. payload bodies survive any chain untouched; mutations stay in declared ranges
 4. closed-form chain scaling matches both the tables and live event runs
 5. directional performance: transport latency ratio, loss-free rate ratio,
    idle CPU contrast, wakeup batching
 6. randomized ownership/transport stress, one million plus operations
 7. exhaustive filter grid on both filtering sites
 8. both planes coexist without changing each other's audits; aggregate
    throughput holds through a mid-run load step
 9. prime sieve against a trial-division oracle
"""

import itertools
import socket
import statistics
import time

import pytest

from httpclient import http_roundtrip
from stresslib import stress_event_channel, stress_pool_ownership, stress_ring_spsc

from shmchain.audit import AuditLedger, extrapolate, predict, verify
from shmchain.bench import (
    BODY_OFF,
    CollectorSink,
    PACKET_SIZES,
    PktgenConfig,
    StaticUpstream,
    build_packet,
    cpu_sample,
    cpu_total,
    packet_body_ok,
    pktgen_run,
    unified_run,
)
from shmchain.classifier import BifurcationRule, Dispatcher, PlaneTarget, RuleTable
from shmchain.descriptors import EGRESS, FlowKey
from shmchain.events import EventEndpoint
from shmchain.handlers import atkin_prime_count, atkin_sieve, make_l2_forwarder
from shmchain.packet_plane import Mode, PacketPlane
from shmchain.pool import PoolConfig, PoolRegistry
from shmchain.verify_runs import reference_chain, run_audit_traffic, run_packet_traffic

# pinned tolerances and bounds
GOLDEN_RUNTIME_S = 1.0
DYNAMIC_RUNTIME_S = 30.0
INTEGRITY_ITERATIONS = 10_000
INTEGRITY_RUNTIME_S = 60.0
LATENCY_RATIO_MIN = 5.0
MLFR_RATIO_MIN = 1.2
IDLE_EVENT_CPU_MAX = 0.05
IDLE_POLL_CPU_MIN = 0.80
WAKEUP_RATIO_MAX = 0.5
STRESS_MIN_OPS = 1_000_000
STRESS_RUNTIME_S = 120.0
COEXIST_AGGREGATE_TOL = 0.10

_uid = itertools.count()


def announce(criterion: str, message: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({message})", flush=True)


def fresh_prefix(tag: str) -> str:
    return f"acc-{tag}-{next(_uid)}"


def build_packet_plane(registry, mode, ledger=None, name="accpkt"):
    return reference_chain(registry, "packet", mode, 2, fresh_prefix(name),
                           ledger=ledger)


def build_proxy_plane(registry, mode, upstream_addrs, ledger=None, chain=2,
                      name="accpxy"):
    return reference_chain(registry, "proxy", mode, chain, fresh_prefix(name),
                           ledger=ledger, upstreams=upstream_addrs)


@pytest.fixture(scope="module")
def upstreams():
    stubs = [StaticUpstream(b"acceptance-upstream\n", f"u{i}") for i in range(2)]
    yield stubs
    for stub in stubs:
        stub.stop()


@pytest.fixture
def registry():
    reg = PoolRegistry()
    yield reg
    reg.clear()


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_golden_table_fidelity():
    from test_audit import GOLDEN_STEPS, GOLDEN_TOTALS, _PRINT_ORDER

    start = time.perf_counter()
    checked = 0
    for model_id, expected in GOLDEN_TOTALS.items():
        model = predict(model_id)
        for category, value in model.totals().as_dict().items():
            assert value == expected.get(category, 0), (model_id, category)
            checked += 1
    for (model_id, category), expected_steps in GOLDEN_STEPS.items():
        model = predict(model_id)
        got = tuple(model.steps[i].get(category) for i in _PRINT_ORDER)
        assert got == expected_steps, (model_id, category)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < GOLDEN_RUNTIME_S
    announce("criterion 1 golden tables",
             f"{checked} table cells exact in {elapsed * 1000:.0f}ms")


# -- criterion 2 -------------------------------------------------------------

@pytest.mark.parametrize("model,expect", [
    ("alpha", {"copies": 0, "interrupts": 0, "context_switches": 0}),
    ("beta", {"copies": 0, "interrupts": 4, "context_switches": 3}),
    ("gamma", {"copies": 4, "interrupts": 3, "context_switches": 2,
               "protocol_tasks": 2, "serde_tasks": 2}),
    ("delta", {"copies": 4, "interrupts": 5, "context_switches": 4,
               "protocol_tasks": 2, "serde_tasks": 2}),
])
def test_criterion_2_dynamic_audit(model, expect):
    start = time.perf_counter()
    ledger, chain_len = run_audit_traffic(model, packets=1000)
    report = verify(ledger, model, chain_len=chain_len)
    elapsed = time.perf_counter() - start
    assert report.passed, report.render_text()
    measured = {c.category: c.measured for c in report.checks}
    for category, value in expect.items():
        assert measured[category] == value, (category, measured)
    assert elapsed < DYNAMIC_RUNTIME_S, f"{model} took {elapsed:.1f}s"
    announce(f"criterion 2 dynamic audit [{model}]",
             f"1000 traces, modal totals {measured} in {elapsed:.1f}s")


# -- criterion 3 -------------------------------------------------------------

def _integrity_run(registry, mode, iterations, rng_seed):
    import random

    rng = random.Random(rng_seed)
    received = {}
    lock_free_sink_items = []

    def sink(payload, desc):
        lock_free_sink_items.append(bytes(payload))

    pool, plane = build_packet_plane(registry, mode, name=f"integ-{mode.value}")
    plane.set_sink(sink)
    plane.start()
    sent = {}
    try:
        for i in range(iterations):
            size = rng.choice(PACKET_SIZES[:5])
            pkt = build_packet(size, i, rng_seed, ts=0)
            sent[i] = pkt
            while not plane.ingress(pkt):
                time.sleep(0.001)
        deadline = time.time() + 30
        while plane.egress_count + sum(plane.drops.values()) < iterations:
            assert time.time() < deadline, plane.stats()
            time.sleep(0.01)
    finally:
        plane.stop()
    assert sum(plane.drops.values()) == 0, plane.stats()
    # handler-declared mutation ranges for this chain
    mutated = [(0, 6), (30, 34)]
    for payload in lock_free_sink_items:
        seq = int.from_bytes(payload[34:42], "big")
        original = sent[seq]
        assert packet_body_ok(payload), f"body checksum broke on seq {seq}"
        assert payload[30:34] == bytes([10, 0, 1, 5])
        assert payload[0:6] == bytes.fromhex("020000000002")
        last = 0
        for lo, hi in mutated:
            assert payload[last:lo] == original[last:lo], f"seq {seq} [{last}:{lo}]"
            last = hi
        assert payload[last:] == original[last:], f"seq {seq} tail"
    return len(lock_free_sink_items)


def test_criterion_3_zero_copy_integrity(registry):
    start = time.perf_counter()
    n_poll = _integrity_run(registry, Mode.POLLING, INTEGRITY_ITERATIONS, 42)
    n_event = _integrity_run(registry, Mode.EVENT, 1000, 43)
    elapsed = time.perf_counter() - start
    assert n_poll == INTEGRITY_ITERATIONS
    assert n_event == 1000
    assert elapsed < INTEGRITY_RUNTIME_S
    announce("criterion 3 zero-copy integrity",
             f"{n_poll + n_event} packets, bodies intact, mutations confined, "
             f"{elapsed:.1f}s")


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_scaling_law(upstreams):
    for n in range(1, 17):
        for model in ("gamma", "delta"):
            totals = extrapolate(model, n)
            assert totals.protocol_tasks == 2
            assert totals.serde_tasks == 2
    copies = [extrapolate("d", n).copies for n in range(1, 17)]
    assert all(b > a for a, b in zip(copies, copies[1:]))

    measured = {}
    for n in (2, 4, 8):
        ledger, _ = run_audit_traffic("delta", packets=150, chain_len=n)
        report = verify(ledger, "delta", chain_len=n)
        assert report.passed, report.render_text()
        ints = {c.category: c.measured for c in report.checks}["interrupts"]
        assert ints == 3 + n == extrapolate("delta", n).interrupts
        measured[n] = ints
    announce("criterion 4 scaling law",
             f"protocol=serde=2 for N in [1,16]; live event-chain interrupts "
             f"{measured} match 3+N exactly")


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5a_transport_latency_ratio():
    from shmchain.probes import event_hop_probe, ring_hop_probe

    ring = ring_hop_probe(700)
    event = event_hop_probe(700)
    ratio = event.median_us / ring.median_us
    assert ratio >= LATENCY_RATIO_MIN, (ring, event)
    announce("criterion 5a latency ratio",
             f"ring {ring.median_us:.2f}us vs event {event.median_us:.2f}us "
             f"median, ratio {ratio:.1f}x >= {LATENCY_RATIO_MIN}")


def _mlfr_for_mode(mode: Mode, ceiling: float) -> float:
    from shmchain.bench import mlfr_search

    def run(rate, duration):
        registry = PoolRegistry()
        try:
            pool, plane = build_packet_plane(registry, mode,
                                             name=f"mlfr-{mode.value}")
            collector = CollectorSink()
            plane.set_sink(collector)
            plane.start()
            try:
                return pktgen_run(PktgenConfig(64, rate, duration), plane,
                                  collector=collector, settle=1.0)
            finally:
                plane.stop()
        finally:
            registry.clear()

    return mlfr_search(run, 64, tolerance=0.15, rate_floor=200,
                       rate_ceiling=ceiling, probe_duration=0.5)


def test_criterion_5b_mlfr_polling_vs_event():
    polling = _mlfr_for_mode(Mode.POLLING, ceiling=120_000)
    event = _mlfr_for_mode(Mode.EVENT, ceiling=40_000)
    ratio = polling / event
    assert ratio >= MLFR_RATIO_MIN, (polling, event)
    announce("criterion 5b MLFR ratio",
             f"polling {polling:.0f} pps vs event {event:.0f} pps at 64B, "
             f"ratio {ratio:.2f}x >= {MLFR_RATIO_MIN}")


def test_criterion_5c_idle_cpu_contrast(registry, upstreams):
    addrs = [s.address for s in upstreams]
    _pool, event_plane = build_proxy_plane(registry, Mode.EVENT, addrs,
                                           name="idle-ev")
    event_plane.start()
    try:
        time.sleep(0.3)
        event_cpu = cpu_total(cpu_sample(event_plane.thread_ids(),
                                         interval=0.15, duration=1.2))
    finally:
        event_plane.close()
    _pool, poll_plane = build_proxy_plane(registry, Mode.POLLING, addrs,
                                          name="idle-po")
    poll_plane.start()
    try:
        time.sleep(0.3)
        poll_cpu = cpu_total(cpu_sample(poll_plane.thread_ids(),
                                        interval=0.15, duration=1.2))
    finally:
        poll_plane.close()
    assert event_cpu < IDLE_EVENT_CPU_MAX, f"event idle {event_cpu:.3f} cores"
    assert poll_cpu >= IDLE_POLL_CPU_MIN, f"polling idle {poll_cpu:.3f} cores"
    announce("criterion 5c idle CPU",
             f"event {event_cpu * 100:.1f}% vs polling {poll_cpu * 100:.0f}% "
             f"of a core at zero load")


def test_criterion_5d_adaptive_batching():
    endpoint = EventEndpoint("rx", capacity=4096)
    total = 60_000
    import threading

    class D:
        __slots__ = ("trace_id", "frame")

        def __init__(self, i):
            self.trace_id = i
            self.frame = None

    drained = [0]

    def receiver():
        while drained[0] < total:
            drained[0] += len(endpoint.recv_batch(32))

    thread = threading.Thread(target=receiver, daemon=True)
    thread.start()
    from shmchain.errors import InboxFull

    for i in range(total):
        while True:
            try:
                endpoint.deliver(D(i))
                break
            except InboxFull:
                time.sleep(0.0002)
    thread.join(timeout=60)
    assert drained[0] == total
    ratio = endpoint.wakeups / endpoint.delivered
    assert ratio < WAKEUP_RATIO_MAX, f"wakeups/messages {ratio:.3f}"
    announce("criterion 5d adaptive batching",
             f"{endpoint.wakeups} wakeups for {total} messages "
             f"(ratio {ratio:.3f} < {WAKEUP_RATIO_MAX}, max_batch 32)")


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_ownership_and_transport_safety():
    start = time.perf_counter()
    ring_stats = stress_ring_spsc(300_000)
    event_stats = stress_event_channel(100_000, senders=2)
    pool_stats = stress_pool_ownership(n_threads=8, cycles_per_thread=25_000)
    elapsed = time.perf_counter() - start
    total_ops = ring_stats["ops"] + event_stats["ops"] + pool_stats["ops"]
    assert total_ops >= STRESS_MIN_OPS
    assert elapsed < STRESS_RUNTIME_S
    announce("criterion 6 safety stress",
             f"{total_ops} ops across ring/event/pool suites, zero violations, "
             f"{elapsed:.1f}s")


# -- criterion 7 -------------------------------------------------------------

def _grid_configs():
    for bits in range(8):
        yield {edge: ("allow" if bits & (1 << i) else "deny")
               for i, edge in enumerate(("e0", "e1", "e2"))}


def test_criterion_7_filter_grid_packet_plane(registry):
    pool = registry.create(PoolConfig(fresh_prefix("grid-pkt"), 512, 2048))
    plane = PacketPlane(pool, Mode.POLLING, name="grid")
    regs = {}
    for fn in ("A", "B", "C"):
        regs[fn] = plane.register(fn, make_l2_forwarder())
    plane.set_entry("A")
    plane.set_route("A", "B")
    plane.set_route("B", "C")
    plane.set_route("C", EGRESS)
    delivered = []
    plane.set_sink(lambda p, d: delivered.append(1))
    plane.start()
    k = 8
    edges = [("A", "B"), ("B", "C"), ("C", EGRESS)]
    try:
        for config in _grid_configs():
            for (src, dst), key in zip(edges, ("e0", "e1", "e2")):
                plane.set_filter(src, dst, config[key])
            before = {fn: regs[fn].context.processed for fn in regs}
            egress_before = len(delivered)
            drops_before = sum(plane.drops.values())
            for i in range(k):
                assert plane.ingress(build_packet(64, i, 1))
            deadline = time.time() + 10
            while (regs["A"].context.processed - before["A"]) < k:
                assert time.time() < deadline
                time.sleep(0.002)
            # wait until every packet is accounted for, then settle
            while (len(delivered) - egress_before
                   + sum(plane.drops.values()) - drops_before) < k:
                assert time.time() < deadline
                time.sleep(0.002)
            time.sleep(0.05)
            reach_b = k if config["e0"] == "allow" else 0
            reach_c = reach_b if config["e1"] == "allow" else 0
            reach_out = reach_c if config["e2"] == "allow" else 0
            assert regs["B"].context.processed - before["B"] == reach_b, config
            assert regs["C"].context.processed - before["C"] == reach_c, config
            assert len(delivered) - egress_before == reach_out, config
    finally:
        plane.stop()
    assert pool.free_count == pool.config.frame_count
    announce("criterion 7 filter grid (packet plane)",
             f"8 rule configurations x {k} packets: denied edges delivered 0, "
             "allowed edges delivered 100%")


def test_criterion_7_filter_grid_proxy_event_site(registry, upstreams):
    addrs = [s.address for s in upstreams]
    pool, plane = build_proxy_plane(registry, Mode.EVENT, addrs, chain=3,
                                    name="grid-pxy")
    regs = plane._regs
    names = list(regs)
    edges = [(names[0], names[1]), (names[1], names[2]), (names[2], EGRESS)]
    plane.start()
    k = 5
    try:
        for config in _grid_configs():
            for (src, dst), key in zip(edges, ("e0", "e1", "e2")):
                plane.set_filter(src, dst, config[key])
            before = {fn: regs[fn].context.processed for fn in regs}
            egress_before = plane.egress_count
            drops_before = sum(plane.drops.values())
            socks = []
            from shmchain.http11 import serialize_request

            for i in range(k):
                sock = socket.create_connection(plane.listen_address, timeout=5)
                sock.sendall(serialize_request("GET", f"/old/{i}",
                                               [("Host", "g")], b""))
                socks.append(sock)
            deadline = time.time() + 10
            while (regs[names[0]].context.processed - before[names[0]]) < k:
                assert time.time() < deadline
                time.sleep(0.002)
            while (plane.egress_count - egress_before
                   + sum(plane.drops.values()) - drops_before) < k:
                assert time.time() < deadline
                time.sleep(0.002)
            time.sleep(0.05)
            reach = {names[0]: k}
            reach[names[1]] = k if config["e0"] == "allow" else 0
            reach[names[2]] = reach[names[1]] if config["e1"] == "allow" else 0
            egressed = reach[names[2]] if config["e2"] == "allow" else 0
            for fn in (names[1], names[2]):
                assert regs[fn].context.processed - before[fn] == reach[fn], config
            assert plane.egress_count - egress_before == egressed, config
            for sock in socks:
                sock.close()
    finally:
        plane.close()
    assert pool.free_count == pool.config.frame_count
    announce("criterion 7 filter grid (proxy event site)",
             f"8 rule configurations x {k} requests filtered identically by "
             "the event-mode route step")


# -- criterion 8 -------------------------------------------------------------

def _sustained_capacity(plane) -> float:
    """Highest rate the running plane holds loss-free over a 1.2 s window."""
    from shmchain.bench import mlfr_search

    def run(rate, duration):
        collector = CollectorSink()
        plane.set_sink(collector)
        return pktgen_run(PktgenConfig(128, rate, duration), plane,
                          collector=collector, settle=1.5)

    return mlfr_search(run, 128, tolerance=0.12, rate_floor=500,
                       rate_ceiling=90_000, probe_duration=1.2)


def test_criterion_8_unified_coexistence(registry, upstreams):
    addrs = [s.address for s in upstreams]
    pkt_ledger = AuditLedger()
    pxy_ledger = AuditLedger()
    _pool_pkt, packet = build_packet_plane(registry, Mode.POLLING, pkt_ledger,
                                           name="uni-pkt")
    pool_pxy, proxy = build_proxy_plane(registry, Mode.EVENT, addrs,
                                        pxy_ledger, name="uni-pxy")
    rules = RuleTable()
    rules.add_rule(BifurcationRule(10, PlaneTarget.L2L3, protocol="UDP"))
    rules.add_rule(BifurcationRule(20, PlaneTarget.L4L7, protocol="TCP"))
    dispatcher = Dispatcher(rules, packet, proxy)
    collector = CollectorSink()
    packet.set_sink(collector)
    packet.start()
    proxy.start()
    try:
        udp_flow = FlowKey("10.0.0.1", "10.0.0.5", 5000, 5001, "UDP")
        tcp_flow = FlowKey("10.0.0.9", proxy.listen_address[0], 40000,
                           proxy.listen_address[1], "TCP")
        assert rules.classify(udp_flow) is PlaneTarget.L2L3
        assert rules.classify(tcp_flow) is PlaneTarget.L4L7

        # solo phases: each plane alone, audits must match its model
        pxy_free_before = pool_pxy.free_count
        run_packet_traffic(packet, 300)
        assert pool_pxy.free_count == pxy_free_before  # plane isolation
        solo_pkt_ids = set(pkt_ledger.completed_ids("egress"))
        assert verify(pkt_ledger, "alpha", trace_ids=solo_pkt_ids).passed
        for i in range(150):
            status, _b, _r = http_roundtrip(proxy, "GET", f"/old/{i}")
            assert status == 200
        solo_pxy_ids = set(pxy_ledger.completed_ids("egress"))
        assert verify(pxy_ledger, "delta", trace_ids=solo_pxy_ids).passed

        # unified phase: both loads at once through the classifier
        import threading

        stop = threading.Event()

        def http_churn():
            while not stop.is_set():
                try:
                    http_roundtrip(proxy, "GET", "/old/u", timeout=5)
                except OSError:
                    time.sleep(0.01)

        churn = threading.Thread(target=http_churn, daemon=True)
        churn.start()
        shim = type("Shim", (), {
            "ingress": staticmethod(
                lambda payload, flow: dispatcher.dispatch_packet(payload, flow)),
            "running": True})()
        pktgen_run(PktgenConfig(128, 4000, 2.0), shim, flow=udp_flow,
                   collector=collector, settle=1.0)
        stop.set()
        churn.join(timeout=10)
        uni_pkt_ids = set(pkt_ledger.completed_ids("egress")) - solo_pkt_ids
        uni_pxy_ids = set(pxy_ledger.completed_ids("egress")) - solo_pxy_ids
        assert uni_pkt_ids and uni_pxy_ids
        assert verify(pkt_ledger, "alpha", trace_ids=uni_pkt_ids).passed
        assert verify(pxy_ledger, "delta", trace_ids=uni_pxy_ids).passed

        # step-response run: 30 s, HTTP load starting at t=10 s, packet side
        # offered at a healthy fraction of the sustained loss-free rate and
        # the HTTP side paced to a small share, matching the original
        # experiment's proportions. The audit phases above are complete, so
        # the throughput phase runs unledgered (a megapacket of completion
        # records is pure measurement drag).
        packet.ledger = None
        proxy.ledger = None
        capacity = _sustained_capacity(packet)
        rate = capacity * 0.7
        collector2 = CollectorSink()
        packet.set_sink(collector2)
        report = unified_run(shim, collector2, proxy.listen_address,
                             l2l3_rate=rate, http_concurrency=2,
                             duration=30.0, step_at=10.0)
    finally:
        packet.stop()
        proxy.close()

    plateau = statistics.median(report.l2l3_bytes_per_s[3:9])
    post_aggregate = statistics.median(report.aggregate_per_s[13:29])
    post_l2l3 = statistics.median(report.l2l3_bytes_per_s[13:29])
    post_l4l7 = statistics.median(report.l4l7_bytes_per_s[13:29])
    assert post_l4l7 > 0, "HTTP load never started"
    assert post_l2l3 <= plateau * 1.05, (post_l2l3, plateau)
    deviation = abs(post_aggregate - plateau) / plateau
    assert deviation <= COEXIST_AGGREGATE_TOL, (
        f"aggregate {post_aggregate:.0f} vs plateau {plateau:.0f} "
        f"({deviation * 100:.1f}%)")
    announce("criterion 8 unified coexistence",
             f"solo and unified audits identical; plateau {plateau / 1e6:.2f} MB/s, "
             f"post-step aggregate within {deviation * 100:.1f}% "
             f"(l2l3 {post_l2l3 / 1e6:.2f} + l4l7 {post_l4l7 / 1e6:.3f} MB/s)")


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_sieve_against_oracle():
    flags = atkin_sieve(5000)
    count = 0
    for n in range(2, 5001):
        d = 2
        is_prime = True
        while d * d <= n:
            if n % d == 0:
                is_prime = False
                break
            d += 1
        count += is_prime
        assert flags[n] == (1 if is_prime else 0), n
    assert atkin_prime_count(10000) == 1229
    announce("criterion 9 sieve correctness",
             "all n <= 5000 match trial division; count(10000) == 1229")
