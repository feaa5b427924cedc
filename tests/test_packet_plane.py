import time
import zlib

import pytest

from shmchain.audit import AuditLedger, verify
from shmchain.descriptors import EGRESS
from shmchain.errors import (
    CycleDetected,
    DuplicateFunction,
    ModeChangeAfterStart,
    PlaneFrozen,
    UnknownFunction,
)
from shmchain.handlers import make_l2_forwarder, make_l3_router
from shmchain.packet_plane import Mode, PacketPlane
from shmchain.bench import BODY_OFF, build_packet, packet_body_ok


class ListSink:
    def __init__(self):
        self.items = []

    def __call__(self, payload, desc):
        self.items.append((bytes(payload), desc.trace_id))


def two_nf_plane(pool, mode, ledger=None):
    plane = PacketPlane(pool, mode, ledger, name="t")
    plane.register_nf("r1", make_l3_router({"10.0.0.5": "10.0.1.5"}))
    plane.register_nf("f1", make_l2_forwarder())
    plane.set_entry("r1")
    plane.set_route("r1", "f1")
    plane.set_route("f1", EGRESS)
    return plane


def run_n(plane, n, size=64):
    sent = 0
    for seq in range(n):
        pkt = build_packet(size, seq, 5)
        while not plane.ingress(pkt):
            time.sleep(0.001)
        sent += 1
    deadline = time.time() + 15
    while plane.egress_count + sum(plane.drops.values()) < sent:
        assert time.time() < deadline, plane.stats()
        time.sleep(0.005)


def test_route_cycle_detected(big_pool):
    plane = two_nf_plane(big_pool, Mode.POLLING)
    with pytest.raises(CycleDetected):
        plane.set_route("f1", "r1")


def test_route_unknown_function(big_pool):
    plane = PacketPlane(big_pool, Mode.POLLING)
    plane.register_nf("a", make_l2_forwarder())
    with pytest.raises(UnknownFunction):
        plane.set_route("a", "nf9")
    with pytest.raises(UnknownFunction):
        plane.set_route("nf9", "a")


def test_duplicate_nf(big_pool):
    plane = PacketPlane(big_pool, Mode.POLLING)
    plane.register_nf("a", make_l2_forwarder())
    with pytest.raises(DuplicateFunction):
        plane.register_nf("a", make_l2_forwarder())


def test_frozen_after_start(big_pool):
    plane = two_nf_plane(big_pool, Mode.POLLING)
    plane.set_sink(lambda p, d: None)
    plane.start()
    try:
        with pytest.raises(PlaneFrozen):
            plane.register_nf("x", make_l2_forwarder())
        with pytest.raises(ModeChangeAfterStart):
            plane.set_mode(Mode.EVENT)
    finally:
        plane.stop()


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_packet_traverses_chain(big_pool, mode):
    sink = ListSink()
    plane = two_nf_plane(big_pool, mode)
    plane.set_sink(sink)
    plane.start()
    try:
        run_n(plane, 50)
    finally:
        plane.stop()
    assert len(sink.items) == 50
    payload, _ = sink.items[0]
    # both rewrites landed
    assert payload[30:34] == bytes([10, 0, 1, 5])
    assert payload[0:6] == bytes.fromhex("020000000002")
    assert packet_body_ok(payload)


@pytest.mark.parametrize("mode", [Mode.POLLING, Mode.EVENT])
def test_body_bytes_never_copied_or_corrupted(big_pool, mode):
    sink = ListSink()
    plane = two_nf_plane(big_pool, mode)
    plane.set_sink(sink)
    plane.start()
    try:
        run_n(plane, 200, size=256)
    finally:
        plane.stop()
    originals = {}
    for seq in range(200):
        pkt = build_packet(256, seq, 5)
        originals[zlib.crc32(pkt[BODY_OFF:])] = pkt
    for payload, _ in sink.items:
        body_crc = zlib.crc32(payload[BODY_OFF:])
        assert body_crc in originals
        assert packet_body_ok(payload)


def test_audit_alpha_clean(big_pool):
    ledger = AuditLedger("polling")
    plane = two_nf_plane(big_pool, Mode.POLLING, ledger)
    plane.set_sink(lambda p, d: None)
    plane.start()
    try:
        run_n(plane, 300)
    finally:
        plane.stop()
    report = verify(ledger, "alpha")
    assert report.passed, report.render_text()


def test_audit_beta_clean(big_pool):
    ledger = AuditLedger("event")
    plane = two_nf_plane(big_pool, Mode.EVENT, ledger)
    plane.set_sink(lambda p, d: None)
    plane.start()
    try:
        run_n(plane, 300)
    finally:
        plane.stop()
    report = verify(ledger, "beta")
    assert report.passed, report.render_text()


def test_pool_exhaustion_counts_drop(registry):
    from shmchain.pool import PoolConfig

    pool = registry.create(PoolConfig("tiny", 4, 2048))
    plane = PacketPlane(pool, Mode.POLLING, name="tiny")
    plane.register_nf("a", make_l2_forwarder())
    plane.set_entry("a")
    plane.set_route("a", EGRESS)
    # keep frames captive: sink raises so descriptors requeue and drop
    plane.set_sink(lambda p, d: None)
    refs = [pool.alloc_frame() for _ in range(4)]  # exhaust by hand
    plane.start()
    try:
        assert plane.ingress(build_packet(64, 0, 1)) is False
        assert plane.drops["pool_exhausted"] == 1
    finally:
        plane.stop()
        for ref in refs:
            pool.free_frame(ref)


def test_filter_deny_drops_descriptor(big_pool):
    sink = ListSink()
    plane = two_nf_plane(big_pool, Mode.POLLING)
    plane.set_sink(sink)
    plane.set_filter("r1", "f1", "deny")
    plane.start()
    try:
        plane.ingress(build_packet(64, 0, 1))
        deadline = time.time() + 5
        while not plane.drops.get("filtered") and time.time() < deadline:
            time.sleep(0.005)
    finally:
        plane.stop()
    assert plane.drops["filtered"] == 1
    assert not sink.items


def test_sink_failure_requeues_once_then_drops(big_pool):
    calls = []

    def flaky(payload, desc):
        calls.append(desc.trace_id)
        raise OSError("sink down")

    plane = two_nf_plane(big_pool, Mode.POLLING)
    plane.set_sink(flaky)
    plane.start()
    try:
        plane.ingress(build_packet(64, 0, 1))
        deadline = time.time() + 5
        while not plane.drops.get("sink_unavailable") and time.time() < deadline:
            time.sleep(0.005)
    finally:
        plane.stop()
    assert plane.drops["sink_unavailable"] == 1
    assert len(calls) == 2  # first try plus one requeue
    assert big_pool.free_count == big_pool.config.frame_count


def test_routing_totality(big_pool):
    """Every descriptor leaving a TX ring is forwarded, egressed, or dropped."""
    sink = ListSink()
    plane = two_nf_plane(big_pool, Mode.POLLING)
    plane.set_sink(sink)
    plane.set_filter("f1", EGRESS, "deny")
    plane.start()
    try:
        run_n(plane, 40)
    finally:
        plane.stop()
    assert plane.ingress_count == 40
    assert len(sink.items) + plane.drops["filtered"] == 40
    assert big_pool.free_count == big_pool.config.frame_count
