import time

import pytest

from shmchain.bench import (
    CollectorSink,
    HttpLoadConfig,
    PktgenConfig,
    StaticUpstream,
    build_packet,
    cpu_sample,
    cpu_total,
    http_load,
    mlfr_search,
    packet_body_ok,
    packet_seq,
    pktgen_run,
)
from shmchain.errors import InvalidConfig, InvalidTolerance, NeverLossFree


class RateLimitedSink:
    """Load target with a configured capacity; the oracle for search tests."""

    def __init__(self, capacity_pps: float):
        self.capacity = capacity_pps
        self._burst = max(4.0, capacity_pps * 0.01)
        self._allowance = self._burst
        self._last = time.monotonic()
        self.delivered = 0
        self.dropped = 0

    def ingress(self, payload: bytes, flow=None) -> bool:
        now = time.monotonic()
        self._allowance = min(self._burst,
                              self._allowance + (now - self._last) * self.capacity)
        self._last = now
        if self._allowance >= 1.0:
            self._allowance -= 1.0
            self.delivered += 1
            return True
        self.dropped += 1
        return False

    @property
    def running(self) -> bool:
        return True


def test_packet_layout_roundtrip():
    pkt = build_packet(128, 1234, 9)
    assert len(pkt) == 128
    assert packet_seq(pkt) == 1234
    assert packet_body_ok(pkt)
    corrupted = bytearray(pkt)
    corrupted[-1] ^= 0xFF
    assert not packet_body_ok(bytes(corrupted))


def test_packet_size_must_be_in_sweep():
    with pytest.raises(InvalidConfig):
        PktgenConfig(100, 1000, 1).validate()


def test_pktgen_reconciles_offered_delivered_dropped():
    sink = RateLimitedSink(capacity_pps=2000)
    report = pktgen_run(PktgenConfig(64, 4000, 0.5), sink)
    assert report.offered == report.delivered + report.dropped
    assert report.dropped > 0
    assert 0 <= report.loss_fraction <= 1


def test_mlfr_converges_to_configured_capacity():
    capacity = 2500.0

    def run(rate, duration):
        sink = RateLimitedSink(capacity)
        return pktgen_run(PktgenConfig(64, rate, duration), sink)

    tol = 0.15
    rate = mlfr_search(run, 64, tol, rate_floor=200, rate_ceiling=20000,
                       probe_duration=0.6)
    # the configured capacity is the oracle (small slack for bucket grain)
    assert capacity * (1 - 2 * tol) <= rate <= capacity * 1.03


def test_pktgen_skips_the_schedule_missed_in_a_stall():
    """A stall in the offer loop is not made up in one burst: a sink that
    holds 10 ms of burst stays loss-free below its capacity, and the
    stalled part of the schedule is never offered."""
    sink = RateLimitedSink(capacity_pps=2500)
    ingress = sink.ingress

    def stalling(payload, flow=None):
        if sink.delivered + sink.dropped == 100:
            time.sleep(0.05)
        return ingress(payload, flow)

    sink.ingress = stalling
    rate, duration = 2000, 0.3
    report = pktgen_run(PktgenConfig(64, rate, duration), sink)
    assert report.dropped == 0
    assert report.offered < rate * (duration - 0.03)


def test_mlfr_invalid_tolerance():
    with pytest.raises(InvalidTolerance):
        mlfr_search(lambda r, d: None, 64, 0.6)


def test_mlfr_never_loss_free():
    def run(rate, duration):
        sink = RateLimitedSink(capacity_pps=1.0)
        return pktgen_run(PktgenConfig(64, rate, duration), sink)

    with pytest.raises(NeverLossFree):
        mlfr_search(run, 64, 0.1, rate_floor=500, rate_ceiling=2000,
                    probe_duration=0.3)


def test_http_load_against_stub():
    stub = StaticUpstream(b"direct\n")
    try:
        report = http_load(HttpLoadConfig(concurrency=2, duration=0.6),
                           stub.address)
        assert report.delivered > 0
        assert report.extras["rps"] > 0
        assert report.latency is not None
    finally:
        stub.stop()


def test_http_load_config_bounds():
    with pytest.raises(InvalidConfig):
        HttpLoadConfig(concurrency=0).validate()
    with pytest.raises(InvalidConfig):
        HttpLoadConfig(concurrency=513).validate()


def test_cpu_sample_sees_a_spinning_thread():
    import threading

    stop = threading.Event()
    tid_holder = {}

    def spinner():
        tid_holder["tid"] = threading.get_native_id()
        while not stop.is_set():
            pass

    thread = threading.Thread(target=spinner, daemon=True)
    thread.start()
    while "tid" not in tid_holder:
        pass
    try:
        series = cpu_sample({"spin": tid_holder["tid"]}, interval=0.1,
                            duration=0.5)
    finally:
        stop.set()
        thread.join(timeout=2)
    assert series["spin"]
    assert cpu_total(series) > 0.4


def test_collector_detects_corruption(pool):
    sink = CollectorSink()
    good = build_packet(64, 0, 1)
    bad = bytearray(build_packet(64, 1, 1))
    bad[-1] ^= 0x01
    sink(good, None)
    sink(bytes(bad), None)
    assert sink.received == 2
    assert sink.corrupt == 1
