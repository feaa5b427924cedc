"""Smoke runs of each workload at a tiny operation count, and checks that the
benchmark's own checkers catch broken output.

    python3 -m pytest chainbench/tests -q
"""

from __future__ import annotations

import dataclasses
from collections import deque

import pytest

from chainbench import httpgen, spans
from chainbench.packets import SEQ_OFF, PacketChecker, PacketSet, PacketWorkload
from chainbench.run import END_TO_END_UNITS, _workloads, measure

TINY = {"ping": 5, "flood": 60}


def tiny(name):
    workload = _workloads()[name]
    extra = {"window": 16} if isinstance(workload, PacketWorkload) else {"depth": 2}
    return dataclasses.replace(workload, **TINY, **extra)


@pytest.mark.parametrize("name", ["l2l3-poll-64", "l2l3-event-1500", "l4l7-event-post1k"])
def test_smoke_end_to_end(name):
    result = measure(tiny(name), seed=7, seconds=0.1, trace=False)
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == result["rounds"] * (TINY["ping"] + TINY["flood"])
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["l2l3-event-1500", "l4l7-event-post1k"])
def test_smoke_traced(name, tmp_path):
    path = tmp_path / "spans.jsonl"
    result = measure(tiny(name), seed=7, seconds=0.3, trace=True, spans_path=path)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == {name for name, _, _ in spans.PER_LAYER}
    assert metrics["events.deliver.per_op"] > 0
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["harness.gen.ns"] > 0 and metrics["harness.sink.ns"] > 0
    assert path.read_text().count("\n") == result["spans"] > 0


def test_instrument_restores_originals():
    from shmchain.pool import FramePool

    original = FramePool.free_frame
    restore = spans.instrument(spans.Tracer())
    assert FramePool.free_frame is not original
    restore()
    assert FramePool.free_frame is original


def test_self_time_excludes_nested_calls():
    tracer = spans.Tracer()
    inner = tracer.wrap("b", "inner", lambda: sum(range(20_000)))
    outer = tracer.wrap("a", "outer", lambda: inner() + inner())
    tracer.enabled = True
    outer()
    totals = tracer.totals()
    a, b = totals["a.outer"], totals["b.inner"]
    assert b[spans.CALLS] == 2
    assert a[spans.SELF_NS] == a[spans.CPU_NS] - b[spans.CPU_NS]
    parents = {span[1]: span[6] for span in tracer.spans}
    ids = {span[1]: span[5] for span in tracer.spans}
    assert parents["inner"] == ids["outer"] and parents["outer"] == 0


# -- packet checker ---------------------------------------------------------

@pytest.fixture
def packets():
    return PacketSet(seed=3, size=64)


def test_packet_expectation_is_the_chain_rewrite(packets):
    sent, want = packets.packet(0), packets.expected(0)
    assert want[0:6] == bytes.fromhex("020000000002")
    assert sent[30:34] == bytes([10, 0, 0, 5]) and want[30:34] == bytes([10, 0, 1, 5])
    assert want[6:30] == sent[6:30] and want[34:] == sent[34:]
    passed = packets.packet(1)
    assert packets.expected(1)[30:34] == passed[30:34] != bytes([10, 0, 0, 5])


def test_checker_accepts_intact_packets(packets):
    checker = PacketChecker(packets, 4)
    for seq in range(4):
        checker.check(packets.expected(seq))
    assert checker.failed == 0 and not checker.errors


def test_checker_catches_flipped_byte(packets):
    checker = PacketChecker(packets, 2)
    bad = bytearray(packets.expected(0))
    bad[SEQ_OFF + 10] ^= 0x01
    checker.check(bytes(bad))
    checker.check(packets.expected(1))
    assert checker.failed == 1
    assert "bytes differ" in checker.errors[0]


def test_checker_catches_unrewritten_packet(packets):
    checker = PacketChecker(packets, 1)
    checker.check(packets.packet(0))
    assert checker.failed == 1


def test_checker_catches_missing_sequence_number(packets):
    checker = PacketChecker(packets, 3)
    checker.check(packets.expected(0))
    checker.check(packets.expected(2))
    assert checker.failed == 1 and checker.missing() == 1


def test_checker_catches_duplicate_sequence_number(packets):
    checker = PacketChecker(packets, 2)
    for seq in (0, 1, 1):
        checker.check(packets.expected(seq))
    assert checker.failed == 1
    assert "twice" in checker.errors[0]


def test_checker_catches_unknown_sequence_number(packets):
    checker = PacketChecker(packets, 2)
    checker.check(packets.expected(5))
    assert checker.stray == 1 and checker.failed == 2


# -- HTTP checker -------------------------------------------------------------

BODIES = httpgen.make_bodies(5)


def response(n, backend=0, path=None, body=None):
    raw = httpgen.backend_response(backend, path or f"/new/{n}",
                                   body if body is not None else httpgen.request_body(BODIES, n))
    message = httpgen.take_message(bytearray(raw))
    assert message is not None
    return message


def check(pending_ns, message):
    pending = deque((n, 0) for n in pending_ns)
    return httpgen.check_response(pending, BODIES, *message)


def test_http_checker_accepts_echo_from_either_backend():
    assert check([4], response(4, backend=0)) == (4, 0, None)
    assert check([4], response(4, backend=1)) == (4, 1, None)


def test_http_checker_catches_wrong_path():
    _n, _backend, error = check([4], response(4, path="/old/4"))
    assert "X-Path" in error


def test_http_checker_catches_corrupted_body():
    body = bytearray(httpgen.request_body(BODIES, 4))
    body[100] ^= 0xFF
    _n, _backend, error = check([4], response(4, body=bytes(body)))
    assert "body differs" in error


def test_http_checker_catches_truncated_body():
    _n, _backend, error = check([4], response(4, body=httpgen.request_body(BODIES, 4)[:-1]))
    assert "body differs" in error


def test_http_checker_catches_response_out_of_order():
    _n, _backend, error = check([4, 5], response(5))
    assert "came before" in error


def test_http_checker_catches_error_status():
    raw = bytearray(b"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\nX-Path: /new/4\r\n\r\n")
    _n, _backend, error = check([4], httpgen.take_message(raw))
    assert "502" in error


def test_take_message_waits_for_the_whole_body():
    raw = httpgen.backend_response(0, "/new/1", b"x" * 50)
    buf = bytearray(raw[:-1])
    assert httpgen.take_message(buf) is None
    buf += raw[-1:]
    assert httpgen.take_message(buf)[2] == b"backend-0|" + b"x" * 50
    assert buf == b""
