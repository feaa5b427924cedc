"""One-hop transfer latency probes for the two descriptor transports.

Each probe pairs a producer with a consumer in its own process, the
deployment shape the transports stand in for: chain functions attach to the
same frames from separate processes. The polling probe spins a consumer on a
shared-memory cursor, so observation lag is the poll-loop iteration time; the
event probe blocks the consumer in a socket receive, so each hop carries the
kernel wakeup. In-process threads would serialize both sides on the
interpreter lock and measure its scheduling quantum instead of the
transports.

Timestamps use CLOCK_MONOTONIC, which is comparable across processes. The
shared region is an anonymous MAP_SHARED mapping inherited across fork.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import socket
import struct
import time

from .bench import LatencyStats
from .errors import InvalidSampleCount

_CTX = multiprocessing.get_context("fork")

# probe region layout: one published-count cursor, then one receive-timestamp
# slot per sample
_CURSOR_BYTES = 8


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _pin_to_cpu(cpu: int) -> None:
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        pass


def _ring_consumer(region, n: int) -> None:
    if (os.cpu_count() or 1) >= 2:
        _pin_to_cpu(1)
    got = 0
    while got < n:
        published = struct.unpack_from("<Q", region, 0)[0]
        while got < published:
            struct.pack_into("<Q", region, _CURSOR_BYTES + 8 * got, _now_ns())
            got += 1


def _event_consumer(sock: socket.socket, region, n: int) -> None:
    got = 0
    while got < n:
        data = sock.recv(64)
        if not data:
            break
        stamp = _now_ns()
        for _ in data:
            if got < n:
                struct.pack_into("<Q", region, 8 * got, stamp)
                got += 1


def _paced_send_loop(n: int, pace_s: float, send_one) -> list[int]:
    send_ts = []
    for i in range(n):
        t_end = time.perf_counter() + pace_s
        while time.perf_counter() < t_end:
            pass
        send_ts.append(_now_ns())
        send_one(i)
    return send_ts


def _collect(region, base: int, send_ts: list[int], warmup: int) -> LatencyStats:
    lat = []
    for i, sent in enumerate(send_ts):
        recv = struct.unpack_from("<Q", region, base + 8 * i)[0]
        lat.append(recv - sent)
    return LatencyStats.from_ns(lat[warmup:])


def ring_hop_probe(n_samples: int, *, pace_s: float = 2e-4,
                   warmup: int = 50) -> LatencyStats:
    """Enqueue-to-observation latency with the consumer actively polling."""
    if n_samples < 1:
        raise InvalidSampleCount(str(n_samples))
    warmup = min(warmup, max(0, n_samples - 1))
    region = mmap.mmap(-1, _CURSOR_BYTES + 8 * n_samples)
    proc = _CTX.Process(target=_ring_consumer, args=(region, n_samples),
                        daemon=True)
    proc.start()
    time.sleep(0.05)

    def send_one(i: int) -> None:
        struct.pack_into("<Q", region, 0, i + 1)

    try:
        send_ts = _paced_send_loop(n_samples, pace_s, send_one)
        proc.join(timeout=30)
        stats = _collect(region, _CURSOR_BYTES, send_ts, warmup)
    finally:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
        region.close()
    return stats


def event_hop_probe(n_samples: int, *, pace_s: float = 2e-4,
                    warmup: int = 50) -> LatencyStats:
    """Send-to-wakeup latency with the consumer blocked on its channel."""
    if n_samples < 1:
        raise InvalidSampleCount(str(n_samples))
    warmup = min(warmup, max(0, n_samples - 1))
    region = mmap.mmap(-1, 8 * n_samples)
    parent_sock, child_sock = socket.socketpair()
    proc = _CTX.Process(target=_event_consumer,
                        args=(child_sock, region, n_samples), daemon=True)
    proc.start()
    child_sock.close()
    time.sleep(0.05)

    def send_one(_i: int) -> None:
        parent_sock.send(b"\x01")

    try:
        send_ts = _paced_send_loop(n_samples, pace_s, send_one)
        proc.join(timeout=30)
        stats = _collect(region, 0, send_ts, warmup)
    finally:
        parent_sock.close()
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
        region.close()
    return stats
