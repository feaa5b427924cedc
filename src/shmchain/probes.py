"""One-hop transfer latency probes for the two descriptor transports.

Each probe pairs a producer with a consumer in its own process, the
deployment shape the transports stand in for: chain functions attach to the
same frames from separate processes. The polling probe spins a consumer on a
shared-memory cursor, so observation lag is the poll-loop iteration time; the
event probe blocks the consumer in a socket receive, so each hop carries the
kernel wakeup. In-process threads would serialize both sides on the
interpreter lock and measure its scheduling quantum instead of the
transports.

Given two CPUs, both probes place their sides the same way: the consumer
pins itself to the highest CPU of the caller's set and the producer, for
its send loop only, to the lowest. A ring hop is then a cache line moving
between two spinning CPUs and an event hop a wakeup sent to another CPU,
whatever the scheduler would have done with an unpinned consumer.

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


def _ring_consumer(region, n: int, cpu: int | None) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    got = 0
    while got < n:
        published = struct.unpack_from("<Q", region, 0)[0]
        while got < published:
            struct.pack_into("<Q", region, _CURSOR_BYTES + 8 * got, _now_ns())
            got += 1


def _event_consumer(sock: socket.socket, region, n: int, cpu: int | None) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
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


def _consumer_cpu(cpus: set[int]) -> int | None:
    return max(cpus) if len(cpus) >= 2 else None


def _pinned_send_loop(cpus: set[int], n: int, pace_s: float,
                      send_one) -> list[int]:
    """The paced send loop on ``min(cpus)``, away from the consumer, after
    which the calling thread gets ``cpus`` back."""
    if len(cpus) < 2:
        return _paced_send_loop(n, pace_s, send_one)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _paced_send_loop(n, pace_s, send_one)
    finally:
        os.sched_setaffinity(0, cpus)


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
    # both sides spin, so each gets a CPU of its own: sharing one, every hop
    # would wait out the other side's time slice
    cpus = os.sched_getaffinity(0)  # the calling thread's, restored below
    proc = _CTX.Process(target=_ring_consumer,
                        args=(region, n_samples, _consumer_cpu(cpus)),
                        daemon=True)
    proc.start()
    time.sleep(0.05)

    def send_one(i: int) -> None:
        struct.pack_into("<Q", region, 0, i + 1)

    try:
        send_ts = _pinned_send_loop(cpus, n_samples, pace_s, send_one)
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
    cpus = os.sched_getaffinity(0)  # the calling thread's, restored below
    proc = _CTX.Process(target=_event_consumer,
                        args=(child_sock, region, n_samples, _consumer_cpu(cpus)),
                        daemon=True)
    proc.start()
    child_sock.close()
    time.sleep(0.05)

    def send_one(_i: int) -> None:
        parent_sock.send(b"\x01")

    try:
        send_ts = _pinned_send_loop(cpus, n_samples, pace_s, send_one)
        proc.join(timeout=30)
        stats = _collect(region, 0, send_ts, warmup)
    finally:
        parent_sock.close()
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
        region.close()
    return stats
