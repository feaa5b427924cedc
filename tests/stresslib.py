"""Randomized stress drivers shared by the stress and acceptance suites.

Each driver returns a stats dict and raises AssertionError on any ordering,
conservation, or ownership violation.
"""

from __future__ import annotations

import random
import sys
import threading
import time

from shmchain.descriptors import PacketDescriptor
from shmchain.errors import InboxFull
from shmchain.events import EventEndpoint
from shmchain.pool import FrameRef, PoolConfig, PoolRegistry
from shmchain.rings import DescriptorRing


def stress_ring_spsc(n_items: int, capacity: int = 256) -> dict:
    """One producer, one consumer, random burst sizes on both sides; FIFO +
    conservation. The producer alternates single enqueues with bursts, whose
    refused tail it offers again, and a short interpreter switch interval
    makes the two threads interleave inside the burst calls."""
    ring = DescriptorRing(capacity)
    consumed: list[int] = []
    broken: list[str] = []
    done = threading.Event()
    rng = random.Random(7)
    producer_rng = random.Random(11)

    def consumer():
        # a failure is reported to the producer, which would otherwise spin
        # on a full ring forever
        expected = 0
        while expected < n_items:
            for item in ring.burst_dequeue(rng.randint(1, 64)):
                if item != expected:
                    broken.append(f"order broken: {item} != {expected}")
                    done.set()
                    return
                expected += 1
        consumed.append(expected)
        done.set()

    thread = threading.Thread(target=consumer, daemon=True)
    default_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread.start()
        produced = 0
        passes = 0
        while produced < n_items and not done.is_set():
            if passes % 2:
                size = producer_rng.randint(1, 64)
                produced += ring.enqueue_burst(
                    list(range(produced, min(produced + size, n_items))))
            elif ring.enqueue(produced):
                produced += 1
            passes += 1
        assert done.wait(timeout=90), "consumer starved"
        thread.join(timeout=5)
    finally:
        sys.setswitchinterval(default_interval)
    assert not broken, broken[0]
    assert consumed == [n_items]
    assert len(ring) == 0
    assert ring._slots == [None] * capacity, "a consumed slot still pins its item"
    return {"ops": 2 * n_items, "items": n_items}


def stress_event_channel(n_per_sender: int, senders: int = 2,
                         capacity: int = 2048) -> dict:
    """Multiple senders, one blocking receiver; per-sender FIFO, no loss, no
    duplicates, and the drain always finishes (no lost wakeups)."""
    endpoint = EventEndpoint("rx", capacity=capacity)
    total = n_per_sender * senders

    def sender(sid: int):
        for i in range(n_per_sender):
            desc = (sid, i)
            while True:
                try:
                    endpoint.deliver(_FakeDesc(desc))
                    break
                except InboxFull:
                    time.sleep(0.0005)

    received: list[tuple[int, int]] = []

    def receiver():
        while len(received) < total:
            batch = endpoint.recv_batch(32)
            received.extend(d.trace_id for d in batch)

    threads = [threading.Thread(target=sender, args=(sid,), daemon=True)
               for sid in range(senders)]
    recv_thread = threading.Thread(target=receiver, daemon=True)
    recv_thread.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=90)
        assert not thread.is_alive(), "sender stuck"
    recv_thread.join(timeout=90)
    assert not recv_thread.is_alive(), "receiver lost a wakeup"
    assert len(received) == total
    assert len(set(received)) == total, "duplicate delivery"
    for sid in range(senders):
        seq = [i for s, i in received if s == sid]
        assert seq == sorted(seq), f"sender {sid} order broken"
    return {"ops": 2 * total, "wakeups": endpoint.wakeups, "items": total}


def stress_event_pingpong(round_trips: int, timeout: float = 30.0) -> dict:
    """Two endpoints and two threads bounce one payload at a time, so every
    delivery meets a receiver that is blocked or about to block. A lost
    wakeup stalls the exchange; payloads come back in order. A short
    interpreter switch interval makes the threads interleave more often."""
    ping, pong = EventEndpoint("ping"), EventEndpoint("pong")
    returned: list[int] = []

    def echo():
        for _ in range(round_trips):
            for item in ping.recv_batch(32):
                pong.deliver(item)

    def pinger():
        for i in range(round_trips):
            ping.deliver(i)
            returned.extend(pong.recv_batch(32))

    threads = [threading.Thread(target=fn, daemon=True) for fn in (echo, pinger)]
    default_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(default_interval)
    stuck = any(thread.is_alive() for thread in threads)
    for endpoint in (ping, pong):
        endpoint.close()  # unblock a side that lost a wakeup
    assert not stuck, "ping-pong lost a wakeup"
    assert returned == list(range(round_trips))
    for endpoint in (ping, pong):
        assert endpoint.delivered == round_trips
        assert endpoint.wakeups <= endpoint.delivered
    return {"round_trips": round_trips,
            "wakeups": ping.wakeups + pong.wakeups}


class _FakeDesc:
    __slots__ = ("trace_id", "frame")

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.frame = None


def stress_pool_ownership(n_threads: int = 8, cycles_per_thread: int = 25000,
                          frame_count: int = 64) -> dict:
    """Concurrent alloc/write/verify/free with a shadow ownership tracker.

    Every allocated frame gets the owner's tag written into it; the tag must
    read back intact before the free, or two owners touched one frame.
    """
    registry = PoolRegistry()
    pool = registry.create(PoolConfig("stress-own", frame_count, 128))
    shadow: dict[int, int] = {}
    shadow_lock = threading.Lock()
    violations: list[str] = []
    stop = threading.Event()

    def worker(tag: int):
        rng = random.Random(tag)
        held: list[FrameRef] = []
        try:
            for _ in range(cycles_per_thread):
                if stop.is_set():
                    return
                if held and (len(held) > 4 or rng.random() < 0.5):
                    ref = held.pop(rng.randrange(len(held)))
                    index = ref[0]
                    data = pool.read_frame(ref, 0, 4)
                    if int.from_bytes(data, "big") != tag:
                        violations.append(f"frame {index} stolen from {tag}")
                        stop.set()
                        return
                    with shadow_lock:
                        if shadow.get(index) != tag:
                            violations.append(
                                f"shadow mismatch on frame {index}")
                            stop.set()
                            return
                        del shadow[index]
                    pool.free_frame(ref)
                else:
                    ref = pool.try_alloc_frame()
                    if ref is None:
                        continue
                    index = ref[0]
                    with shadow_lock:
                        if index in shadow:
                            violations.append(
                                f"frame {index} double-allocated")
                            stop.set()
                            return
                        shadow[index] = tag
                    pool.write_frame(ref, 0, tag.to_bytes(4, "big"))
                    held.append(ref)
        finally:
            for ref in held:
                try:
                    with shadow_lock:
                        shadow.pop(ref[0], None)
                    pool.free_frame(ref)
                except Exception:
                    pass

    threads = [threading.Thread(target=worker, args=(1000 + i,), daemon=True)
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=110)
        assert not thread.is_alive(), "pool stress worker stuck"
    assert not violations, violations
    assert pool.free_count == frame_count, "frames leaked"
    registry.clear()
    return {"ops": 2 * n_threads * cycles_per_thread,
            "threads": n_threads}
