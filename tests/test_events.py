import os
import threading
import time

import pytest

from shmchain import events
from shmchain.audit import AuditLedger
from shmchain.descriptors import PacketDescriptor
from shmchain.errors import EndpointClosed, InboxFull, UnknownDestination
from shmchain.events import EventEndpoint
from shmchain.packet_plane import PacketPlane


def make_desc(pool, trace=0):
    ref = pool.try_alloc_frame()
    return PacketDescriptor(ref, 0, trace)


class CountingOs:
    """Stands in for ``os`` inside ``shmchain.events``: counts the eventfd
    writes and reads and passes every call through."""

    def __init__(self):
        self.writes = 0
        self.reads = 0

    def eventfd_write(self, fd, value):
        self.writes += 1
        return os.eventfd_write(fd, value)

    def eventfd_read(self, fd):
        self.reads += 1
        return os.eventfd_read(fd)

    def __getattr__(self, name):
        return getattr(os, name)


@pytest.fixture
def counting_os(monkeypatch):
    fake = CountingOs()
    monkeypatch.setattr(events, "os", fake)
    return fake


def blocked_receiver(endpoint, counting_os, result):
    """Start a thread that blocks in ``recv_batch`` and records what it
    returns or raises; returns once it has entered the eventfd read."""

    def receiver():
        try:
            result.append(endpoint.recv_batch(4))
        except EndpointClosed:
            result.append("closed")

    thread = threading.Thread(target=receiver, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5
    while counting_os.reads == 0:
        assert time.monotonic() < deadline, "receiver never blocked"
        time.sleep(0.001)
    return thread


def test_awake_receiver_costs_no_syscall(counting_os):
    # nobody sleeps on the inbox, so no delivery signals it, and a receiver
    # that finds work queued takes it without reading the eventfd
    endpoint = EventEndpoint("b")
    for i in range(100):
        endpoint.deliver(i)
    batches = [endpoint.recv_batch(32) for _ in range(4)]
    assert [len(b) for b in batches] == [32, 32, 32, 4]
    assert [i for b in batches for i in b] == list(range(100))
    assert (counting_os.writes, counting_os.reads) == (0, 0)
    assert endpoint.wakeups == 0


def test_delivery_signals_a_blocked_receiver_once(counting_os):
    endpoint = EventEndpoint("b")
    result = []
    thread = blocked_receiver(endpoint, counting_os, result)
    endpoint.deliver("x")
    thread.join(timeout=5)
    assert result == [["x"]]
    assert (counting_os.writes, counting_os.reads) == (1, 1)
    assert endpoint.wakeups == 1


def test_close_signals_a_blocked_receiver_once(counting_os):
    endpoint = EventEndpoint("b")
    result = []
    thread = blocked_receiver(endpoint, counting_os, result)
    endpoint.close()
    endpoint.close()  # a second close signals nothing
    thread.join(timeout=5)
    assert result == ["closed"]
    assert counting_os.writes == 1
    with pytest.raises(EndpointClosed):
        endpoint.recv_batch(4)
    assert counting_os.reads == 1


def test_send_appends_and_wakes(pool):
    endpoint = EventEndpoint("b")
    endpoint.deliver(make_desc(pool))
    assert endpoint.pending() == 1
    batch = endpoint.recv_batch(8)
    assert len(batch) == 1


def test_send_unknown_destination_leaves_frame_with_sender(pool):
    # a closed inbox is the one destination a send can miss
    endpoint = EventEndpoint("b")
    endpoint.close()
    desc = make_desc(pool)
    free_before = pool.free_count
    with pytest.raises(UnknownDestination):
        endpoint.deliver(desc)
    assert pool.free_count == free_before
    pool.free_frame(desc.frame)  # still allocated to the caller


def test_inbox_full(pool):
    endpoint = EventEndpoint("b", capacity=2)
    endpoint.deliver(make_desc(pool))
    endpoint.deliver(make_desc(pool))
    with pytest.raises(InboxFull):
        endpoint.deliver(make_desc(pool))


def test_batch_bound_and_no_sleep_between(pool):
    endpoint = EventEndpoint("b")
    for i in range(10):
        endpoint.deliver(make_desc(pool, trace=i))
    first = endpoint.recv_batch(8)
    assert [d.trace_id for d in first] == list(range(8))
    # latch still set: the second call returns immediately
    t0 = time.monotonic()
    second = endpoint.recv_batch(8)
    assert time.monotonic() - t0 < 0.1
    assert [d.trace_id for d in second] == [8, 9]
    assert endpoint.wakeups <= 2


def test_recv_blocks_until_send(pool):
    endpoint = EventEndpoint("b")
    got = []

    def receiver():
        got.extend(endpoint.recv_batch(4))

    thread = threading.Thread(target=receiver, daemon=True)
    thread.start()
    time.sleep(0.1)
    assert not got  # still blocked
    endpoint.deliver(make_desc(pool, trace=42))
    thread.join(timeout=5)
    assert [d.trace_id for d in got] == [42]
    assert endpoint.wakeups == 1


def test_wakeup_coalescing_bound(big_pool):
    pool = big_pool
    endpoint = EventEndpoint("b")
    n = 1000  # well past what a byte-per-notification socket buffer holds
    for i in range(n):
        endpoint.deliver(make_desc(pool, trace=i))
    drained = []
    sizes = []

    def receiver():
        while len(drained) < n:
            batch = endpoint.recv_batch(32)
            sizes.append(len(batch))
            drained.extend(batch)

    thread = threading.Thread(target=receiver, daemon=True)
    thread.start()
    thread.join(timeout=10)
    receiver_done = not thread.is_alive()
    endpoint.close()  # unblock the receiver if it lost a wakeup
    assert receiver_done, "receiver lost a wakeup"
    assert [d.trace_id for d in drained] == list(range(n))
    assert endpoint.wakeups <= n
    assert max(sizes) <= 32


def test_fifo_per_sender(big_pool):
    pool = big_pool
    endpoint = EventEndpoint("b")
    n = 200
    sent = {name: [] for name in ("s1", "s2")}

    def sender(name):
        for i in range(n):
            desc = make_desc(pool, trace=(name, i))
            while True:
                try:
                    endpoint.deliver(desc)
                    break
                except InboxFull:
                    time.sleep(0.001)
            sent[name].append(i)

    threads = [threading.Thread(target=sender, args=(name,), daemon=True)
               for name in sent]
    received = []

    def receiver():
        while len(received) < n * len(sent):
            try:
                received.extend(endpoint.recv_batch(16))
            except EndpointClosed:
                return

    recv_thread = threading.Thread(target=receiver, daemon=True)
    recv_thread.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads), "sender stuck"
    recv_thread.join(timeout=10)
    receiver_done = not recv_thread.is_alive()
    endpoint.close()  # unblock the receiver if it lost a wakeup
    recv_thread.join(timeout=5)
    assert receiver_done, "receiver lost a wakeup"
    for name in sent:
        assert sent[name] == list(range(n))
        order = [d.trace_id[1] for d in received if d.trace_id[0] == name]
        assert order == list(range(n))
    assert len(received) == n * len(sent)


def test_close_drains_then_raises(pool):
    endpoint = EventEndpoint("b")
    for i in range(3):
        endpoint.deliver(make_desc(pool, trace=i))
    endpoint.close()
    drained = endpoint.recv_batch(8)
    assert [d.trace_id for d in drained] == [0, 1, 2]
    with pytest.raises(EndpointClosed):
        endpoint.recv_batch(8)


def test_blocked_receiver_woken_by_close(pool):
    endpoint = EventEndpoint("b")
    result = []

    def receiver():
        try:
            endpoint.recv_batch(4)
        except EndpointClosed:
            result.append("closed")

    thread = threading.Thread(target=receiver, daemon=True)
    thread.start()
    time.sleep(0.05)
    endpoint.close()
    thread.join(timeout=5)
    assert result == ["closed"]


def test_send_audited_records_hop(pool):
    # every event hop goes through the runtime's one send, which audits it
    ledger = AuditLedger()
    plane = PacketPlane(pool, ledger=ledger, name="ev")
    endpoint = EventEndpoint("b")
    desc = make_desc(pool, trace=7)
    assert plane._send(desc, endpoint)
    assert endpoint.pending() == 1
    total = ledger.trace_total(7)
    assert total.interrupts == 1 and total.context_switches == 1
    pool.free_frame(desc.frame)


def test_send_audited_failure_records_nothing(pool):
    ledger = AuditLedger()
    plane = PacketPlane(pool, ledger=ledger, name="ev")
    endpoint = EventEndpoint("b")
    endpoint.close()
    free_before = pool.free_count
    desc = make_desc(pool, trace=7)
    assert not plane._send(desc, endpoint)
    assert ledger.trace_total(7).interrupts == 0
    assert plane.drops == {"shutdown": 1}
    assert pool.free_count == free_before  # the refused frame was freed
