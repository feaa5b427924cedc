import threading
import time

import pytest

from shmchain.audit import AuditLedger
from shmchain.descriptors import PacketDescriptor
from shmchain.errors import (
    DuplicateFunction,
    EndpointClosed,
    InboxFull,
    UnknownDestination,
)
from shmchain.events import BatchPolicy, SocketMap, send_audited


def make_desc(pool, dst="b", src="a", trace=0):
    ref = pool.alloc_frame()
    return PacketDescriptor(ref, 0, 0, src, dst, trace)


def test_register_and_duplicate():
    sockmap = SocketMap()
    sockmap.register("a")
    with pytest.raises(DuplicateFunction):
        sockmap.register("a")


def test_send_appends_and_wakes(pool):
    sockmap = SocketMap()
    endpoint = sockmap.register("b")
    sockmap.send(make_desc(pool))
    assert endpoint.pending() == 1
    batch = endpoint.recv_batch(8)
    assert len(batch) == 1


def test_send_unknown_destination_leaves_frame_with_sender(pool):
    sockmap = SocketMap()
    desc = make_desc(pool, dst="nobody")
    free_before = pool.free_count
    with pytest.raises(UnknownDestination):
        sockmap.send(desc)
    assert sockmap.dropped == 1
    assert pool.free_count == free_before
    pool.free_frame(desc.frame)  # still allocated to the caller


def test_send_filtered_is_undeliverable(pool):
    sockmap = SocketMap()
    endpoint = sockmap.register("b")
    sockmap.set_filter(lambda src, dst: False)
    desc = make_desc(pool)
    free_before = pool.free_count
    with pytest.raises(UnknownDestination):
        sockmap.send(desc)
    assert sockmap.dropped == 1
    assert endpoint.pending() == 0
    assert pool.free_count == free_before
    pool.free_frame(desc.frame)  # still allocated to the caller


def test_inbox_full(pool):
    sockmap = SocketMap()
    sockmap.register("b", capacity=2)
    sockmap.send(make_desc(pool))
    sockmap.send(make_desc(pool))
    with pytest.raises(InboxFull):
        sockmap.send(make_desc(pool))


def test_batch_bound_and_no_sleep_between(pool):
    sockmap = SocketMap()
    endpoint = sockmap.register("b")
    for i in range(10):
        sockmap.send(make_desc(pool, trace=i))
    first = endpoint.recv_batch(BatchPolicy(8))
    assert [d.trace_id for d in first] == list(range(8))
    # latch still set: the second call returns immediately
    t0 = time.monotonic()
    second = endpoint.recv_batch(BatchPolicy(8))
    assert time.monotonic() - t0 < 0.1
    assert [d.trace_id for d in second] == [8, 9]
    assert endpoint.wakeups <= 2


def test_recv_blocks_until_send(pool):
    sockmap = SocketMap()
    endpoint = sockmap.register("b")
    got = []

    def receiver():
        got.extend(endpoint.recv_batch(4))

    thread = threading.Thread(target=receiver, daemon=True)
    thread.start()
    time.sleep(0.1)
    assert not got  # still blocked
    sockmap.send(make_desc(pool, trace=42))
    thread.join(timeout=5)
    assert [d.trace_id for d in got] == [42]
    assert endpoint.wakeups == 1


def test_wakeup_coalescing_bound(big_pool):
    pool = big_pool
    sockmap = SocketMap()
    endpoint = sockmap.register("b")
    n = 1000  # well past what a byte-per-notification socket buffer holds
    for i in range(n):
        sockmap.send(make_desc(pool, trace=i))
    drained = []

    def receiver():
        while len(drained) < n:
            drained.extend(endpoint.recv_batch(BatchPolicy(32)))

    thread = threading.Thread(target=receiver, daemon=True)
    thread.start()
    thread.join(timeout=10)
    receiver_done = not thread.is_alive()
    endpoint.close()  # unblock the receiver if it lost a wakeup
    assert receiver_done, "receiver lost a wakeup"
    assert [d.trace_id for d in drained] == list(range(n))
    assert endpoint.wakeups <= n
    assert endpoint.drains >= -(-n // 32)  # ceil


def test_fifo_per_sender(big_pool):
    pool = big_pool
    sockmap = SocketMap()
    endpoint = sockmap.register("b")
    n = 200
    sent = {name: [] for name in ("s1", "s2")}

    def sender(name):
        for i in range(n):
            desc = make_desc(pool, src=name, trace=(name, i))
            while True:
                try:
                    sockmap.send(desc)
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
                received.extend(endpoint.recv_batch(BatchPolicy(16)))
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
    sockmap = SocketMap()
    endpoint = sockmap.register("b")
    for i in range(3):
        sockmap.send(make_desc(pool, trace=i))
    endpoint.close()
    drained = endpoint.recv_batch(8)
    assert [d.trace_id for d in drained] == [0, 1, 2]
    with pytest.raises(EndpointClosed):
        endpoint.recv_batch(8)


def test_blocked_receiver_woken_by_close(pool):
    sockmap = SocketMap()
    endpoint = sockmap.register("b")
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
    ledger = AuditLedger()
    sockmap = SocketMap()
    sockmap.register("b")
    desc = make_desc(pool, trace=7)
    send_audited(sockmap, desc, ledger, step=3)
    total = ledger.trace_total(7)
    assert total.interrupts == 1 and total.context_switches == 1


def test_send_audited_failure_records_nothing(pool):
    ledger = AuditLedger()
    sockmap = SocketMap()
    desc = make_desc(pool, dst="nobody", trace=7)
    with pytest.raises(UnknownDestination):
        send_audited(sockmap, desc, ledger, step=3)
    assert ledger.trace_total(7).interrupts == 0
