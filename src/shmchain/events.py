"""Event-driven descriptor transport: per-delivery wakeups with batch drain.

Each endpoint pairs a descriptor inbox with an eventfd counter that plays the
kernel notification path: every delivery adds one to the counter, and the
receiver blocks in a read of it until something arrives. That keeps a
receiving context strictly load-proportional (no busy CPU at zero traffic)
and makes each hop carry a real kernel crossing, which is exactly the cost
profile this transport emulates.

Batching falls out of the counter: one read returns every notification
pending since the last one and resets the counter, so the receiver drains up
to the batch limit per call and keeps the rest as credit for its next calls.
The counter cannot fill up, so no delivery ever goes unsignalled.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import deque
from dataclasses import dataclass

from .errors import (
    DuplicateFunction,
    EndpointClosed,
    InboxFull,
    InvalidConfig,
    UnknownDestination,
)

DEFAULT_INBOX_CAPACITY = 4096
MAX_INBOX_CAPACITY = 32768  # bounds the memory one inbox may pin


@dataclass(frozen=True)
class BatchPolicy:
    """Upper bound on descriptors drained per wakeup."""

    max_batch: int = 32

    def __post_init__(self):
        if self.max_batch < 1:
            raise InvalidConfig("max_batch must be >= 1")


class EventEndpoint:
    """Inbox + wakeup counter owned by exactly one receiving context.

    Invariant: every queued descriptor is matched by one notification, either
    still in the eventfd counter or already read into the receiver's credit
    (the counter is bumped after the descriptor is appended, and the receiver
    pops no more descriptors than it holds credit for). A blocked receiver
    therefore wakes iff a delivery happened, and a non-empty inbox always has
    a notification pending, so no wakeup is ever lost. ``close`` adds one
    extra notification that carries no descriptor; it only wakes the receiver.
    """

    def __init__(self, fn_id: str, capacity: int = DEFAULT_INBOX_CAPACITY):
        if not 1 <= capacity <= MAX_INBOX_CAPACITY:
            raise InvalidConfig(
                f"inbox capacity must be in [1, {MAX_INBOX_CAPACITY}], got {capacity}"
            )
        self.fn_id = fn_id
        self.capacity = capacity
        self._efd = os.eventfd(0)
        # the fd lives as long as the endpoint, so no in-flight delivery can
        # ever signal a closed (or reused) descriptor number
        self._release_fd = weakref.finalize(self, os.close, self._efd)
        self._credit = 0  # notifications read but not yet drained; receiver only
        self._inbox: deque = deque()
        self._lock = threading.Lock()
        self._closed = False
        # transport statistics (distinct from the audit ledger)
        self.delivered = 0
        self.wakeups = 0   # recv_batch calls that found the inbox empty and waited
        self.drains = 0    # recv_batch calls that returned descriptors

    def deliver(self, desc) -> None:
        """Append one descriptor and signal the receiver. Senders call this
        through a :class:`SocketMap`; safe from any context."""
        with self._lock:
            if self._closed:
                raise UnknownDestination(f"{self.fn_id}: endpoint closed")
            if len(self._inbox) >= self.capacity:
                raise InboxFull(self.fn_id)
            self._inbox.append(desc)
            self.delivered += 1
        os.eventfd_write(self._efd, 1)

    def recv_batch(self, policy: BatchPolicy | int = 32) -> list:
        """Block until at least one descriptor is queued, then drain up to the
        batch limit in arrival order. After :meth:`close`, the remaining inbox
        is drained first, then ``EndpointClosed`` is raised."""
        max_batch = policy.max_batch if isinstance(policy, BatchPolicy) else int(policy)
        if max_batch < 1:
            raise InvalidConfig("max_batch must be >= 1")
        with self._lock:
            waiting = not self._inbox
            if waiting and self._closed:
                raise EndpointClosed(self.fn_id)
        while True:
            if not self._credit:
                self._credit = os.eventfd_read(self._efd)
            with self._lock:
                batch = self._pop_locked(min(self._credit, max_batch))
                closed = self._closed
            if batch:
                self._credit -= len(batch)
                if waiting:
                    self.wakeups += 1
                self.drains += 1
                return batch
            if closed:
                raise EndpointClosed(self.fn_id)
            # credit for descriptors taken by drain_remaining: wait afresh
            self._credit = 0

    def _pop_locked(self, n: int) -> list:
        inbox = self._inbox
        return [inbox.popleft() for _ in range(min(n, len(inbox)))]

    def pending(self) -> int:
        with self._lock:
            return len(self._inbox)

    def drain_remaining(self) -> list:
        """Non-blocking removal of everything still queued; shutdown hygiene."""
        with self._lock:
            out = list(self._inbox)
            self._inbox.clear()
        return out

    def close(self) -> None:
        """Stop accepting deliveries and wake the receiver.

        Queued descriptors stay in the inbox, so a blocked receiver drains
        them before seeing EndpointClosed.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        os.eventfd_write(self._efd, 1)

    def dispose(self) -> None:
        """Close, then release the counter's fd. Call only once no context
        can still deliver to or receive from this endpoint."""
        self.close()
        self._release_fd()


class SocketMap:
    """Function-id routing for event deliveries, with send-site filtering.

    An undeliverable descriptor (unknown or filtered destination, inbox
    full) is counted in ``dropped`` and stays with the sender, which owns its
    frame when the error propagates.
    """

    def __init__(self):
        self._entries: dict[str, EventEndpoint] = {}
        self._lock = threading.Lock()
        self._filter = None
        self.dropped = 0

    def register(self, fn_id: str,
                 capacity: int = DEFAULT_INBOX_CAPACITY) -> EventEndpoint:
        with self._lock:
            if fn_id in self._entries:
                raise DuplicateFunction(fn_id)
            endpoint = EventEndpoint(fn_id, capacity)
            self._entries[fn_id] = endpoint
            return endpoint

    def lookup(self, fn_id: str) -> EventEndpoint | None:
        with self._lock:
            return self._entries.get(fn_id)

    def set_filter(self, hook) -> None:
        """hook(src_fn, dst_fn) -> bool; False blocks the delivery."""
        self._filter = hook

    def send(self, desc) -> None:
        """Deliver ``desc`` to its destination's inbox and set its wakeup.

        Frame ownership transfers on success; on failure it stays with the
        caller and the drop is counted.
        """
        endpoint = self.lookup(desc.dst_fn)
        if endpoint is None:
            self.dropped += 1
            raise UnknownDestination(desc.dst_fn)
        hook = self._filter
        if hook is not None and not hook(desc.src_fn, desc.dst_fn):
            self.dropped += 1
            raise UnknownDestination(
                f"{desc.src_fn}->{desc.dst_fn}: denied by filter"
            )
        try:
            endpoint.deliver(desc)
        except (InboxFull, UnknownDestination):
            self.dropped += 1
            raise

    def close_all(self) -> None:
        with self._lock:
            endpoints = list(self._entries.values())
            self._entries.clear()
        for endpoint in endpoints:
            endpoint.close()


def send_audited(sockmap: SocketMap, desc, ledger, step: int) -> None:
    """Send plus per-hop cost accounting: one interrupt (receiver wakeup) and
    one context switch (its blocking receive returning) on the audited path.

    The trace id is read before the send: once delivered, the descriptor
    belongs to the receiving context."""
    trace_id = desc.trace_id
    sockmap.send(desc)
    if ledger is not None:
        ledger.record_hop(trace_id, step)
