"""Event-driven descriptor transport: a wakeup only for a sleeping receiver.

Each endpoint pairs a descriptor inbox with an eventfd that plays the
kernel notification path. A receiver takes what its inbox holds without a
syscall, and blocks in a read of the eventfd only when the inbox is empty.
A delivery signals the eventfd only if the receiver is blocked there, as the
kernel's data-ready callback wakes only a reader asleep on its socket. That
keeps a receiving context strictly load-proportional (no busy CPU at zero
traffic), and each wakeup is a real kernel crossing.

Batching falls out of the sleeping flag: everything delivered while the
receiver is awake, or before it has run after a wakeup, waits in the inbox,
and the receiver drains up to the batch limit per call.

Senders hold the endpoint itself. The chain runtime has already picked each
next hop, and it holds the inbox that hop reads, so a send is one
``deliver`` on that object and no destination is looked up by name.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import deque

from .errors import EndpointClosed, InboxFull, InvalidConfig, UnknownDestination
from .rings import DEFAULT_RING_CAPACITY

MAX_INBOX_CAPACITY = 32768  # bounds the memory one inbox may pin


class EventEndpoint:
    """Inbox + wakeup eventfd owned by exactly one receiving context.

    Invariant: the receiver blocks in the eventfd only with ``_sleeping``
    set, and it sets the flag under the lock after it found the inbox empty
    and the endpoint open. ``deliver`` and ``close`` change the inbox or the
    closed flag, then take and clear ``_sleeping`` under the same lock, and
    write the eventfd only if it was set. So a blocked receiver always has a
    write coming, no wakeup is lost, and at most one notification is ever
    pending.
    """

    def __init__(self, fn_id: str, capacity: int = DEFAULT_RING_CAPACITY):
        if not 1 <= capacity <= MAX_INBOX_CAPACITY:
            raise InvalidConfig(
                f"inbox capacity must be in [1, {MAX_INBOX_CAPACITY}], got {capacity}"
            )
        self.fn_id = fn_id
        self.capacity = capacity
        self._efd = os.eventfd(0)
        # the fd lives as long as the endpoint, so no in-flight delivery can
        # ever signal a closed (or reused) descriptor number
        weakref.finalize(self, os.close, self._efd)
        self._inbox: deque = deque()
        self._lock = threading.Lock()
        self._closed = False
        self._sleeping = False  # the receiver is blocked, or about to block
        # transport statistics (distinct from the audit ledger)
        self.delivered = 0
        self.wakeups = 0   # recv_batch calls that blocked and then returned work

    def deliver(self, desc) -> None:
        """Append one descriptor, and wake the receiver if it sleeps; safe
        from any context. A refused descriptor (closed endpoint, full inbox)
        raises and stays with the sender, which owns its frame and counts
        the drop."""
        with self._lock:
            if self._closed:
                raise UnknownDestination(f"{self.fn_id}: endpoint closed")
            if len(self._inbox) >= self.capacity:
                raise InboxFull(self.fn_id)
            self._inbox.append(desc)
            self.delivered += 1
            sleeping, self._sleeping = self._sleeping, False
        if sleeping:
            os.eventfd_write(self._efd, 1)

    def recv_batch(self, max_batch: int) -> list:
        """Return up to ``max_batch`` queued descriptors in arrival order,
        blocking only while the inbox is empty. After :meth:`close`, the
        remaining inbox is drained first, then ``EndpointClosed`` is raised."""
        if max_batch < 1:
            raise InvalidConfig("max_batch must be >= 1")
        inbox = self._inbox
        blocked = False
        while True:
            with self._lock:
                if inbox:
                    batch = [inbox.popleft() for _ in range(min(max_batch, len(inbox)))]
                    break
                if self._closed:
                    raise EndpointClosed(self.fn_id)
                self._sleeping = True
            os.eventfd_read(self._efd)
            blocked = True
        self.wakeups += blocked
        return batch

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
        """Stop accepting deliveries and wake the receiver if it sleeps.

        Queued descriptors stay in the inbox, so a blocked receiver drains
        them before seeing EndpointClosed.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sleeping, self._sleeping = self._sleeping, False
        if sleeping:
            os.eventfd_write(self._efd, 1)
