"""Polling descriptor transport: bounded SPSC FIFO rings.

A ring carries descriptors between exactly one producer context and one
consumer context. Cursors are plain integers; the single-writer rule per
cursor plus the interpreter's atomic attribute access give the needed
release/acquire ordering. Full and empty are reported in-band (``False`` /
``None``, or a count) because poll loops sit on these calls.

Like DPDK's ``rte_ring_enqueue_burst`` and ``rte_ring_dequeue_burst``, the
burst calls pay their fixed cost once per burst: ``enqueue_burst`` and
``burst_dequeue`` move a whole run of slots by slice assignment, split once
where the run wraps past the end of the slot list. The producer fills slots
before it advances the head, and the consumer resets the slots it takes to
``None`` before it advances the tail, so no slot is written by both sides
and no consumed descriptor stays pinned by the ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._util import is_power_of_two
from .errors import FillRingFull, InvalidCapacity

DEFAULT_RING_CAPACITY = 1024


class DescriptorRing:
    __slots__ = ("_slots", "_mask", "_head", "_tail", "capacity")

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        if capacity < 2 or not is_power_of_two(capacity):
            raise InvalidCapacity(f"capacity must be a power of two >= 2, got {capacity}")
        self.capacity = capacity
        self._slots = [None] * capacity
        self._mask = capacity - 1
        self._head = 0  # written only by the producer
        self._tail = 0  # written only by the consumer

    def enqueue(self, desc) -> bool:
        """Producer side. Returns False when full; the caller keeps ownership."""
        head = self._head
        if head - self._tail >= self.capacity:
            return False
        self._slots[head & self._mask] = desc
        self._head = head + 1
        return True

    def dequeue(self):
        """Consumer side. Returns None when empty."""
        tail = self._tail
        if tail == self._head:
            return None
        desc = self._slots[tail & self._mask]
        self._slots[tail & self._mask] = None
        self._tail = tail + 1
        return desc

    def enqueue_burst(self, descs) -> int:
        """Producer side. Puts the longest prefix of ``descs`` that fits, in
        order, and returns its length; the rest stay with the caller."""
        head = self._head
        n = len(descs)
        room = self.capacity - (head - self._tail)
        if n > room:
            if room <= 0:
                return 0
            n = room
            descs = descs[:n]
        start = head & self._mask
        if n == 1:  # a lone packet's burst: a plain store beats a slice
            self._slots[start] = descs[0]
        elif start + n <= self.capacity:
            self._slots[start:start + n] = descs
        else:
            split = self.capacity - start
            self._slots[start:] = descs[:split]
            self._slots[:n - split] = descs[split:]
        self._head = head + n
        return n

    def burst_dequeue(self, max_n: int) -> list:
        """Drain up to max_n descriptors in FIFO order (possibly none)."""
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        tail = self._tail
        n = self._head - tail
        if n == 1:  # a lone packet's burst: a plain load and store beat slices
            slots = self._slots
            start = tail & self._mask
            out = [slots[start]]
            slots[start] = None
            self._tail = tail + 1
            return out
        if n > max_n:
            n = max_n
        elif n == 0:
            return []
        slots = self._slots
        capacity = self.capacity
        start = tail & self._mask
        end = start + n
        if end <= capacity:
            out = slots[start:end]
            slots[start:end] = [None] * n
        else:
            out = slots[start:]
            out += slots[:end - capacity]
            slots[start:] = [None] * (capacity - start)
            slots[:end - capacity] = [None] * (end - capacity)
        self._tail = tail + n
        return out

    def __len__(self) -> int:
        return self._head - self._tail

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self)


@dataclass
class NicRingSet:
    """Ring pair for event-driven ingress emulation.

    ``fill`` holds frames posted for the next incoming packet;
    ``completion`` holds transmitted frames awaiting recycling.
    """

    completion: DescriptorRing
    fill: DescriptorRing

    @classmethod
    def new(cls, capacity: int = DEFAULT_RING_CAPACITY) -> "NicRingSet":
        return cls(DescriptorRing(capacity), DescriptorRing(capacity))

    def cycle(self) -> int:
        """Move every completed frame that fits back to the fill ring, with
        one burst dequeue and one burst enqueue.

        Returns the number recycled. When the fill ring has no space at all,
        completion entries are left in place for the next cycle and
        ``FillRingFull`` is raised.
        """
        # sized before dequeuing, so that nothing is ever pushed back and
        # the completion ring keeps its single producer. The producer may
        # post more while this runs, so its length is read once: a second
        # read could see a completion that the first did not, and report a
        # fill ring with room as full.
        pending = len(self.completion)
        if pending == 0:
            return 0
        n = min(pending, self.fill.free_slots)
        if n == 0:
            raise FillRingFull("fill ring full, nothing recycled")
        return self.fill.enqueue_burst(self.completion.burst_dequeue(n))
