"""Polling descriptor transport: bounded SPSC FIFO rings.

A ring carries descriptors between exactly one producer context and one
consumer context. Cursors are plain integers; the single-writer rule per
cursor plus the interpreter's atomic attribute access give the needed
release/acquire ordering. Full and empty are reported in-band (``False`` /
``None``) because poll loops sit on these calls.
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

    def burst_dequeue(self, max_n: int) -> list:
        """Drain up to max_n descriptors in FIFO order (possibly none)."""
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        out = []
        tail = self._tail
        head = self._head
        slots = self._slots
        mask = self._mask
        while tail != head and len(out) < max_n:
            idx = tail & mask
            out.append(slots[idx])
            slots[idx] = None
            tail += 1
        self._tail = tail
        return out

    def __len__(self) -> int:
        return self._head - self._tail

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self)


@dataclass
class RingPair:
    """Per-function receive/transmit rings; always two distinct rings."""

    rx: DescriptorRing
    tx: DescriptorRing

    @classmethod
    def new(cls, capacity: int = DEFAULT_RING_CAPACITY) -> "RingPair":
        return cls(DescriptorRing(capacity), DescriptorRing(capacity))


@dataclass
class NicRingSet:
    """Ring pair for event-driven ingress emulation.

    ``fill`` holds descriptors of frames parked for the next incoming packet;
    ``completion`` holds descriptors of transmitted frames awaiting recycling.
    """

    completion: DescriptorRing
    fill: DescriptorRing

    @classmethod
    def new(cls, capacity: int = DEFAULT_RING_CAPACITY) -> "NicRingSet":
        return cls(DescriptorRing(capacity), DescriptorRing(capacity))

    def cycle(self) -> int:
        """Move every completed descriptor back to the fill ring.

        Returns the number recycled. When the fill ring has no space at all,
        completion entries are left in place for the next cycle and
        ``FillRingFull`` is raised.
        """
        moved = 0
        while len(self.completion):
            # check space before dequeuing so completion keeps single-producer
            # discipline (nothing is ever pushed back)
            if self.fill.free_slots == 0:
                if moved == 0:
                    raise FillRingFull("fill ring full, nothing recycled")
                break
            self.fill.enqueue(self.completion.dequeue())
            moved += 1
        return moved
