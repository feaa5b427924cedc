import pytest

from shmchain.errors import FillRingFull, InvalidCapacity
from shmchain.rings import DescriptorRing, NicRingSet


def test_new_ring_empty():
    ring = DescriptorRing(8)
    assert len(ring) == 0
    assert ring.capacity == 8


@pytest.mark.parametrize("cap", [6, 0, 1, 3, 1000])
def test_capacity_must_be_power_of_two(cap):
    with pytest.raises(InvalidCapacity):
        DescriptorRing(cap)


def test_smallest_legal_ring():
    ring = DescriptorRing(2)
    assert ring.enqueue("a") and ring.enqueue("b")
    assert not ring.enqueue("c")


def test_capacity_then_full():
    ring = DescriptorRing(8)
    for i in range(8):
        assert ring.enqueue(i)
    assert not ring.enqueue(8)


def test_fifo_order():
    ring = DescriptorRing(8)
    ring.enqueue("d1")
    ring.enqueue("d2")
    assert ring.dequeue() == "d1"
    assert ring.dequeue() == "d2"
    assert ring.dequeue() is None


def test_space_reclaimed_after_dequeue():
    ring = DescriptorRing(4)
    for i in range(4):
        ring.enqueue(i)
    assert not ring.enqueue(99)
    ring.dequeue()
    assert ring.enqueue(99)


def test_burst_dequeue_partial():
    ring = DescriptorRing(8)
    for i in range(3):
        ring.enqueue(i)
    assert ring.burst_dequeue(8) == [0, 1, 2]
    assert ring.burst_dequeue(8) == []


def test_burst_dequeue_leaves_remainder():
    ring = DescriptorRing(16)
    for i in range(10):
        ring.enqueue(i)
    assert ring.burst_dequeue(4) == [0, 1, 2, 3]
    assert len(ring) == 6


def test_cycle_moves_all():
    rs = NicRingSet.new(8)
    for i in range(5):
        rs.completion.enqueue(i)
    assert rs.cycle() == 5
    assert len(rs.completion) == 0
    assert rs.fill.burst_dequeue(8) == [0, 1, 2, 3, 4]


def test_cycle_empty_completion():
    rs = NicRingSet.new(8)
    assert rs.cycle() == 0


def test_cycle_fill_full():
    rs = NicRingSet.new(4)
    for i in range(4):
        rs.fill.enqueue(f"f{i}")
    rs.completion.enqueue("c0")
    with pytest.raises(FillRingFull):
        rs.cycle()
    assert len(rs.completion) == 1


def test_cycle_partial_when_fill_tightens():
    rs = NicRingSet.new(4)
    rs.fill.enqueue("f0")
    rs.fill.enqueue("f1")
    for i in range(4):
        rs.completion.enqueue(i)
    assert rs.cycle() == 2
    assert len(rs.completion) == 2


def test_cycle_with_room_never_reports_full_when_a_completion_lands_mid_cycle():
    """The completion ring's producer runs on another thread: a frame it
    posts while ``cycle`` runs is left for the next cycle, and an empty fill
    ring is never reported full."""

    class LateCompletion(DescriptorRing):
        def __len__(self):
            n = super().__len__()
            if not self.posted:
                self.posted = True
                self.enqueue("late")  # lands right after the length is read
            return n

    rs = NicRingSet(LateCompletion(4), DescriptorRing(4))
    rs.completion.posted = False
    assert rs.cycle() == 0
    assert rs.cycle() == 1
    assert rs.fill.burst_dequeue(4) == ["late"]


def test_enqueue_burst_onto_nearly_full_ring_keeps_the_rest():
    ring = DescriptorRing(8)
    for i in range(5):
        ring.enqueue(i)
    burst = ["a", "b", "c", "d", "e"]
    assert ring.enqueue_burst(burst) == 3
    assert burst == ["a", "b", "c", "d", "e"]  # the caller still holds d, e
    assert ring.enqueue_burst(burst[3:]) == 0
    assert ring.burst_dequeue(8) == [0, 1, 2, 3, 4, "a", "b", "c"]


def test_enqueue_burst_empty_and_single():
    ring = DescriptorRing(4)
    assert ring.enqueue_burst(()) == 0
    assert ring.enqueue_burst(("x",)) == 1
    assert len(ring) == 1 and ring.dequeue() == "x"


def wrapped_ring():
    """A capacity-8 ring whose cursors both stand at 6."""
    ring = DescriptorRing(8)
    for i in range(6):
        ring.enqueue(i)
    assert ring.burst_dequeue(6) == list(range(6))
    assert ring._head == ring._tail == 6
    return ring


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_bursts_keep_fifo_order_across_the_wrap(n):
    ring = wrapped_ring()
    items = [f"d{i}" for i in range(n)]
    assert ring.enqueue_burst(items) == n
    assert ring.burst_dequeue(8) == items
    # a full burst, then single enqueues, each drained across the wrap
    ring = wrapped_ring()
    assert ring.enqueue_burst(list(range(10))) == 8
    assert ring.burst_dequeue(3) == [0, 1, 2]
    for extra in (8, 9, 10):
        assert ring.enqueue(extra)
    assert ring.burst_dequeue(8) == [3, 4, 5, 6, 7, 8, 9, 10]


@pytest.mark.parametrize("take", [1, 2, 4, 7])
def test_consumed_slots_read_none(take):
    """Nothing the consumer took stays pinned by the ring."""
    ring = wrapped_ring()
    ring.enqueue_burst([object() for _ in range(7)])
    ring.burst_dequeue(take)
    held = sum(slot is not None for slot in ring._slots)
    assert held == len(ring) == 7 - take
    ring.burst_dequeue(8)
    assert ring._slots == [None] * 8


def test_burst_dequeue_zero_raises():
    ring = DescriptorRing(8)
    ring.enqueue("x")
    with pytest.raises(ValueError):
        ring.burst_dequeue(0)
    assert len(ring) == 1
