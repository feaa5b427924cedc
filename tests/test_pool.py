import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time
from multiprocessing import shared_memory
from pathlib import Path

import pytest

import shmchain

from shmchain.descriptors import PacketDescriptor
from shmchain.errors import (
    DoubleFree,
    DuplicatePrefix,
    InvalidConfig,
    NotPoolOwner,
    OutOfBounds,
    PoolExhausted,
    StaleRef,
    UnknownPrefix,
)
from shmchain.pool import FrameRef, PoolConfig, PoolRegistry

FRAME_OPS = {
    "frame_view": lambda pool, ref: pool.frame_view(ref, 0, 4),
    "write_frame": lambda pool, ref: pool.write_frame(ref, 0, b"abcd"),
    "read_frame": lambda pool, ref: pool.read_frame(ref, 0, 4),
    "free_frame": lambda pool, ref: pool.free_frame(ref),
    "free_frames": lambda pool, ref: pool.free_frames([ref]),
}


def test_create_pool_all_frames_free(registry):
    pool = registry.create(PoolConfig("mn0", 64, 2048))
    assert pool.free_count == 64
    assert pool.in_flight_count == 0


@pytest.mark.parametrize("count,size", [(1, 2048), (0, 2048), (4, 64), (4, 100),
                                        (4, 3000)])
def test_invalid_config_rejected(count, size):
    with pytest.raises(InvalidConfig):
        PoolConfig("x", count, size).validate()


def test_empty_prefix_rejected():
    with pytest.raises(InvalidConfig):
        PoolConfig("", 4, 2048).validate()


def test_duplicate_prefix(registry):
    registry.create(PoolConfig("mn0", 4, 2048))
    with pytest.raises(DuplicatePrefix):
        registry.create(PoolConfig("mn0", 4, 2048))


def test_attach_unknown_prefix_refused(registry):
    registry.create(PoolConfig("mn0", 4, 2048))
    with pytest.raises(UnknownPrefix):
        registry.attach("evil")


def test_attach_shares_storage(registry):
    pool = registry.create(PoolConfig("mn0", 4, 2048))
    handles = [registry.attach("mn0") for _ in range(3)]
    ref = pool.alloc_frame()
    pool.write_frame(ref, 0, b"\xab" * 100)
    for handle in handles:
        assert handle.read_frame(ref, 0, 100) == b"\xab" * 100


def test_capacity_and_exhaustion(registry):
    pool = registry.create(PoolConfig("mn0", 2, 2048))
    pool.alloc_frame()
    pool.alloc_frame()
    with pytest.raises(PoolExhausted):
        pool.alloc_frame()


def test_alloc_free_alloc_same_index_new_generation(pool):
    first = pool.alloc_frame()
    pool.free_frame(first)
    second = pool.alloc_frame()
    assert second.index == first.index
    assert second.generation != first.generation


def test_conservation_after_full_cycle(pool):
    refs = [pool.alloc_frame() for _ in range(64)]
    assert pool.free_count == 0
    for ref in refs:
        pool.free_frame(ref)
    assert pool.free_count == 64


def test_stale_ref_after_free(pool):
    ref = pool.alloc_frame()
    pool.free_frame(ref)
    pool.alloc_frame()  # reuse the slot
    with pytest.raises(StaleRef):
        pool.read_frame(ref, 0, 1)
    with pytest.raises(StaleRef):
        pool.free_frame(ref)


def test_double_free_detected(pool):
    ref = pool.alloc_frame()
    pool.free_frame(ref)
    with pytest.raises(DoubleFree):
        pool.free_frame(ref)


@pytest.mark.parametrize("bad_first,fault", [("stale", StaleRef),
                                             ("freed", DoubleFree)])
def test_free_frames_frees_every_good_ref_then_raises(pool, bad_first, fault):
    """A burst with one stale and one already-freed ref among good ones:
    every good ref is freed, then the fault ``free_frame`` gives for the
    first bad ref is raised."""
    good = [pool.alloc_frame() for _ in range(4)]
    stale = pool.alloc_frame()
    pool.free_frame(stale)
    assert pool.alloc_frame().index == stale.index  # the slot lives again
    freed = pool.alloc_frame()
    pool.free_frame(freed)  # nothing is allocated after this free
    bad = [stale, freed] if bad_first == "stale" else [freed, stale]
    with pytest.raises(fault):
        pool.free_frame(bad[0])
    free_before = pool.free_count
    with pytest.raises(fault):
        pool.free_frames([good[0], bad[0], good[1], bad[1], good[2], good[3]])
    assert pool.free_count == free_before + len(good)
    for ref in good:  # each good ref was freed once, and only once
        with pytest.raises(DoubleFree):
            pool.free_frame(ref)


def test_free_frames_out_of_range_frees_the_rest(pool):
    good = pool.alloc_frame()
    with pytest.raises(OutOfBounds):
        pool.free_frames([FrameRef(64, 1), good])
    assert pool.free_count == 64


def test_free_frames_same_ref_twice_is_a_double_free(pool):
    ref = pool.alloc_frame()
    with pytest.raises(DoubleFree):
        pool.free_frames([ref, ref])
    assert pool.free_count == 64


def test_free_frames_empty_burst_does_nothing(pool):
    live = pool.alloc_frame()
    pool.free_frames([])
    pool.free_frames(())
    assert pool.free_count == 63
    pool.write_frame(live, 0, b"live")  # the live ref is untouched


def test_write_read_round_trip(pool):
    ref = pool.alloc_frame()
    pool.write_frame(ref, 0, b"\xab" * 100)
    assert pool.read_frame(ref, 0, 100) == b"\xab" * 100


def test_out_of_bounds(pool):
    ref = pool.alloc_frame()
    with pytest.raises(OutOfBounds):
        pool.write_frame(ref, 2047, b"xx")
    with pytest.raises(OutOfBounds):
        pool.read_frame(ref, 2040, 9)
    with pytest.raises(OutOfBounds):
        pool.frame_view(ref, -1, 4)


@pytest.mark.parametrize("op", sorted(FRAME_OPS))
def test_stale_ref_refused_by_every_access(pool, op):
    ref = pool.alloc_frame()
    pool.free_frame(ref)
    again = pool.alloc_frame()  # the slot is live again under a new generation
    assert again.index == ref.index
    with pytest.raises(StaleRef):
        FRAME_OPS[op](pool, ref)
    pool.write_frame(again, 0, b"live")  # the live ref still works
    assert pool.read_frame(again, 0, 4) == b"live"


@pytest.mark.parametrize("op", sorted(FRAME_OPS))
@pytest.mark.parametrize("index", [-1, 64, 1 << 20])
def test_out_of_range_index_refused_by_every_access(pool, op, index):
    with pytest.raises(OutOfBounds):
        FRAME_OPS[op](pool, FrameRef(index, 1))
    assert pool.free_count == 64


def test_frame_views_checks_each_descriptor_of_a_burst(pool):
    """``frame_views`` gives what ``frame_view`` gives for each good
    descriptor and ``None`` for each that ``frame_view`` refuses: a freed
    frame, a reallocated one, an index out of range, a window past the
    frame or a negative one. The good views are writable windows."""
    live = pool.alloc_frame()
    pool.write_frame(live, 0, b"live-bytes")
    stale = pool.alloc_frame()
    pool.free_frame(stale)
    reused = pool.alloc_frame()
    assert reused.index == stale.index
    freed = pool.alloc_frame()
    pool.free_frame(freed)  # nothing is allocated after this free
    descs = [
        PacketDescriptor(live, 0, 10, "in", 0),
        PacketDescriptor(freed, 0, 4, "in", 1),
        PacketDescriptor(live, 5, 5, "in", 2),
        PacketDescriptor(stale, 0, 4, "in", 3),
        PacketDescriptor(FrameRef(64, 1), 0, 4, "in", 4),
        PacketDescriptor(live, 2040, 9, "in", 5),
        PacketDescriptor(live, -1, 4, "in", 6),
        PacketDescriptor(live, 4, -1, "in", 7),
        PacketDescriptor(reused, 0, 2048, "in", 8),
    ]
    views = pool.frame_views(descs)
    good = [0, 2, 8]
    assert [i for i, view in enumerate(views) if view is not None] == good
    for i in good:
        d = descs[i]
        assert bytes(views[i]) == bytes(pool.frame_view(d.frame, d.offset, d.length))
    for i, d in enumerate(descs):
        if i not in good:
            with pytest.raises((OutOfBounds, StaleRef)):
                pool.frame_view(d.frame, d.offset, d.length)
    views[2][0:5] = b"BYTES"
    assert pool.read_frame(live, 0, 10) == b"live-BYTES"
    assert pool.frame_views([]) == []


def test_frame_ref_is_a_hashable_value():
    ref = FrameRef(3, 7)
    assert (ref.index, ref.generation) == (3, 7)
    assert ref == FrameRef(3, 7) and ref != FrameRef(3, 9)
    assert len({ref, FrameRef(3, 7), FrameRef(4, 7)}) == 2


class YieldingGenerations(list):
    """A pool's generation list that gives up the interpreter on every read,
    so that a thread switch falls between ``free_frame``'s read and write of
    a generation: without the pool lock, two frees of one ref both win."""

    def __getitem__(self, index):
        value = list.__getitem__(self, index)
        time.sleep(0)
        return value


def test_racing_frees_exactly_one_wins(pool):
    """Eight threads free the same refs at once, with the interpreter
    switching threads as often as it can and inside the free's
    read-modify-write. Each ref is freed by exactly one thread, every other
    attempt raises DoubleFree, and the allocator comes out whole."""
    threads = 8
    frames = pool.config.frame_count
    pool._gen = YieldingGenerations(pool._gen)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 0.3
        rounds = 0
        while rounds < 3 or time.monotonic() < deadline:
            rounds += 1
            refs = [pool.alloc_frame() for _ in range(frames)]
            freed: list[FrameRef] = []
            refused: list[FrameRef] = []
            other: list[BaseException] = []
            barrier = threading.Barrier(threads)

            def race(seed):
                order = refs[:]
                random.Random(seed).shuffle(order)
                barrier.wait()
                for ref in order:
                    try:
                        pool.free_frame(ref)
                        freed.append(ref)
                    except DoubleFree:
                        refused.append(ref)
                    except BaseException as exc:  # anything else is a fault
                        other.append(exc)

            workers = [threading.Thread(target=race, args=(rounds * threads + i,))
                       for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
            assert other == []
            assert sorted(freed) == sorted(refs)  # each ref freed exactly once
            assert len(refused) == (threads - 1) * frames
            assert pool.free_count == frames
    finally:
        sys.setswitchinterval(old_interval)
    indices = [pool.alloc_frame().index for _ in range(frames)]
    assert sorted(indices) == list(range(frames))
    assert pool.free_count == 0


def test_shared_pool_releases_after_views_dropped(tmp_path):
    reg = PoolRegistry(registry_dir=tmp_path)
    pool = reg.create(PoolConfig("shared-views", 8, 2048), shared=True)
    refs = [pool.alloc_frame() for _ in range(3)]
    for n, ref in enumerate(refs):
        view = pool.frame_view(ref)
        view[:4] = bytes([n]) * 4
        pool.write_frame(ref, 4, b"tail")
        assert pool.read_frame(ref, 0, 8) == bytes([n]) * 4 + b"tail"
        del view
    for ref in refs:
        pool.free_frame(ref)
    reg.release("shared-views")  # unmaps the segment: no view may still hold it
    assert pool.closed
    assert not (tmp_path / "shared-views.pool.json").exists()
    with pytest.raises(UnknownPrefix):
        reg.attach("shared-views")


def test_isolation_between_prefixes(registry):
    a = registry.create(PoolConfig("pa", 4, 2048))
    b = registry.create(PoolConfig("pb", 4, 2048))
    ref_a = a.alloc_frame()
    a.write_frame(ref_a, 0, b"AAAA")
    ref_b = b.alloc_frame()
    b.write_frame(ref_b, 0, b"BBBB")
    assert a.read_frame(ref_a, 0, 4) == b"AAAA"
    assert b.read_frame(ref_b, 0, 4) == b"BBBB"


def _child_attach(registry_dir, prefix, index, out):
    reg = PoolRegistry(registry_dir=registry_dir)
    handle = reg.attach(prefix)
    ref = FrameRef(index, 1)
    data = handle.read_frame(ref, 0, 8)
    handle.write_frame(ref, 8, b"reply!!!")
    handle.close()
    out.put(bytes(data))


CHILD_ATTACH = """
import multiprocessing, sys
from pathlib import Path
from shmchain.pool import PoolConfig, PoolRegistry

def child(registry_dir):
    PoolRegistry(registry_dir=registry_dir).attach("child0").close()

if __name__ == "__main__":
    reg = PoolRegistry(registry_dir=Path(sys.argv[2]))
    pool = reg.create(PoolConfig("child0", 8, 2048), shared=True)
    print(pool._segment.name)
    proc = multiprocessing.get_context(sys.argv[1]).Process(
        target=child, args=(reg.registry_dir,))
    proc.start()
    proc.join(timeout=30)
    assert proc.exitcode == 0, proc.exitcode
    reg.release("child0")
"""


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_child_attach_keeps_creator_tracker_registration(tmp_path, start_method):
    """A child of the creator shares its resource tracker; the child's
    attach must leave the creator's registration alone, so that the
    creator's release unregisters cleanly and the segment is gone."""
    script = tmp_path / "child_attach.py"
    script.write_text(CHILD_ATTACH)
    src = Path(shmchain.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    # the tracker writes to this process's stderr and exits with it, so
    # the captured stderr holds every complaint it made
    result = subprocess.run(
        [sys.executable, str(script), start_method, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "KeyError" not in result.stderr, result.stderr
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=result.stdout.strip())


def test_multiprocess_attach_shares_frames(tmp_path):
    reg = PoolRegistry(registry_dir=tmp_path)
    pool = reg.create(PoolConfig("shared0", 8, 2048), shared=True)
    try:
        ref = pool.alloc_frame()
        assert ref.index == 0 and ref.generation == 1
        pool.write_frame(ref, 0, b"hello-mp")
        ctx = multiprocessing.get_context("fork")
        out = ctx.Queue()
        proc = ctx.Process(target=_child_attach,
                           args=(tmp_path, "shared0", ref.index, out))
        proc.start()
        assert out.get(timeout=10) == b"hello-mp"
        proc.join(timeout=10)
        assert pool.read_frame(ref, 8, 8) == b"reply!!!"
    finally:
        reg.clear()


def test_secondary_attach_cannot_allocate(tmp_path):
    reg = PoolRegistry(registry_dir=tmp_path)
    reg.create(PoolConfig("shared1", 8, 2048), shared=True)
    try:
        other = PoolRegistry(registry_dir=tmp_path)
        handle = other.attach("shared1")
        with pytest.raises(NotPoolOwner):
            handle.alloc_frame()
        with pytest.raises(NotPoolOwner):
            handle.free_frames([FrameRef(0, 1)])
        handle.close()
    finally:
        reg.clear()
