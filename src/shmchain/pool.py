"""Shared frame pool: the single home for packet payload bytes.

A pool is a contiguous region of fixed-size frames plus an allocator with
single-owner discipline. Components gain access by attaching with the pool's
domain prefix; an unknown prefix is refused, which is the admission control
for the chain's security domain.

Frame access itself is unsynchronized by design: at any instant a frame is
either on the free list or reachable through exactly one live ref, and the
descriptor transports preserve that ownership as descriptors move through a
chain. Generation counters turn violations of the discipline into immediate
``StaleRef``/``DoubleFree`` errors instead of silent corruption.

Every packet passes through this module on each stage, so its hot path
is kept lean. A ref is a plain tuple, ``FrameRef(index, generation)``. A
pool keeps one ``memoryview`` of its region for its whole life, and every
frame access makes its index, ownership and bounds checks once, in
``_base``, then slices that view: ``write_frame``, ``read_frame`` and
``frame_view`` each do so directly. ``frame_views`` makes the same checks
for a whole burst of descriptors in one loop, for the burst handlers and
packet egress. Only the allocator state, the free stack and the generation
counters, is under the pool lock, because ingress allocates and egress
frees on different threads. Polling egress frees a whole burst with
``free_frames``, under one acquire of that lock.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import NamedTuple

from ._util import is_power_of_two
from .errors import (
    DoubleFree,
    DuplicatePrefix,
    InvalidConfig,
    NotPoolOwner,
    OutOfBounds,
    PoolExhausted,
    StaleRef,
    UnknownPrefix,
)

DEFAULT_FRAME_COUNT = 4096
DEFAULT_FRAME_SIZE = 2048
LAYOUT_VERSION = 1


@dataclass(frozen=True)
class PoolConfig:
    domain_prefix: str
    frame_count: int = DEFAULT_FRAME_COUNT
    frame_size: int = DEFAULT_FRAME_SIZE

    def validate(self) -> None:
        if not self.domain_prefix:
            raise InvalidConfig("domain_prefix must be non-empty")
        if self.frame_count < 2:
            raise InvalidConfig(f"frame_count must be >= 2, got {self.frame_count}")
        if self.frame_size < 128 or not is_power_of_two(self.frame_size):
            raise InvalidConfig(
                f"frame_size must be a power of two >= 128, got {self.frame_size}"
            )


class FrameRef(NamedTuple):
    """Handle to one frame; dies when the frame is freed or reallocated."""

    index: int
    generation: int


_new_tuple = tuple.__new__


def _free_fault(index: int, generation: int, current: int) -> Exception:
    """The fault of freeing ``(index, generation)`` when the frame's
    generation reads ``current``."""
    if generation == current - 1 and current % 2 == 0:
        # this very ref already performed the free
        return DoubleFree(f"frame {index} gen {generation}")
    return StaleRef(f"frame {index} gen {generation} vs {current}")


class FramePool:
    """Frame allocator over one shared byte region.

    Generation parity encodes state: odd means allocated, even means free.
    Both ``alloc_frame`` and ``free_frame`` bump the counter, so a ref issued
    before a free can never pass validation again.
    """

    def __init__(self, config: PoolConfig, region, *, owner: bool = True,
                 segment=None):
        self.config = config
        self._segment = segment  # SharedMemory keeping the mmap alive
        self._owner = owner
        # one view for the pool's life; every frame access slices it
        self._view = memoryview(region)
        self._lock = threading.Lock()
        self._gen = [0] * config.frame_count
        # LIFO free stack; index 0 is handed out first.
        self._free = list(range(config.frame_count - 1, -1, -1))
        self.closed = False

    # -- allocator ---------------------------------------------------------

    def alloc_frame(self) -> FrameRef:
        ref = self.try_alloc_frame()
        if ref is None:
            raise PoolExhausted(self.config.domain_prefix)
        return ref

    def try_alloc_frame(self) -> FrameRef | None:
        """Exception-free allocation for drop-on-exhaustion hot paths."""
        if not self._owner:
            raise NotPoolOwner(
                f"pool {self.config.domain_prefix!r} attached read/write only; "
                "allocation belongs to the creating process"
            )
        # acquire/release costs half of a ``with`` block
        lock = self._lock
        lock.acquire()
        try:
            if not self._free:
                return None
            idx = self._free.pop()
            gen = self._gen[idx] + 1  # now odd: allocated
            self._gen[idx] = gen
        finally:
            lock.release()
        # FrameRef(idx, gen) without the Python frame of its generated __new__
        return _new_tuple(FrameRef, (idx, gen))

    def free_frame(self, ref: FrameRef) -> None:
        if not self._owner:
            raise NotPoolOwner(self.config.domain_prefix)
        index, generation = ref
        if not 0 <= index < self.config.frame_count:
            raise OutOfBounds(f"frame index {index}")
        lock = self._lock
        lock.acquire()
        try:
            current = self._gen[index]
            if generation == current and current % 2 == 1:
                self._gen[index] = current + 1  # now even: free
                self._free.append(index)
                return
        finally:
            lock.release()
        raise _free_fault(index, generation, current)

    def free_frames(self, refs) -> None:
        """Free a burst of frames under one lock acquire, as DPDK's
        ``rte_pktmbuf_free_bulk`` does. Every good ref is freed; then the
        fault ``free_frame`` would raise for the first bad one is raised."""
        if not self._owner:
            raise NotPoolOwner(self.config.domain_prefix)
        frame_count = self.config.frame_count
        gens = self._gen
        free = self._free
        fault = None
        lock = self._lock
        lock.acquire()
        try:
            for index, generation in refs:
                if not 0 <= index < frame_count:
                    if fault is None:
                        fault = OutOfBounds(f"frame index {index}")
                    continue
                current = gens[index]
                if generation == current and current % 2 == 1:
                    gens[index] = current + 1  # now even: free
                    free.append(index)
                elif fault is None:
                    fault = _free_fault(index, generation, current)
        finally:
            lock.release()
        if fault is not None:
            raise fault

    # -- frame I/O ----------------------------------------------------------

    def _base(self, ref: FrameRef, offset: int, length: int) -> int:
        """Region offset of ``length`` bytes at ``offset`` in ``ref``'s frame,
        after the index, ownership and bounds checks."""
        index, generation = ref
        if not 0 <= index < self.config.frame_count:
            raise OutOfBounds(f"frame index {index}")
        if self._owner:
            # allocator state lives with the creator; a secondary attacher
            # trusts the descriptors routed to it (admission happened at
            # attach time, via the prefix)
            current = self._gen[index]
            if generation != current or current % 2 == 0:
                raise StaleRef(f"frame {index} gen {generation} vs {current}")
        fsz = self.config.frame_size
        if offset < 0 or length < 0 or offset + length > fsz:
            raise OutOfBounds(f"offset {offset} length {length} frame_size {fsz}")
        return index * fsz + offset

    def write_frame(self, ref: FrameRef, offset: int, data) -> None:
        length = len(data)
        base = self._base(ref, offset, length)
        self._view[base:base + length] = data

    def read_frame(self, ref: FrameRef, offset: int, length: int) -> bytes:
        base = self._base(ref, offset, length)
        return self._view[base:base + length].tobytes()

    def frame_view(self, ref: FrameRef, offset: int = 0, length: int | None = None):
        """Writable zero-copy window into the frame; bounds checked."""
        if length is None:
            length = self.config.frame_size - offset
        base = self._base(ref, offset, length)
        return self._view[base:base + length]

    def frame_views(self, descs) -> list:
        """Writable zero-copy windows into the frames of a burst of
        descriptors, in order: ``frame_view(desc.frame, desc.offset,
        desc.length)`` for each, with ``_base``'s checks made in one loop.
        A descriptor whose frame fails them gets ``None``, not a raise, so
        one bad frame leaves the rest of its burst alone."""
        frame_count = self.config.frame_count
        fsz = self.config.frame_size
        gens = self._gen if self._owner else None
        region = self._view
        views = []
        append = views.append
        for desc in descs:
            index, generation = desc.frame
            offset = desc.offset
            end = offset + desc.length
            if (not 0 <= index < frame_count or offset < 0 or not offset <= end <= fsz
                    or gens is not None
                    and (generation != gens[index] or not generation & 1)):
                append(None)
            else:
                base = index * fsz
                append(region[base + offset:base + end])
        return views

    # -- introspection ------------------------------------------------------

    @property
    def free_count(self) -> int:
        with self._lock:
            return len(self._free)

    @property
    def in_flight_count(self) -> int:
        return self.config.frame_count - self.free_count

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._view.release()
        if self._segment is not None:
            self._segment.close()


# ---------------------------------------------------------------------------
# Pool discovery: prefix -> pool. Two media, selectable per deployment:
# an in-process table (default) and a file-backed sidecar next to a named
# shared-memory segment for multi-process attach.
# ---------------------------------------------------------------------------

def default_registry_dir() -> Path:
    override = os.environ.get("SHMCHAIN_REGISTRY_DIR")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / f"shmchain-{os.getuid()}"


def _tracker_id() -> int | None:
    """Identity of the resource tracker this process reports segments to:
    the inode of the pipe to it, which a child inherits from its parent
    whether it was forked or spawned."""
    fd = resource_tracker._resource_tracker._fd
    return None if fd is None else os.fstat(fd).st_ino


class PoolRegistry:
    def __init__(self, registry_dir: Path | None = None):
        self._pools: dict[str, FramePool] = {}
        self._lock = threading.Lock()
        self._dir = registry_dir

    @property
    def registry_dir(self) -> Path:
        return self._dir if self._dir is not None else default_registry_dir()

    def _sidecar(self, prefix: str) -> Path:
        return self.registry_dir / f"{prefix}.pool.json"

    def create(self, config: PoolConfig, *, shared: bool = False) -> FramePool:
        config.validate()
        prefix = config.domain_prefix
        with self._lock:
            if prefix in self._pools:
                raise DuplicatePrefix(prefix)
            if shared:
                if self._sidecar(prefix).exists():
                    raise DuplicatePrefix(prefix)
                size = config.frame_count * config.frame_size
                segment = shared_memory.SharedMemory(create=True, size=size)
                pool = FramePool(config, segment.buf, owner=True, segment=segment)
                self.registry_dir.mkdir(parents=True, exist_ok=True)
                meta = {
                    "prefix": prefix,
                    "frame_count": config.frame_count,
                    "frame_size": config.frame_size,
                    "layout_version": LAYOUT_VERSION,
                    "segment": segment.name,
                    "tracker": _tracker_id(),
                }
                self._sidecar(prefix).write_text(json.dumps(meta))
            else:
                region = bytearray(config.frame_count * config.frame_size)
                pool = FramePool(config, region, owner=True)
            self._pools[prefix] = pool
            return pool

    def attach(self, prefix: str) -> FramePool:
        """Map the storage created under ``prefix``.

        Within the creating process this returns the creator's handle, so all
        attachers share one allocator. From another process it maps the named
        segment read/write; such secondary handles carry frame I/O only.
        """
        with self._lock:
            pool = self._pools.get(prefix)
            if pool is not None:
                return pool
        sidecar = self._sidecar(prefix)
        if not sidecar.exists():
            raise UnknownPrefix(prefix)
        meta = json.loads(sidecar.read_text())
        if meta.get("layout_version") != LAYOUT_VERSION:
            raise UnknownPrefix(f"{prefix}: layout version mismatch")
        segment = shared_memory.SharedMemory(name=meta["segment"])
        # Opening the segment registered it with this process's resource
        # tracker, which would unlink it when this process exits
        # (bpo-39959); only the creator may unlink. A child of the creator
        # shares the creator's tracker, which keeps one entry per segment,
        # the creator's, so it must not unregister.
        if _tracker_id() != meta.get("tracker"):
            try:
                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:
                pass
        config = PoolConfig(prefix, meta["frame_count"], meta["frame_size"])
        return FramePool(config, segment.buf, owner=False, segment=segment)

    def release(self, prefix: str) -> None:
        with self._lock:
            pool = self._pools.pop(prefix, None)
        if pool is None:
            raise UnknownPrefix(prefix)
        segment = pool._segment
        pool.close()
        if segment is not None:
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
            sidecar = self._sidecar(prefix)
            if sidecar.exists():
                sidecar.unlink()

    def clear(self) -> None:
        with self._lock:
            prefixes = list(self._pools)
        for prefix in prefixes:
            try:
                self.release(prefix)
            except UnknownPrefix:
                pass


_default_registry = PoolRegistry()


def create_pool(config: PoolConfig, *, shared: bool = False,
                registry: PoolRegistry | None = None) -> FramePool:
    return (registry or _default_registry).create(config, shared=shared)


def attach_pool(prefix: str, *, registry: PoolRegistry | None = None) -> FramePool:
    return (registry or _default_registry).attach(prefix)


def release_pool(prefix: str, *, registry: PoolRegistry | None = None) -> None:
    (registry or _default_registry).release(prefix)
