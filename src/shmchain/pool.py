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
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

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


@dataclass(frozen=True)
class FrameRef:
    """Handle to one frame; dies when the frame is freed or reallocated."""

    index: int
    generation: int


class FramePool:
    """Frame allocator over one shared byte region.

    Generation parity encodes state: odd means allocated, even means free.
    Both ``alloc_frame`` and ``free_frame`` bump the counter, so a ref issued
    before a free can never pass validation again.
    """

    def __init__(self, config: PoolConfig, region, *, owner: bool = True,
                 segment=None):
        self.config = config
        self._region = region
        self._segment = segment  # SharedMemory keeping the mmap alive
        self._owner = owner
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
        with self._lock:
            if not self._free:
                return None
            idx = self._free.pop()
            self._gen[idx] += 1  # now odd: allocated
            return FrameRef(idx, self._gen[idx])

    def free_frame(self, ref: FrameRef) -> None:
        if not self._owner:
            raise NotPoolOwner(self.config.domain_prefix)
        with self._lock:
            self._check_index(ref)
            current = self._gen[ref.index]
            if ref.generation == current and current % 2 == 1:
                self._gen[ref.index] += 1  # now even: free
                self._free.append(ref.index)
                return
            if ref.generation == current - 1 and current % 2 == 0:
                # this very ref already performed the free
                raise DoubleFree(f"frame {ref.index} gen {ref.generation}")
            raise StaleRef(f"frame {ref.index} gen {ref.generation} vs {current}")

    # -- frame I/O ----------------------------------------------------------

    def write_frame(self, ref: FrameRef, offset: int, data) -> None:
        view = self.frame_view(ref, offset, len(data))
        view[:] = data

    def read_frame(self, ref: FrameRef, offset: int, length: int) -> bytes:
        return bytes(self.frame_view(ref, offset, length))

    def frame_view(self, ref: FrameRef, offset: int = 0, length: int | None = None):
        """Writable zero-copy window into the frame; bounds checked."""
        self._check_ref(ref)
        fsz = self.config.frame_size
        if length is None:
            length = fsz - offset
        if offset < 0 or length < 0 or offset + length > fsz:
            raise OutOfBounds(f"offset {offset} length {length} frame_size {fsz}")
        base = ref.index * fsz + offset
        return memoryview(self._region)[base:base + length]

    # -- introspection ------------------------------------------------------

    @property
    def free_count(self) -> int:
        with self._lock:
            return len(self._free)

    @property
    def in_flight_count(self) -> int:
        return self.config.frame_count - self.free_count

    def _check_index(self, ref: FrameRef) -> None:
        if not 0 <= ref.index < self.config.frame_count:
            raise OutOfBounds(f"frame index {ref.index}")

    def _check_ref(self, ref: FrameRef) -> None:
        self._check_index(ref)
        if not self._owner:
            # allocator state lives with the creator; a secondary attacher
            # trusts the descriptors routed to it (admission happened at
            # attach time, via the prefix)
            return
        current = self._gen[ref.index]
        if ref.generation != current or current % 2 == 0:
            raise StaleRef(f"frame {ref.index} gen {ref.generation} vs {current}")

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
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
        # The tracker would unlink the creator's segment when this process
        # exits (bpo-39959); only the creator may unlink.
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
