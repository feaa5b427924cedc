"""Packet plane: the L2/L3 edges of a chain run by :class:`ChainRuntime`.

Ingress places each packet into a pool frame, the emulated DMA, and hands
its descriptor to the chain; egress reads the frame out to the sink, the
DMA the other way, and recycles the frame. Polling mode allocates a frame
per packet and frees it after the sink. Event mode keeps frames parked on a
fill ring, the way receive buffers stay posted to a NIC: ingress takes
a parked frame and sends its descriptor to the router, and a TX stage hands
it to the sink and parks it on the completion ring. Ingress reaps that ring
itself: when the fill ring runs dry it moves every completion back before
it takes a frame, as a NIC driver reaps its completion ring before it
refills its receive ring, so no thread exists only to recycle frames.
"""

from __future__ import annotations

import threading

from .audit import INTERRUPTS, AuditLedger
from .descriptors import INGRESS_ID, FlowKey, PacketDescriptor
from .errors import InboxFull, PlaneUnavailable, UnknownDestination
from .events import send_audited
from .pool import FramePool
from .rings import DEFAULT_RING_CAPACITY, NicRingSet
from .runtime import ChainRuntime, Mode

TX_ID = "__tx__"


def _null_sink(payload: bytes, desc) -> None:
    pass


class PacketPlane(ChainRuntime):
    """One chain of packet functions under a single manager."""

    EDGE_IDS = (TX_ID,)

    def __init__(self, pool: FramePool, mode: Mode = Mode.POLLING,
                 ledger: AuditLedger | None = None, *, name: str = "pkt"):
        super().__init__(pool, mode, ledger, name=name)
        self._sink = _null_sink
        # every offered packet, refused ones included, so that
        # ingress = egress + drops + in flight
        self.ingress_count = 0
        self.egress_count = 0
        self._nic_rings: NicRingSet | None = None  # event mode, built at start
        # the fill ring is fed by the ingress reap and by every drop path
        self._fill_lock = threading.Lock()

    def set_sink(self, sink) -> None:
        self._sink = sink

    # -- edges ------------------------------------------------------------------

    def _start_edges(self) -> None:
        if self._mode is Mode.POLLING:
            return
        tx_ep = self._register_endpoint(TX_ID)
        self._nic_rings = NicRingSet.new()
        for _ in range(min(self.pool.config.frame_count // 2, DEFAULT_RING_CAPACITY)):
            ref = self.pool.alloc_frame()
            parked = PacketDescriptor(ref, 0, 0, INGRESS_ID, self.ROUTER_ID, -1)
            self._nic_rings.fill.enqueue(parked)
        self._spawn("tx", self._serve, tx_ep, self._egress_one)

    def _close_edges(self) -> None:
        if self._nic_rings is not None:
            self._drain(self._nic_rings.fill)
            self._drain(self._nic_rings.completion)
            self._nic_rings = None

    # -- ingress ------------------------------------------------------------------

    def ingress(self, payload: bytes, flow: FlowKey | None = None) -> bool:
        """Place one packet into shared memory and hand its descriptor to the
        chain. The payload write is the emulated DMA: audited as zero copies.
        Returns False when the packet had to be dropped (backpressure)."""
        if not self._started:
            raise PlaneUnavailable(self.name)
        self.ingress_count += 1
        if len(payload) > self.pool.config.frame_size:
            return self._refuse("oversize")
        if self._mode is Mode.POLLING:
            return self._ingress_polling(payload, flow)
        return self._ingress_event(payload, flow)

    def _refuse(self, reason: str) -> bool:
        """Count a packet refused before it was given a frame."""
        with self._count_lock:
            self.drops[reason] += 1
        return False

    def _ingress_polling(self, payload: bytes, flow) -> bool:
        ref = self.pool.try_alloc_frame()
        if ref is None:
            return self._refuse("pool_exhausted")
        self.pool.write_frame(ref, 0, payload)
        desc = PacketDescriptor(ref, 0, len(payload), INGRESS_ID, self._entry,
                                next(self._trace_ids), flow=flow)
        if not self.filters.check(INGRESS_ID, self._entry):
            self._drop(desc, "filtered")
            return False
        if not self._regs[self._entry].rings.rx.enqueue(desc):
            self._drop(desc, "ring_full")
            return False
        return True

    def _ingress_event(self, payload: bytes, flow) -> bool:
        fill = self._nic_rings.fill
        desc = fill.dequeue()
        if desc is None:
            # reap the completion ring, the only way a sent frame comes back
            with self._fill_lock:
                self._nic_rings.cycle()
            desc = fill.dequeue()
            if desc is None:
                return self._refuse("fill_empty")
        self.pool.write_frame(desc.frame, 0, payload)
        desc.offset = 0
        desc.length = len(payload)
        desc.src_fn = INGRESS_ID
        desc.dst_fn = self.ROUTER_ID
        desc.flow = flow
        desc.trace_id = next(self._trace_ids)
        desc.chain_hops = 0
        ledger = self.ledger
        if ledger is not None:
            # delivery event that kicks the kernel-side redirect
            ledger.record(desc.trace_id, 0, INTERRUPTS, 1)
        try:
            send_audited(self._sockmap, desc, ledger, step=0)
        except (UnknownDestination, InboxFull):
            self._drop(desc, "inbox_full")
            return False
        return True

    # -- egress and drops -------------------------------------------------------------

    def _egress_event(self, desc: PacketDescriptor) -> None:
        desc.dst_fn = TX_ID
        self._send_chain_hop(desc)

    def _egress_one(self, desc: PacketDescriptor) -> None:
        # reading the frame out for the wire is the DMA analog: not a copy
        payload = self.pool.read_frame(desc.frame, desc.offset, desc.length)
        try:
            self._sink(payload, desc)
        except Exception:
            try:
                self._sink(payload, desc)  # one retry, then the packet is lost
            except Exception:
                self._drop(desc, "sink_unavailable")
                return
        # count and close the trace first: in event mode the recycled
        # descriptor is refilled with the next packet's trace id
        self.egress_count += 1
        if self.ledger is not None:
            self.ledger.complete(desc.trace_id, "egress")
        if (self._mode is Mode.POLLING
                or not self._nic_rings.completion.enqueue(desc)):
            self.pool.free_frame(desc.frame)

    def _recycle(self, desc: PacketDescriptor) -> None:
        with self._fill_lock:
            parked = self._nic_rings.fill.enqueue(desc)
        if not parked:
            self.pool.free_frame(desc.frame)

    def _drop(self, desc: PacketDescriptor, reason: str) -> None:
        """Count the drop and close its trace, then free the frame (polling)
        or park it back on the fill ring (event)."""
        self._count_drop(desc, reason)
        if self._mode is Mode.POLLING:
            self.pool.free_frame(desc.frame)
        else:
            self._recycle(desc)

    # -- stats -------------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "mode": self._mode.value,
            "ingress": self.ingress_count,
            "egress": self.egress_count,
            "drops": dict(self.drops),
            "pool_free": self.pool.free_count,
        }
