"""Packet plane: the L2/L3 edges of a chain run by :class:`ChainRuntime`.

Ingress places each packet into a pool frame, the emulated DMA, and hands
its descriptor to the chain; egress reads the frame out to the sink, the
DMA the other way, and recycles the frame. Polling mode allocates a frame
per packet and frees it after the sink. Event mode keeps frames parked on a
fill ring, the way receive buffers stay posted to a NIC: ingress takes
a parked frame and sends its descriptor to the router, a TX stage hands it
to the sink and parks it on the completion ring, and a coordinator moves
completions back to the fill ring.
"""

from __future__ import annotations

import threading

from .audit import INTERRUPTS, AuditLedger
from .descriptors import INGRESS_ID, FlowKey, PacketDescriptor
from .errors import FillRingFull, InboxFull, PlaneUnavailable, UnknownDestination
from .events import BatchPolicy, send_audited
from .pool import FramePool
from .rings import NicRingSet
from .runtime import ChainRuntime, Mode

TX_ID = "__tx__"


def _null_sink(payload: bytes, desc) -> None:
    pass


class PacketPlane(ChainRuntime):
    """One chain of packet functions under a single manager."""

    EDGE_IDS = (TX_ID,)
    register_nf = ChainRuntime.register

    def __init__(self, pool: FramePool, mode: Mode = Mode.POLLING,
                 ledger: AuditLedger | None = None, *, name: str = "pkt",
                 ring_capacity: int = 1024, batch: BatchPolicy | None = None,
                 burst: int = 64):
        super().__init__(pool, mode, ledger, name=name,
                         ring_capacity=ring_capacity, batch=batch, burst=burst)
        self._sink = _null_sink
        self.ingress_count = 0
        self.egress_count = 0
        self._nic_rings: NicRingSet | None = None  # event mode, built at start
        # the fill ring is fed by the coordinator and by every drop path
        self._fill_lock = threading.Lock()
        self._cycle_wakeup = threading.Event()

    def set_sink(self, sink) -> None:
        self._sink = sink

    # -- edges ------------------------------------------------------------------

    def _start_edges(self) -> None:
        if self._mode is Mode.POLLING:
            return
        tx_ep = self._register_endpoint(TX_ID)
        self._nic_rings = NicRingSet.new(self._ring_capacity)
        for _ in range(min(self.pool.config.frame_count // 2, self._ring_capacity)):
            ref = self.pool.alloc_frame()
            parked = PacketDescriptor(ref, 0, 0, INGRESS_ID, self.ROUTER_ID, -1)
            self._nic_rings.fill.enqueue(parked)
        self._spawn("tx", self._serve, tx_ep, self._egress_one)
        self._spawn("coordinator", self._coordinator_loop)

    def _wake_edges(self) -> None:
        self._cycle_wakeup.set()

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
        if self._mode is Mode.POLLING:
            return self._ingress_polling(payload, flow)
        return self._ingress_event(payload, flow)

    def _ingress_polling(self, payload: bytes, flow) -> bool:
        ref = self.pool.try_alloc_frame()
        if ref is None:
            self.drops["pool_exhausted"] += 1
            return False
        self.pool.write_frame(ref, 0, payload)
        desc = PacketDescriptor(ref, 0, len(payload), INGRESS_ID, self._entry,
                                next(self._trace_ids), flow=flow)
        if not self.filters.check(INGRESS_ID, self._entry):
            self._drop(desc, "filtered")
            return False
        if not self._regs[self._entry].rings.rx.enqueue(desc):
            self._drop(desc, "ring_full")
            return False
        self.ingress_count += 1
        return True

    def _ingress_event(self, payload: bytes, flow) -> bool:
        desc = self._nic_rings.fill.dequeue()
        if desc is None:
            self.drops["pool_exhausted"] += 1
            return False
        if len(payload) > self.pool.config.frame_size:
            self._recycle(desc)
            self.drops["oversize"] += 1
            return False
        self.pool.write_frame(desc.frame, 0, payload)
        desc.offset = 0
        desc.length = len(payload)
        desc.src_fn = INGRESS_ID
        desc.dst_fn = self.ROUTER_ID
        desc.flow = flow
        desc.trace_id = next(self._trace_ids)
        desc.chain_hops = 0
        desc.requeued = False
        ledger = self.ledger
        if ledger is not None:
            # delivery event that kicks the kernel-side redirect
            ledger.record(desc.trace_id, 0, INTERRUPTS, 1)
        try:
            send_audited(self._sockmap, desc, ledger, step=0)
        except (UnknownDestination, InboxFull):
            self._drop(desc, "inbox_full")
            return False
        self.ingress_count += 1
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
            if desc.requeued:
                self._drop(desc, "sink_unavailable")
                return
            desc.requeued = True
            if self._mode is Mode.POLLING and self._egress_ring.enqueue(desc):
                return  # retried on a later egress pass
            try:
                self._sink(payload, desc)
            except Exception:
                self._drop(desc, "sink_unavailable")
                return
        # count and close the trace first: in event mode the recycled
        # descriptor is refilled with the next packet's trace id
        self.egress_count += 1
        if self.ledger is not None:
            self.ledger.complete(desc.trace_id, "egress")
        if self._mode is Mode.POLLING:
            self.pool.free_frame(desc.frame)
        elif self._nic_rings.completion.enqueue(desc):
            self._cycle_wakeup.set()
        else:
            self.pool.free_frame(desc.frame)

    def _coordinator_loop(self) -> None:
        # blocked unless the TX side parked something on the completion ring
        while not self._stop.is_set():
            self._cycle_wakeup.wait()
            if self._stop.is_set():
                return
            self._cycle_wakeup.clear()
            try:
                with self._fill_lock:
                    self._nic_rings.cycle()
            except FillRingFull:
                pass

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
