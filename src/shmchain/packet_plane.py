"""Packet plane: the L2/L3 edges of a chain run by :class:`ChainRuntime`.

Ingress places each packet into a pool frame, the emulated DMA, and hands
its descriptor to the chain; egress reads the frame out to the sink, the
DMA the other way, and recycles the frame. Both modes transmit a burst in
one loop, ``_transmit``: it checks the burst's frames with one
``frame_views`` call, then for each packet reads it out, hands it to the
sink with one retry, closes its trace and counts it. Polling mode allocates
a frame per packet, routes it onto the entry function's RX ring, and runs
egress on the chain's worker thread: it transmits a burst, then frees the
sent frames with one ``free_frames`` call, under one acquire of the pool
lock. Event mode keeps frames parked on a fill ring, the way receive
buffers stay posted to a NIC: ingress takes a parked frame, writes the
packet into it, makes a fresh descriptor for it and sends that to the
router, which routes it like any other hop, and a packet routed to EGRESS
is sent on to a TX stage that transmits each batch it receives and parks
the sent frames on the completion ring. Like AF_XDP's fill and completion
rings, both rings carry frames, not descriptors.
Ingress reaps that ring itself: when the fill ring runs dry it moves every
completion back before it takes a frame, as a NIC driver reaps its
completion ring before it refills its receive ring, so no thread exists
only to recycle frames.
"""

from __future__ import annotations

import threading

from .audit import INTERRUPTS, AuditLedger
from .descriptors import INGRESS_ID, FlowKey, PacketDescriptor
from .errors import PlaneUnavailable
from .events import EventEndpoint
from .pool import FramePool
from .rings import DEFAULT_RING_CAPACITY, NicRingSet
from .runtime import POLLING, ChainRuntime, Mode


def _null_sink(payload: bytes, desc) -> None:
    pass


class PacketPlane(ChainRuntime):
    """One chain of packet functions under a single manager."""

    def __init__(self, pool: FramePool, mode: Mode = Mode.POLLING,
                 ledger: AuditLedger | None = None, *, name: str = "pkt"):
        super().__init__(pool, mode, ledger, name=name)
        self._sink = _null_sink
        # every offered packet, refused ones included, so that
        # ingress = egress + drops + in flight
        self.ingress_count = 0
        self.egress_count = 0
        self._nic_rings: NicRingSet | None = None  # event mode, built at start
        self._tx_ep: EventEndpoint | None = None  # event mode, built at start
        # the fill ring is fed by the ingress reap and by every drop path
        self._fill_lock = threading.Lock()

    def set_sink(self, sink) -> None:
        self._sink = sink

    # -- edges ------------------------------------------------------------------

    def _start_edges(self) -> None:
        if self._mode is POLLING:
            return
        self._tx_ep = self._new_endpoint("tx")
        self._nic_rings = NicRingSet.new()
        for _ in range(min(self.pool.config.frame_count // 2, DEFAULT_RING_CAPACITY)):
            self._nic_rings.fill.enqueue(self.pool.alloc_frame())
        self._spawn("tx", self._serve, self._tx_ep, self._transmit_event)

    def _close_edges(self) -> None:
        # parked frames are not in flight: they are freed, not dropped
        if self._nic_rings is not None:
            for ring in (self._nic_rings.fill, self._nic_rings.completion):
                self._free(list(self._drain(ring)))
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
            self._count_drop("oversize")
            return False
        if self._mode is POLLING:
            return self._ingress_polling(payload, flow)
        return self._ingress_event(payload, flow)

    def _ingress_polling(self, payload: bytes, flow) -> bool:
        ref = self.pool.try_alloc_frame()
        if ref is None:
            self._count_drop("pool_exhausted")
            return False
        self.pool.write_frame(ref, 0, payload)
        desc = PacketDescriptor(ref, 0, len(payload), INGRESS_ID,
                                next(self._trace_ids), flow=flow)
        return self._route(INGRESS_ID, (desc,)) == 1

    def _ingress_event(self, payload: bytes, flow) -> bool:
        fill = self._nic_rings.fill
        ref = fill.dequeue()
        if ref is None:
            # reap the completion ring, the only way a sent frame comes back
            with self._fill_lock:
                self._nic_rings.cycle()
            ref = fill.dequeue()
            if ref is None:
                self._count_drop("fill_empty")
                return False
        self.pool.write_frame(ref, 0, payload)
        desc = PacketDescriptor(ref, 0, len(payload), INGRESS_ID,
                                next(self._trace_ids), flow=flow)
        if self.ledger is not None:
            # delivery event that kicks the kernel-side redirect
            self.ledger.record(desc.trace_id, 0, INTERRUPTS, 1)
        # the router, not this thread, routes it to the entry function
        return self._send(desc, self._router_ep)

    # -- egress and drops -------------------------------------------------------------

    def _egress(self, batch) -> None:
        if self._mode is POLLING:
            # the sent frames go back to the pool under one lock acquire
            self._free(self._transmit(batch))
        else:
            for desc in batch:
                self._send(desc, self._tx_ep)

    def _transmit_event(self, batch) -> None:
        """The TX stage's step: transmit the batch, then park the sent
        frames on the completion ring for ingress to reap."""
        sent = self._transmit(batch)
        parked = self._nic_rings.completion.enqueue_burst(sent)
        if parked < len(sent):
            self._free(sent[parked:])

    def _transmit(self, batch) -> list:
        """Hand a burst to the sink in one loop: read each packet out of its
        frame, give it to the sink with one retry, close its trace and count
        it. Returns the frames of the packets that went out, in order; the
        caller still owns them. A packet the sink refuses twice is dropped
        as ``sink_unavailable``; one whose frame fails the pool's checks is
        dropped as ``bad_frame`` and never read."""
        sink, ledger = self._sink, self.ledger
        sent = []
        for desc, view in zip(batch, self.pool.frame_views(batch)):
            if view is None:
                self._drop(desc, "bad_frame")
                continue
            # reading the frame out for the wire is the DMA analog: not a copy
            payload = view.tobytes()
            try:
                sink(payload, desc)
            except Exception:
                try:
                    sink(payload, desc)  # one retry, then the packet is lost
                except Exception:
                    self._drop(desc, "sink_unavailable")
                    continue
            if ledger is not None:
                ledger.complete(desc.trace_id, "egress")
            sent.append(desc.frame)
        self.egress_count += len(sent)
        return sent

    def _recycle(self, ref) -> None:
        with self._fill_lock:
            parked = self._nic_rings.fill.enqueue(ref)
        if not parked:
            self.pool.free_frame(ref)

    def _drop(self, desc: PacketDescriptor, reason: str) -> None:
        """Count the drop and close its trace, then free the frame (polling)
        or park it back on the fill ring (event). A frame that fails the
        pool's checks may have another owner, so it is never parked: it is
        freed, and the free's fault kept for ``stop``."""
        self._count_drop(reason, desc)
        if self._mode is POLLING or self.pool.frame_views((desc,))[0] is None:
            self._free((desc.frame,))
        else:
            self._recycle(desc.frame)

    # -- stats -------------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "mode": self._mode.value,
            "ingress": self.ingress_count,
            "egress": self.egress_count,
            "drops": dict(self.drops),
            "pool_free": self.pool.free_count,
            **self.event_counts(),
        }
