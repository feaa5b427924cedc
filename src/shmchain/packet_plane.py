"""Packet plane: the L2/L3 edges of a chain run by :class:`ChainRuntime`.

Ingress places each packet into a pool frame, the emulated DMA, and hands
its descriptor to the chain; egress reads the frame out to the sink, the
DMA the other way, and recycles the frame. Both modes transmit a burst in
one loop, ``_transmit``: it checks the burst's frames with one
``frame_views`` call, then for each packet reads it out, hands it to the
sink with one retry, closes its trace and counts it. Polling ingress
allocates a frame per packet and writes the packet into it in one call,
``try_alloc_frame(payload)``, then hands its descriptor to the chain's
entry hop, ``_enter``: one filter check and one enqueue onto the entry
function's RX ring. That is six Python calls per packet, ``ingress``
included. Polling mode runs egress on the chain's worker thread: it
transmits a burst, then frees the sent frames through the chain's one
release path, ``_free``, under one acquire of the pool lock. Event mode
keeps frames posted on a fill ring, the way receive buffers stay posted to
a NIC: ingress takes a posted frame, writes the packet into it, makes a
fresh descriptor for it and hands that to ``_enter`` itself, for one event
hop into the entry function's inbox, and each stage routes its own
survivors on. A packet routed to EGRESS takes one more hop, into a TX
stage that transmits each batch it receives and posts the sent frames on
the completion ring. Like AF_XDP's fill and completion rings, both rings
carry frames, not descriptors, and the ingress thread is the one producer
and the one consumer of the fill ring. When the fill ring runs dry,
ingress reaps the completion ring into it with one burst, then tops it up
to ``BURST`` frames from the pool, as a NIC driver reaps its completion
ring and refills its receive ring from its mempool; so no thread exists
only to recycle frames, and the plane can hold every frame of the pool in
flight. A packet that finds both rings dry and the pool empty is dropped as
``pool_exhausted``, as in polling mode. In both modes a dropped packet's
frame goes back to the pool through the chain's one ``_drop``.
"""

from __future__ import annotations

from .audit import INTERRUPTS, AuditLedger
from .descriptors import FlowKey, PacketDescriptor
from .errors import PlaneUnavailable
from .events import EventEndpoint
from .pool import FramePool
from .rings import NicRingSet
from .runtime import BURST, POLLING, ChainRuntime, Mode


def _null_sink(payload: bytes, desc) -> None:
    pass


class PacketPlane(ChainRuntime):
    """One chain of packet functions under a single manager."""

    def __init__(self, pool: FramePool, mode: Mode = Mode.POLLING,
                 ledger: AuditLedger | None = None, *, name: str = "pkt"):
        super().__init__(pool, mode, ledger, name=name)
        self._sink = _null_sink
        self._frame_size = pool.config.frame_size
        self._nic_rings: NicRingSet | None = None  # event mode, built at start
        self._tx_ep: EventEndpoint | None = None  # event mode, built at start

    def set_sink(self, sink) -> None:
        self._sink = sink

    # -- edges ------------------------------------------------------------------

    def _start_edges(self) -> None:
        if self._mode is POLLING:
            return
        self._tx_ep = self._new_endpoint("tx")
        self._nic_rings = NicRingSet.new()
        self._spawn("tx", self._serve, self._tx_ep, self._transmit_event)

    def _close_edges(self) -> None:
        # posted frames are not in flight: they are freed, not dropped
        if self._nic_rings is not None:
            for ring in (self._nic_rings.fill, self._nic_rings.completion):
                self._free(ring.burst_dequeue(ring.capacity))
            self._nic_rings = None

    # -- ingress ------------------------------------------------------------------

    def ingress(self, payload: bytes, flow: FlowKey | None = None) -> bool:
        """Place one packet into shared memory and hand its descriptor to
        the entry function. The payload write is the emulated DMA: audited as
        zero copies. Returns False when the packet was dropped: it was too
        large, no frame was free, or the entry filter or a full RX ring or
        inbox refused it.

        Polling ingress allocates and writes the frame with one
        ``try_alloc_frame(payload)`` and builds the descriptor with
        positional arguments, keywords costing more per call."""
        if not self._started:
            raise PlaneUnavailable(self.name)
        self.ingress_count += 1
        size = len(payload)
        if size > self._frame_size:
            self._count_drop("oversize")
            return False
        if self._mode is POLLING:
            ref = self.pool.try_alloc_frame(payload)
            if ref is None:
                self._count_drop("pool_exhausted")
                return False
            return self._enter(PacketDescriptor(ref, size, next(self._trace_ids), flow))
        rings = self._nic_rings
        fill = rings.fill
        ref = fill.dequeue()
        if ref is None:
            # reap the sent frames, then top up to a burst from the pool
            rings.cycle()
            alloc = self.pool.try_alloc_frame
            for _ in range(BURST - len(fill)):
                spare = alloc()
                if spare is None:
                    break
                fill.enqueue(spare)
            ref = fill.dequeue()
            if ref is None:
                self._count_drop("pool_exhausted")
                return False
        self.pool.write_frame(ref, 0, payload)
        desc = PacketDescriptor(ref, size, next(self._trace_ids), flow)
        if self.ledger is not None:
            # the NIC's delivery interrupt; the hop into the entry function,
            # made here in this context, is audited as that function's wakeup
            self.ledger.record(desc.trace_id, 0, INTERRUPTS, 1)
        return self._enter(desc)

    # -- egress -------------------------------------------------------------

    def _egress(self, batch) -> None:
        if self._mode is POLLING:
            # the sent frames go back to the pool under one lock acquire
            self._free(self._transmit(batch))
        else:
            for desc in batch:
                self._send(desc, self._tx_ep)

    def _transmit_event(self, batch) -> None:
        """The TX stage's step: transmit the batch, then post the sent
        frames on the completion ring for ingress to reap, freeing those
        that do not fit."""
        sent = self._transmit(batch)
        posted = self._nic_rings.completion.enqueue_burst(sent)
        if posted < len(sent):
            self._free(sent[posted:])

    def _transmit(self, batch) -> list:
        """Hand a burst to the sink in one loop: read each packet out of its
        frame, give it to the sink with one retry, close its trace and count
        it. Returns the frames of the packets that went out, in order; the
        caller still owns them. A packet the sink refuses twice is dropped
        as ``sink_unavailable``; one whose frame fails the pool's checks is
        dropped as ``bad_frame`` and never read."""
        sink, ledger = self._sink, self.ledger
        sent = []
        views = self.pool.frame_views(batch)
        i = 0
        for desc in batch:
            view = views[i]
            i += 1
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
