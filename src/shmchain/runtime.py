"""Chain runtime shared by both planes: topology, routing, filtering and the
stage loops that move descriptors between chain functions.

A chain is a set of registered functions, an entry function, a routing
table and a deny-by-default filter table. The runtime runs it as stages,
and every stage does the same thing: take a burst from my inbox, run it,
hand it on. A function stage runs its handler, the router stage looks up
the next hop and checks the filter, and the egress stage gives each
descriptor to the plane's edge.

Polling mode gives every stage a spinning thread over SPSC rings: each
function has an RX and a TX ring, the router drains every TX ring, and the
egress stage drains one egress ring. Nothing blocks and nothing is copied,
so a chain hop costs nothing on the audited path. Event mode gives every
stage an event endpoint and blocks it until a delivery arrives. Every move
passes through the router's endpoint, and each send pays one interrupt plus
one context switch on the audited path.

The planes supply only their edges: where traffic enters the chain and
where it leaves. A subclass implements ``_start_edges`` (run once the
chain's transport exists, before its stages start), ``_wake_edges`` and
``_close_edges`` (at stop, before and after the stage threads are joined),
``_egress_one`` (one descriptor leaving the chain), ``_egress_event``
(where the event router hands a descriptor routed to EGRESS) and ``_drop``.

Ownership rule: a descriptor, and the frame it points to, has exactly one
owner at a time. A successful enqueue or send moves it to the receiver. A
failed one leaves it with the sender, as ``DescriptorRing.enqueue`` and
``SocketMap.send`` both do, and the sender hands it to its plane's one
``_drop(desc, reason)``, which counts the drop under its reason, closes the
descriptor's trace and releases the frame.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .audit import AuditLedger
from .descriptors import EGRESS, INGRESS_ID
from .errors import (
    DuplicateFunction,
    EndpointClosed,
    InboxFull,
    ModeChangeAfterStart,
    PlaneFrozen,
    PlaneUnavailable,
    UnknownDestination,
    UnknownFunction,
)
from .events import BatchPolicy, EventEndpoint, SocketMap, send_audited
from .handlers import HandlerContext
from .pool import FramePool
from .rings import DescriptorRing, RingPair
from .routing import DENY, FilterTable, RoutingTable


class Mode(str, Enum):
    POLLING = "polling"
    EVENT = "event"


@dataclass
class Registration:
    fn_id: str
    handler: object
    context: HandlerContext
    rings: RingPair
    endpoint: EventEndpoint | None = None  # event mode only


class ChainRuntime:
    """One chain of functions between a plane's ingress and egress edges."""

    ROUTER_ID = "__router__"
    ROUTER_LABEL = "router"
    STAGE_LABEL = "nf"
    #: endpoints the edges register; sends to them are plumbing, not filtered
    EDGE_IDS: tuple[str, ...] = ()

    def __init__(self, pool: FramePool, mode: Mode, ledger: AuditLedger | None,
                 *, name: str, ring_capacity: int = 1024,
                 batch: BatchPolicy | None = None, burst: int = 64):
        self.pool = pool
        self.BURST = burst
        self.name = name
        self.ledger = ledger
        self._mode = Mode(mode)
        self._ring_capacity = ring_capacity
        self._batch = batch or BatchPolicy()
        self.routes = RoutingTable()
        self.filters = FilterTable(default=DENY)
        self._regs: dict[str, Registration] = {}
        self._entry: str | None = None
        self._unfiltered = (self.ROUTER_ID, *self.EDGE_IDS)
        self._trace_ids = itertools.count()
        self._threads: dict[str, threading.Thread] = {}
        self._stop = threading.Event()
        self._started = False
        self.drops: Counter = Counter()
        self._count_lock = threading.Lock()
        self._egress_ring = DescriptorRing(ring_capacity)  # polling mode
        self._sockmap: SocketMap | None = None  # event mode, built at start
        self._endpoints: list[EventEndpoint] = []

    # -- topology -------------------------------------------------------------

    @property
    def mode(self) -> Mode:
        return self._mode

    def set_mode(self, mode: Mode) -> None:
        if self._started:
            raise ModeChangeAfterStart(self.name)
        self._mode = Mode(mode)

    def register(self, fn_id: str, handler) -> Registration:
        if self._started:
            raise PlaneFrozen(self.name)
        if fn_id in self._regs or fn_id in (*self._unfiltered, INGRESS_ID, EGRESS):
            raise DuplicateFunction(fn_id)
        reg = Registration(fn_id, handler, HandlerContext(self.pool, fn_id),
                           RingPair.new(self._ring_capacity))
        self._regs[fn_id] = reg
        return reg

    def set_entry(self, fn_id: str) -> None:
        if fn_id not in self._regs:
            raise UnknownFunction(fn_id)
        self._entry = fn_id
        self.filters.allow(INGRESS_ID, fn_id)

    def set_route(self, from_fn: str, to: str) -> None:
        if from_fn not in self._regs:
            raise UnknownFunction(from_fn)
        if to != EGRESS and to not in self._regs:
            raise UnknownFunction(to)
        self.routes.set_route(from_fn, to)
        # routing implies authorization unless explicitly denied later
        self.filters.allow(from_fn, to)

    def set_filter(self, src_fn: str, dst_fn: str, verdict: str) -> None:
        for fn in (src_fn, dst_fn):
            if fn not in self._regs and fn not in (EGRESS, INGRESS_ID):
                raise UnknownFunction(fn)
        self.filters.set(src_fn, dst_fn, verdict)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        if self._entry is None:
            raise PlaneUnavailable(f"{self.name}: no entry function")
        self._stop.clear()
        self._started = True
        if self._mode is Mode.POLLING:
            self._start_edges()
            for reg in self._regs.values():
                self._spawn(f"{self.STAGE_LABEL}.{reg.fn_id}",
                            self._nf_loop_polling, reg)
            self._spawn("router", self._router_loop_polling)
            self._spawn("egress", self._egress_loop_polling)
        else:
            self._sockmap = SocketMap()
            self._sockmap.set_filter(self._event_filter)
            router_ep = self._register_endpoint(self.ROUTER_ID)
            for reg in self._regs.values():
                reg.endpoint = self._register_endpoint(reg.fn_id)
            self._start_edges()
            for reg in self._regs.values():
                self._spawn(f"{self.STAGE_LABEL}.{reg.fn_id}", self._serve,
                            reg.endpoint, functools.partial(self._nf_step_event, reg))
            self._spawn(self.ROUTER_LABEL, self._serve, router_ep,
                        self._route_one_event)

    def stop(self) -> None:
        """Stop every stage, then free every frame still in flight."""
        if not self._started:
            return
        self._stop.set()
        if self._sockmap is not None:
            self._sockmap.close_all()
        self._wake_edges()
        for thread in self._threads.values():
            thread.join(timeout=5)
        self._threads.clear()
        for endpoint in self._endpoints:
            for desc in endpoint.drain_remaining():
                self._release(desc)
        self._drain(self._egress_ring)
        for reg in self._regs.values():
            self._drain(reg.rings.rx)
            self._drain(reg.rings.tx)
        self._close_edges()
        self._endpoints = []
        self._sockmap = None
        self._started = False

    @property
    def running(self) -> bool:
        return self._started

    def _spawn(self, label: str, target, *args) -> None:
        thread = threading.Thread(target=target, args=args,
                                  name=f"{self.name}.{label}", daemon=True)
        thread.start()  # returns once the thread runs, so its native id is set
        self._threads[label] = thread

    def thread_ids(self) -> dict[str, int]:
        return {label: thread.native_id for label, thread in self._threads.items()}

    def _register_endpoint(self, fn_id: str) -> EventEndpoint:
        endpoint = self._sockmap.register(fn_id, capacity=self._ring_capacity)
        self._endpoints.append(endpoint)
        return endpoint

    def _release(self, desc) -> None:
        """Free the frame of a descriptor found in flight at stop."""
        try:
            self.pool.free_frame(desc.frame)
        except Exception:
            pass

    def _drain(self, ring: DescriptorRing) -> None:
        while True:
            desc = ring.dequeue()
            if desc is None:
                return
            self._release(desc)

    # -- function stage ---------------------------------------------------------

    def _run_handler(self, reg: Registration, desc):
        """Run one function on one descriptor. Returns the descriptor to hand
        on, or None once it has been dropped."""
        try:
            out = reg.handler(reg.context, desc)
        except Exception:
            out = None
        if out is None:
            self._drop(desc, "handler")
            return None
        out.src_fn = reg.fn_id
        return out

    # -- polling mode stages ------------------------------------------------------

    def _nf_loop_polling(self, reg: Registration) -> None:
        # Spin loops yield on empty polls: the thread stays hot (CPU bound,
        # never sleeping) but hands the interpreter over cooperatively, which
        # sidesteps lock-convoy stalls between polling contexts.
        rx, tx = reg.rings.rx, reg.rings.tx
        stop = self._stop
        idle = time.sleep
        while not stop.is_set():
            batch = rx.burst_dequeue(self.BURST)
            if not batch:
                idle(0)
                continue
            for desc in batch:
                out = self._run_handler(reg, desc)
                if out is None:
                    continue
                out.chain_hops += 1
                if not tx.enqueue(out):
                    self._drop(out, "ring_full")

    def _router_loop_polling(self) -> None:
        stop = self._stop
        idle = time.sleep
        while not stop.is_set():
            if not self.route_step():
                idle(0)

    def route_step(self) -> int:
        """Drain every function's TX ring once: filter, then forward to the
        next RX ring or the egress ring. Drops are counted, never raised."""
        moved = 0
        for reg in self._regs.values():
            for desc in reg.rings.tx.burst_dequeue(self.BURST * 2):
                moved += self._route_one_polling(desc)
        return moved

    def _route_one_polling(self, desc) -> int:
        nxt = self.routes.next_hop(desc.src_fn)
        if nxt is None:
            self._drop(desc, "no_route")
            return 0
        if not self.filters.check(desc.src_fn, nxt):
            self._drop(desc, "filtered")
            return 0
        if nxt == EGRESS:
            if not self._egress_ring.enqueue(desc):
                self._drop(desc, "ring_full")
                return 0
            return 1
        desc.chain_hops += 1
        desc.dst_fn = nxt
        if not self._regs[nxt].rings.rx.enqueue(desc):
            self._drop(desc, "ring_full")
            return 0
        return 1

    def _egress_loop_polling(self) -> None:
        stop = self._stop
        idle = time.sleep
        while not stop.is_set():
            batch = self._egress_ring.burst_dequeue(self.BURST * 2)
            if not batch:
                idle(0)
                continue
            for desc in batch:
                self._egress_one(desc)

    # -- event mode stages ----------------------------------------------------------

    def _serve(self, endpoint: EventEndpoint, step) -> None:
        """Run ``step`` on each descriptor delivered to ``endpoint``, a burst
        per wakeup, until the endpoint is closed and its inbox is empty."""
        while True:
            try:
                batch = endpoint.recv_batch(self._batch)
            except EndpointClosed:
                return
            for desc in batch:
                step(desc)

    def _nf_step_event(self, reg: Registration, desc) -> None:
        out = self._run_handler(reg, desc)
        if out is not None:
            out.dst_fn = self.ROUTER_ID
            self._send_chain_hop(out)

    def _route_one_event(self, desc) -> None:
        cur = desc.src_fn
        nxt = self._entry if cur == INGRESS_ID else self.routes.next_hop(cur)
        if nxt is None:
            self._drop(desc, "no_route")
        elif nxt == EGRESS:
            if self.filters.check(cur, EGRESS):
                self._egress_event(desc)
            else:
                self._drop(desc, "filtered")
        else:
            desc.dst_fn = nxt
            self._send_chain_hop(desc)

    def _event_filter(self, src_fn: str, dst_fn: str) -> bool:
        """Send-site filtering over logical pairs.

        Hops to the router and to the edges are plumbing within a single
        logical move; the router's forwarding send carries the (src, next)
        pair the rules are written against, and the router checks the pair
        for EGRESS itself.
        """
        return dst_fn in self._unfiltered or self.filters.check(src_fn, dst_fn)

    def _send_chain_hop(self, desc) -> None:
        # the receiver owns the descriptor once it is sent
        desc.chain_hops += 1
        try:
            send_audited(self._sockmap, desc, self.ledger, desc.chain_hops)
        except UnknownDestination:
            self._drop(desc, "shutdown" if self._stop.is_set() else "filtered")
        except InboxFull:
            self._drop(desc, "inbox_full")

    # -- drops ----------------------------------------------------------------------

    def _count_drop(self, desc, reason: str) -> None:
        with self._count_lock:
            self.drops[reason] += 1
        if self.ledger is not None:
            self.ledger.complete(desc.trace_id, "drop")
