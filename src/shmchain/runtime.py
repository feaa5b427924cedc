"""Chain runtime shared by both planes: topology, routing, filtering and the
threads that move descriptors between chain functions.

A chain is a set of registered functions, an entry function, a routing
table and a deny-by-default filter table.

One route step, ``_route(src, batch)``, decides every move in both modes.
It takes a burst of descriptors that all left one source: a burst from
ingress goes to the entry function, any other to its source's routing-table
next hop. It makes one next-hop lookup and the chain's one filter check for
the whole burst, and then drops the burst ``no_route`` when there is no next
hop or ``filtered`` when the filter refuses it, hands it to the plane's
``_egress(batch)`` when it is routed to EGRESS, and otherwise puts it onto
the next function's RX ring with one burst enqueue (polling, dropping the
tail that does not fit as ``ring_full``) or sends each descriptor there
(event). The polling step passes the burst a function has just run with
that function as the source. The event router splits each batch it receives
by source and passes each source's descriptors as one burst, in their
order. The planes' ingress edges pass bursts of one descriptor.

A function runs over a burst in ``_run_handlers``: once for the whole
burst when its handler has a burst form (``handlers.py``), as DPDK and VPP
run a stage over a vector of packets, and otherwise once per descriptor.

Polling mode runs the whole chain to completion on one worker thread, as
DPDK runs a core's functions in one loop. Each ``route_step`` visits the
functions in registration order: it takes a burst off a function's RX ring,
runs the function over it and routes the survivors on at once,
onto the next function's RX ring or out through egress. Functions stay
isolated by the ownership rule, not by threads. An empty step yields the
CPU with ``os.sched_yield`` and polls again, so a polling plane keeps one
core busy, the paper's dedicated polling core. Nothing blocks and nothing
is copied, so a chain hop costs nothing on the audited path. Only a polling
chain has RX rings: the mode is fixed when the chain is built, so
``register`` gives a function a ring only in polling mode.

Event mode gives every function, and the router, a thread blocked on its
event endpoint until a delivery arrives; each wakeup runs the stage once
over the whole batch it received. Every move between functions
passes through the router's endpoint, and each send, made by the one
``_send``, records one interrupt plus one context switch on the audited
path: the model's per-hop cost. The real eventfd signal goes only to a
receiver blocked on an empty inbox; one that is awake takes the descriptor
with its next batch. A send goes straight to the inbox object of the hop
that routing picked; nothing is looked up by name.

The sizes are constants, the same for every chain: each ring and each event
inbox holds ``DEFAULT_RING_CAPACITY`` (1024) descriptors, a polling step
takes up to ``BURST`` (64) off each RX ring, and an event stage takes up to
``BATCH`` (32) per wakeup. Chains are assembled from spec text by
``chainspec.build_planes``.

The planes supply only their edges: where traffic enters the chain and
where it leaves. A subclass implements ``_start_edges`` (run once the
chain's transport exists, before its threads start), ``_close_edges`` (at
stop, after the chain's threads are joined), ``_egress(batch)`` (a burst
routed to EGRESS, on the thread that routed it) and ``_drop``. An edge with
threads of its own that block outside the chain's transport overrides
``_wake_edges``, run at stop before the threads are joined.

Ownership rule: a descriptor, and the frame it points to, has exactly one
owner at a time. A successful enqueue or send moves it to the receiver. A
failed one leaves it with the sender, as ``DescriptorRing.enqueue`` and
``EventEndpoint.deliver`` do, and as ``DescriptorRing.enqueue_burst`` does
with the tail of a burst that did not fit. The sender hands each such
descriptor to its plane's one ``_drop(desc, reason)``, which counts the drop
under its reason, closes the descriptor's trace and releases the frame. At
stop, every descriptor still on a ring or in an inbox is counted as a
``shutdown`` drop and freed, so ingress = egress + drops once the chain has
stopped. A frame found with another owner when it is freed is left to that
owner: ``_free`` keeps the first ``StaleRef`` or ``DoubleFree`` it meets,
the rest of the burst goes on, and ``stop`` raises the fault once the chain
is torn down.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .audit import AuditLedger
from .descriptors import EGRESS, INGRESS_ID
from .errors import (
    DoubleFree,
    DuplicateFunction,
    EndpointClosed,
    InboxFull,
    OutOfBounds,
    PlaneFrozen,
    PlaneUnavailable,
    StaleRef,
    UnknownDestination,
    UnknownFunction,
)
from .events import EventEndpoint
from .handlers import HandlerContext
from .pool import FramePool
from .rings import DEFAULT_RING_CAPACITY, DescriptorRing
from .routing import DENY, FilterTable, RoutingTable

BURST = 64  # descriptors a polling step takes off each RX ring
# what freeing a frame that has another owner, or none, raises
OWNERSHIP_FAULTS = (StaleRef, DoubleFree, OutOfBounds)
BATCH = 32  # descriptors an event stage takes per wakeup


class Mode(str, Enum):
    POLLING = "polling"
    EVENT = "event"


# the hot paths test these plain names: in CPython 3.11 every ``Mode.X``
# lookup goes through the enum metaclass and costs about 170 ns
POLLING, EVENT = Mode.POLLING, Mode.EVENT


@dataclass
class Registration:
    fn_id: str
    handler: object
    context: HandlerContext
    rx: DescriptorRing | None  # polling mode only
    endpoint: EventEndpoint | None = None  # event mode only


class ChainRuntime:
    """One chain of functions between a plane's ingress and egress edges."""

    ROUTER_LABEL = "router"
    STAGE_LABEL = "nf"

    def __init__(self, pool: FramePool, mode: Mode, ledger: AuditLedger | None,
                 *, name: str):
        self.pool = pool
        self.name = name
        self.ledger = ledger
        self._mode = Mode(mode)
        self.routes = RoutingTable()
        self.filters = FilterTable(default=DENY)
        self._regs: dict[str, Registration] = {}
        self._entry: str | None = None
        self._trace_ids = itertools.count()
        self._threads: dict[str, threading.Thread] = {}
        self._stop = threading.Event()
        self._started = False
        self.drops: Counter = Counter()
        self._count_lock = threading.Lock()
        self._fault: Exception | None = None  # the first one ``_free`` met
        self._router_ep: EventEndpoint | None = None  # event mode, built at start
        self._endpoints: list[EventEndpoint] = []
        # what the endpoints closed at stop had counted
        self._closed_event_counts = {"event_hops": 0, "event_wakeups": 0}

    # -- topology -------------------------------------------------------------

    @property
    def mode(self) -> Mode:
        return self._mode

    def register(self, fn_id: str, handler) -> Registration:
        if self._started:
            raise PlaneFrozen(self.name)
        if fn_id in self._regs or fn_id in (INGRESS_ID, EGRESS):
            raise DuplicateFunction(fn_id)
        reg = Registration(fn_id, handler, HandlerContext(self.pool, fn_id),
                           DescriptorRing() if self._mode is POLLING else None)
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

    def set_filter(self, src: str, dst: str, verdict: str) -> None:
        for fn in (src, dst):
            if fn not in self._regs and fn not in (EGRESS, INGRESS_ID):
                raise UnknownFunction(fn)
        self.filters.set(src, dst, verdict)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        if self._entry is None:
            raise PlaneUnavailable(f"{self.name}: no entry function")
        self._stop.clear()
        self._started = True
        if self._mode is POLLING:
            self._start_edges()
            self._spawn("worker", self._worker)
        else:
            self._router_ep = self._new_endpoint(self.ROUTER_LABEL)
            for reg in self._regs.values():
                reg.endpoint = self._new_endpoint(reg.fn_id)
            self._start_edges()
            for reg in self._regs.values():
                self._spawn(f"{self.STAGE_LABEL}.{reg.fn_id}", self._serve,
                            reg.endpoint, functools.partial(self._nf_step_event, reg))
            self._spawn(self.ROUTER_LABEL, self._serve, self._router_ep,
                        self._router_step)

    def stop(self) -> None:
        """Stop every stage, then drop every descriptor still in flight.

        A descriptor whose frame has another owner makes its free raise
        ``StaleRef`` or ``DoubleFree``, while the chain ran or here. Stop
        still releases every other descriptor and closes the edges, then
        raises the first such fault; the plane is stopped either way."""
        if not self._started:
            return
        self._stop.set()
        for endpoint in self._endpoints:
            endpoint.close()
        self._wake_edges()
        for thread in self._threads.values():
            thread.join(timeout=5)
        self._threads.clear()
        in_flight = [desc for endpoint in self._endpoints
                     for desc in endpoint.drain_remaining()]
        if self._mode is POLLING:
            for reg in self._regs.values():
                in_flight.extend(self._drain(reg.rx))
        # nobody is answered, as the stages have stopped
        for desc in in_flight:
            self._count_drop("shutdown", desc)
        self._free([desc.frame for desc in in_flight])
        self._close_edges()
        self._closed_event_counts = self.event_counts()
        self._endpoints = []
        self._started = False
        fault, self._fault = self._fault, None
        if fault is not None:
            raise fault

    def event_counts(self) -> dict[str, int]:
        """Event hops delivered, and blocking receives that returned work,
        summed over every inbox this chain has run; both read 0 in polling
        mode."""
        counts = dict(self._closed_event_counts)
        for endpoint in self._endpoints:
            counts["event_hops"] += endpoint.delivered
            counts["event_wakeups"] += endpoint.wakeups
        return counts

    def _wake_edges(self) -> None:
        """Unblock the edges' own threads at stop; the default has none."""

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

    def _new_endpoint(self, label: str) -> EventEndpoint:
        # an inbox holds as many descriptors as a ring
        endpoint = EventEndpoint(label, capacity=DEFAULT_RING_CAPACITY)
        self._endpoints.append(endpoint)
        return endpoint

    def _free(self, refs) -> None:
        """Free frames this chain owns, under one pool lock acquire. A frame
        that has another owner is left to it: the first such fault is kept
        for ``stop`` to raise once the chain is torn down, and the caller,
        with the rest of its burst, goes on."""
        try:
            self.pool.free_frames(refs)
        except OWNERSHIP_FAULTS as fault:
            self._keep_fault(fault)

    def _keep_fault(self, fault: Exception) -> None:
        """Keep the first ownership fault met while the chain runs."""
        with self._count_lock:  # event stages free on their own threads
            if self._fault is None:
                self._fault = fault

    @staticmethod
    def _drain(ring: DescriptorRing):
        """Take every descriptor off a ring whose stages have stopped."""
        while (desc := ring.dequeue()) is not None:
            yield desc

    # -- function stage ---------------------------------------------------------

    def _run_handlers(self, reg: Registration, batch) -> list:
        """Run one function over a burst. Returns the descriptors to hand on,
        in order; each one its handler refused or raised on is dropped as
        ``handler``.

        A handler with a burst form is called once for the whole burst; if
        that call raises, or returns a list that does not line up with the
        burst, the whole burst is dropped. Any other handler, such as a
        user's or a traced wrapper, is called once per descriptor."""
        handler, context, fn_id = reg.handler, reg.context, reg.fn_id
        passed = []
        burst = getattr(handler, "burst", None)
        if burst is None:
            # one loop, with no list of results in between: the proxy
            # plane's handlers take this path on every request
            for desc in batch:
                try:
                    out = handler(context, desc)
                except Exception:
                    out = None
                if out is None:
                    self._drop(desc, "handler")
                else:
                    out.src_fn = fn_id
                    passed.append(out)
            return passed
        try:
            outs = burst(context, batch)
        except Exception:
            outs = None
        if outs is None or len(outs) != len(batch):
            outs = [None] * len(batch)
        for desc, out in zip(batch, outs):
            if out is None:
                self._drop(desc, "handler")
            else:
                out.src_fn = fn_id
                passed.append(out)
        return passed

    # -- polling mode -------------------------------------------------------------

    def _worker(self) -> None:
        stop = self._stop
        # looked up once the thread runs, so that a step patched in before
        # start is the one that runs
        step = self.route_step
        while not stop.is_set():
            if not step():
                os.sched_yield()

    def route_step(self) -> int:
        """Run each function, in registration order, over a burst off its RX
        ring and route the survivors on. Returns how many moved on; drops are
        counted, never raised."""
        moved = 0
        for reg in self._regs.values():
            batch = reg.rx.burst_dequeue(BURST)
            if batch:
                moved += self._route(reg.fn_id, self._run_handlers(reg, batch))
        return moved

    # -- routing ----------------------------------------------------------------------

    def _route(self, src: str, batch) -> int:
        """Move a burst of descriptors that all left ``src`` to its next hop,
        in either mode. Returns how many moved on; each refused descriptor is
        dropped here."""
        nxt = self._entry if src == INGRESS_ID else self.routes.next_hop(src)
        if nxt is None:
            moved, reason = 0, "no_route"
        elif not self.filters.check(src, nxt):
            moved, reason = 0, "filtered"
        elif nxt == EGRESS:
            self._egress(batch)
            return len(batch)
        elif self._mode is EVENT:
            inbox = self._regs[nxt].endpoint
            moved = 0
            for desc in batch:
                moved += self._send(desc, inbox)
            return moved
        else:
            for desc in batch:
                desc.chain_hops += 1
            moved = self._regs[nxt].rx.enqueue_burst(batch)
            if moved == len(batch):
                return moved
            reason = "ring_full"
        for desc in batch[moved:]:  # the refused tail, or the whole burst
            self._drop(desc, reason)
        return moved

    def _send(self, desc, inbox: EventEndpoint) -> bool:
        """One audited event hop into ``inbox``: one interrupt (the
        receiver's wakeup) and one context switch (its blocking receive
        returning). The receiver owns the descriptor once it is sent, so its
        step and trace id are read first; a failed send drops it here and
        records no hop."""
        desc.chain_hops += 1
        step = desc.chain_hops
        trace_id = desc.trace_id
        try:
            inbox.deliver(desc)
        except UnknownDestination:  # its endpoint closed at stop
            self._drop(desc, "shutdown")
            return False
        except InboxFull:
            self._drop(desc, "inbox_full")
            return False
        if self.ledger is not None:
            self.ledger.record_hop(trace_id, step)
        return True

    # -- event mode stages ----------------------------------------------------------

    def _serve(self, endpoint: EventEndpoint, step) -> None:
        """Run ``step`` once on each batch delivered to ``endpoint``, a batch
        per wakeup, until the endpoint is closed and its inbox is empty."""
        while True:
            try:
                batch = endpoint.recv_batch(BATCH)
            except EndpointClosed:
                return
            step(batch)

    def _nf_step_event(self, reg: Registration, batch) -> None:
        router = self._router_ep
        for out in self._run_handlers(reg, batch):
            self._send(out, router)

    def _router_step(self, batch) -> None:
        """Route a received batch one source at a time, each source's
        descriptors as one burst in their order."""
        by_src: dict[str, list] = {}
        for desc in batch:
            by_src.setdefault(desc.src_fn, []).append(desc)
        for src, burst in by_src.items():
            self._route(src, burst)

    # -- drops ----------------------------------------------------------------------

    def _count_drop(self, reason: str, desc=None) -> None:
        """Count one drop and close the trace of its descriptor, if it got
        one before it was refused."""
        with self._count_lock:
            self.drops[reason] += 1
        if desc is not None and self.ledger is not None:
            self.ledger.complete(desc.trace_id, "drop")
