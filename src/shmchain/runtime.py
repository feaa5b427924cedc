"""Chain runtime shared by both planes: topology, routing, filtering and the
threads that move descriptors between chain functions.

A chain is a set of registered functions, an entry function, a routing
table and a deny-by-default filter table.

One route step, ``_route(src, batch)``, decides every move between two
functions, or out of the chain, in both modes. It takes a burst of
descriptors that all left one function, and makes one routing-table
next-hop lookup and the chain's one filter check for the whole burst. It
then drops the burst ``no_route`` when there is no next hop or
``filtered`` when the filter refuses it, hands it to the plane's
``_egress(batch)`` when it is routed to EGRESS, and otherwise puts it onto
the next function's RX ring with one burst enqueue (polling, dropping the
tail that does not fit as ``ring_full``) or sends each descriptor there
(event). Each stage, in either mode, passes the burst it has just run with
itself as the source, on the thread that ran it.

The ingress edges of both planes do not route: their next hop is always
the entry function. Each hands its one new descriptor to ``_enter(desc)``,
the chain's one entry hop, as DPDK's receive loop hands a received mbuf
to the first function with one ring enqueue. It makes one filter
check on ``(INGRESS_ID, entry)``, dropping a refused descriptor as
``filtered``, and then one ``enqueue`` onto the entry function's RX ring
(polling, dropping it as ``ring_full`` when that fails) or one event hop
into its inbox (event).

A function runs over a burst in ``_run_handlers``, which calls its handler
once for the whole burst (``handlers.py``), as DPDK and VPP run a stage
over a vector of packets. A burst that loses nothing is handed on as the
handler's own list, with no copy and no loop; only a burst with a refused
descriptor is filtered into a new one.

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

Event mode gives every function a thread blocked on its event endpoint
until a delivery arrives; each wakeup runs the stage once over the whole
batch it received and routes the survivors on from that thread, straight
into the next function's inbox, as eBPF's SK_MSG redirect runs inside the
sender's own send. No thread sits between two functions. Each send, made
by the one ``_send``, records one interrupt plus one context switch on the
audited path: the receiver's wakeup, the model's per-hop cost
(``audit.py``). The real eventfd signal goes only to a receiver blocked on
an empty inbox; one that is awake takes the descriptor with its next
batch. A send goes straight to the inbox object of the hop that routing
picked; nothing is looked up by name.

Placement: ``start`` confines the thread that calls it to one CPU, the
highest of its allowed set, before the plane spawns a thread, and every
thread the plane spawns inherits that CPU, as DPDK's ``rte_eal_init``
places its main lcore. The plane's threads and the thread that offers it
traffic share one interpreter lock and never run Python at the same time,
so spreading them over CPUs buys nothing: each handoff of the lock would
be a cross-CPU wakeup that drags every shared object's cache lines along.
A caller whose set is already one CPU is left alone. Threads the caller
starts while a plane runs inherit its CPU too, as they would under
``taskset``. ``stop``, once the plane's threads are joined, gives the
starting thread its old set back, unless that set has changed since
``start`` placed it: so one thread that starts two planes gets its whole
set back whichever it stops first.

The sizes are constants, the same for every chain: each ring and each event
inbox holds ``DEFAULT_RING_CAPACITY`` (1024) descriptors, a polling step
takes up to ``BURST`` (64) off each RX ring, and an event stage takes up to
``BATCH`` (32) per wakeup. Chains are assembled from spec text by
``chainspec.build_planes``.

The planes supply only their edges: where traffic enters the chain and
where it leaves. A subclass implements ``_start_edges`` (run once the
chain's transport exists, before its threads start), ``_close_edges`` (at
stop, after the chain's threads are joined) and ``_egress(batch)`` (a burst
routed to EGRESS, on the thread that routed it). ``_drop`` has a default
for both planes, which an edge that answers a client extends. An edge with
threads of its own that block outside the chain's transport overrides
``_wake_edges``, run at stop before the threads are joined, and an edge
that waits for frames to come back extends ``_free``. Each edge counts
what it takes in and lets out in ``ingress_count`` and ``egress_count``,
which ``stats`` reports with the drops.

Ownership rule: a descriptor, and the frame it points to, has exactly one
owner at a time. A successful enqueue or send moves it to the receiver;
until then the stage that ran it, or the ingress edge that made it, owns
it, since no thread sits between the two. A failed one leaves it with the
sender, as ``DescriptorRing.enqueue`` and ``EventEndpoint.deliver`` do, and
as ``DescriptorRing.enqueue_burst`` does with the tail of a burst that did
not fit. The sender hands each such
descriptor to the chain's one ``_drop(desc, reason)``, which counts the drop
under its reason, closes the descriptor's trace and frees the frame. At
stop, every descriptor still on a ring or in an inbox is counted as a
``shutdown`` drop and freed, so ingress = egress + drops once the chain has
stopped. A frame found with another owner when it is freed is left to that
owner. Every frame the chain gives back, from a drop, from egress, or from
a ring or inbox emptied at stop, goes through the one ``_free``, which keeps
the first ``StaleRef`` or ``DoubleFree`` it meets; the rest of the burst
goes on, and ``stop`` raises the fault once the chain is torn down.
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
from .rings import DescriptorRing
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

    STAGE_LABEL = "nf"
    # the ``stats`` key of ``ingress_count``, and the edge's own counters
    INGRESS_KEY = "ingress"
    EDGE_COUNTERS: tuple[str, ...] = ()

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
        # every offered packet or request, refused ones included, so that
        # ingress = egress + drops + in flight
        self.ingress_count = 0
        self.egress_count = 0
        self.drops: Counter = Counter()
        self._count_lock = threading.Lock()
        self._fault: Exception | None = None  # the first one ``_free`` met
        # (native id, old set, placed set) of the thread ``start`` placed
        self._placed: tuple[int, set[int], set[int]] | None = None
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
        self._place_caller()
        self._stop.clear()
        self._started = True
        try:
            if self._mode is POLLING:
                self._start_edges()
                self._spawn("worker", self._worker)
            else:
                for reg in self._regs.values():
                    reg.endpoint = self._new_endpoint(reg.fn_id)
                self._start_edges()
                for reg in self._regs.values():
                    self._spawn(f"{self.STAGE_LABEL}.{reg.fn_id}", self._serve,
                                reg.endpoint, functools.partial(self._nf_step_event, reg))
        except BaseException:
            # a plane that failed to start is stopped: its endpoints closed
            # and forgotten, any thread it spawned joined, its edges closed
            # and its caller's CPU set given back, so a retry starts afresh
            self._halt()
            raise

    def stop(self) -> None:
        """Stop every stage, then drop every descriptor still in flight.

        A descriptor whose frame has another owner makes its free raise
        ``StaleRef`` or ``DoubleFree``, while the chain ran or here. Stop
        still releases every other descriptor and closes the edges, then
        raises the first such fault; the plane is stopped either way."""
        if not self._started:
            return
        self._halt()
        fault, self._fault = self._fault, None
        if fault is not None:
            raise fault

    def _halt(self) -> None:
        """Tear down what ``start`` set up, whether or not it finished: the
        body of ``stop``, less the fault it raises."""
        self._stop.set()
        for endpoint in self._endpoints:
            endpoint.close()
        self._wake_edges()
        for thread in self._threads.values():
            thread.join(timeout=5)
        self._threads.clear()
        self._unplace()
        in_flight = [desc for endpoint in self._endpoints
                     for desc in endpoint.drain_remaining()]
        if self._mode is POLLING:
            for reg in self._regs.values():
                in_flight.extend(reg.rx.burst_dequeue(reg.rx.capacity))
        # nobody is answered, as the stages have stopped
        for desc in in_flight:
            self._count_drop("shutdown", desc)
        self._free([desc.frame for desc in in_flight])
        self._close_edges()
        self._closed_event_counts = self.event_counts()
        self._endpoints = []
        self._started = False

    def event_counts(self) -> dict[str, int]:
        """Event hops delivered, and blocking receives that returned work,
        summed over every inbox this chain has run; both read 0 in polling
        mode."""
        counts = dict(self._closed_event_counts)
        for endpoint in self._endpoints:
            counts["event_hops"] += endpoint.delivered
            counts["event_wakeups"] += endpoint.wakeups
        return counts

    def stats(self) -> dict:
        return {
            "mode": self._mode.value,
            self.INGRESS_KEY: self.ingress_count,
            "egress": self.egress_count,
            "drops": dict(self.drops),
            **{name: getattr(self, name) for name in self.EDGE_COUNTERS},
            "pool_free": self.pool.free_count,
            **self.event_counts(),
        }

    def _wake_edges(self) -> None:
        """Unblock the edges' own threads at stop; the default has none."""

    @property
    def running(self) -> bool:
        return self._started

    def _place_caller(self) -> None:
        """Confine the calling thread to the highest CPU of its set, which
        the threads it spawns next inherit; see Placement above."""
        cpus = os.sched_getaffinity(0)
        if len(cpus) > 1:
            placed = {max(cpus)}
            os.sched_setaffinity(0, placed)
            self._placed = (threading.get_native_id(), cpus, placed)

    def _unplace(self) -> None:
        """Give the thread ``start`` placed its old set back, unless its set
        has changed since."""
        placed, self._placed = self._placed, None
        if placed is None:
            return
        tid, cpus, mine = placed
        try:
            if os.sched_getaffinity(tid) == mine:
                os.sched_setaffinity(tid, cpus)
        except OSError:  # the thread has exited
            pass

    def _spawn(self, label: str, target, *args) -> None:
        thread = threading.Thread(target=target, args=args,
                                  name=f"{self.name}.{label}", daemon=True)
        thread.start()  # returns once the thread runs, so its native id is set
        self._threads[label] = thread

    def thread_ids(self) -> dict[str, int]:
        return {label: thread.native_id for label, thread in self._threads.items()}

    def _new_endpoint(self, label: str) -> EventEndpoint:
        endpoint = EventEndpoint(label)
        self._endpoints.append(endpoint)
        return endpoint

    def _free(self, refs) -> None:
        """Free a burst of frames this chain owns, under one pool lock
        acquire: the chain's one release path. A frame that has another
        owner is left to it: the first such fault is kept for ``stop`` to
        raise once the chain is torn down, and the caller, with the rest of
        its burst, goes on."""
        try:
            self.pool.free_frames(refs)
        except OWNERSHIP_FAULTS as fault:
            with self._count_lock:  # event stages free on their own threads
                if self._fault is None:
                    self._fault = fault

    # -- function stage ---------------------------------------------------------

    def _run_handlers(self, reg: Registration, batch) -> list:
        """Run one function over a burst: one call of its handler, which
        returns a list lined up with the burst. Returns the descriptors to
        hand on, in order: the handler's own list when it refused none,
        with no copy made. Each one the handler refused is dropped as
        ``handler``. If the call raises, or what it returns does not line
        up with the burst, the whole burst is dropped."""
        try:
            outs = reg.handler(reg.context, batch)
            aligned = len(outs) == len(batch)
            if aligned and None not in outs:
                return outs
        except Exception:
            aligned = False
        if not aligned:
            outs = (None,) * len(batch)
        passed = []
        for desc, out in zip(batch, outs):
            if out is None:
                self._drop(desc, "handler")
            else:
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

    def _enter(self, desc) -> bool:
        """Move one descriptor from an ingress edge to the entry function,
        in either mode: one filter check, then one ring enqueue or one event
        hop. Returns whether it moved; a refused descriptor is dropped
        here."""
        entry = self._entry
        if not self.filters.check(INGRESS_ID, entry):
            self._drop(desc, "filtered")
            return False
        reg = self._regs[entry]
        if self._mode is EVENT:
            return self._send(desc, reg.endpoint)
        desc.chain_hops += 1
        if reg.rx.enqueue(desc):
            return True
        self._drop(desc, "ring_full")
        return False

    def _route(self, src: str, batch) -> int:
        """Move a burst of descriptors that all left function ``src`` to its
        next hop, in either mode. Returns how many moved on; each refused
        descriptor is dropped here. Ingress goes through ``_enter``."""
        nxt = self.routes.next_hop(src)
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
        self._route(reg.fn_id, self._run_handlers(reg, batch))

    # -- drops ----------------------------------------------------------------------

    def _drop(self, desc, reason: str) -> None:
        """Count the drop, close its trace and free its frame."""
        self._count_drop(reason, desc)
        self._free((desc.frame,))

    def _count_drop(self, reason: str, desc=None) -> None:
        """Count one drop and close the trace of its descriptor, if it got
        one before it was refused."""
        with self._count_lock:
            self.drops[reason] += 1
        if desc is not None and self.ledger is not None:
            self.ledger.complete(desc.trace_id, "drop")
