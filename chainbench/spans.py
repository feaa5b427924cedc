"""Span recording for the traced run.

The tracer wraps public functions of the package from outside. Each wrapped
call records a span: layer, function, thread, wall-clock start and end, its
parent span on the same thread and, when the call carries a descriptor, the
descriptor's trace id. Spans are kept in memory up to a cap and written out
when the run ends; per-function totals are kept for every call.

Costs are the calling thread's CPU time, not wall time: the chain's threads
share one interpreter lock, and wall time would charge a call for every
other thread that held the lock meanwhile. A per-thread stack charges a
call's CPU time to its caller's child time, so self time excludes nested
wrapped calls. Blocked waits are the one place where wall time is the
figure wanted, and the totals keep it too.

Calls are recorded only while ``enabled`` is set, which the workloads
do for the flood phase only.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time

# index of the totals kept per "layer.function" key
CALLS, WALL_NS, CPU_NS, SELF_NS, OUTCOME = range(5)
MAX_SPANS = 50_000  # about 8 MB written per traced run


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._shards: list[dict] = []  # one totals dict per thread

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            totals: dict = {}
            state = ([], totals, threading.get_native_id())
            self._local.state = state
            self._shards.append(totals)
        return state

    def wrap(self, layer: str, name: str, fn, *, desc_arg: int | None = None,
             outcome=None):
        """Return ``fn`` wrapped in a span named ``layer.name``.

        ``desc_arg`` is the position of a descriptor argument whose trace id
        the span records. ``outcome(result)`` gives a number summed over the
        calls, such as 1 for a poll that found work.
        """
        key = f"{layer}.{name}"
        tracer = self
        wall = time.perf_counter_ns
        cpu = time.thread_time_ns
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, totals, tid = tracer._state()
            span_id = next(ids)
            frame = [span_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = wall()
            cpu_start = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu_used = cpu() - cpu_start
                end = wall()
                stack.pop()
                if stack:
                    stack[-1][1] += cpu_used
                agg = totals.get(key)
                if agg is None:
                    agg = totals[key] = [0, 0, 0, 0, 0]
                agg[CALLS] += 1
                agg[WALL_NS] += end - start
                agg[CPU_NS] += cpu_used
                agg[SELF_NS] += cpu_used - frame[1]
                if len(spans) < MAX_SPANS:
                    trace_id = (getattr(args[desc_arg], "trace_id", None)
                                if desc_arg is not None and len(args) > desc_arg
                                else None)
                    spans.append((layer, name, tid, start, end, span_id, parent,
                                  trace_id))
            if outcome is not None:
                agg[OUTCOME] += outcome(result)
            return result

        return traced

    def record(self, key: str, calls: int, cpu_ns: int) -> None:
        """Add calls timed elsewhere, such as in the load generator process,
        as self time of ``key``."""
        totals = self._state()[1]
        agg = totals.setdefault(key, [0, 0, 0, 0, 0])
        agg[CALLS] += calls
        agg[WALL_NS] += cpu_ns
        agg[CPU_NS] += cpu_ns
        agg[SELF_NS] += cpu_ns

    def totals(self) -> dict[str, list[int]]:
        """Per-function totals summed over threads: calls, wall ns, CPU ns,
        self CPU ns, outcome sum."""
        merged: dict[str, list[int]] = {}
        for shard in list(self._shards):
            for key, agg in list(shard.items()):
                into = merged.setdefault(key, [0, 0, 0, 0, 0])
                for i, value in enumerate(agg):
                    into[i] += value
        return merged

    def write_spans(self, path) -> None:
        fields = ("layer", "function", "thread", "start_ns", "end_ns", "span",
                  "parent", "trace_id")
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


class _EventfdOs:
    """Stands in for ``os`` inside ``shmchain.events`` so that the blocking
    eventfd read, the wakeup itself, is timed as a span of its own."""

    def __init__(self, eventfd_read):
        self.eventfd_read = eventfd_read

    def __getattr__(self, name):
        return getattr(os, name)


def _count(result) -> int:
    return len(result)


def _hit(result) -> int:
    return 1 if result else 0


def instrument(tracer: Tracer):
    """Wrap the package's public functions layer by layer. Returns a function
    that puts the originals back."""
    from shmchain import events, handlers, packet_plane, pool, proxy_plane, rings, routing

    patches = []

    def patch(owner, attr, layer, name, **kwargs):
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(layer, name, original, **kwargs))

    patch(pool.FramePool, "try_alloc_frame", "pool", "alloc")
    patch(pool.FramePool, "free_frame", "pool", "free")
    patch(pool.FramePool, "write_frame", "pool", "write")
    patch(pool.FramePool, "read_frame", "pool", "read")
    patch(pool.FramePool, "frame_view", "pool", "view")
    patch(rings.DescriptorRing, "enqueue", "rings", "enqueue", desc_arg=1)
    patch(rings.DescriptorRing, "burst_dequeue", "rings", "burst_dequeue",
          outcome=_hit)
    patch(rings.NicRingSet, "cycle", "rings", "nic_cycle")
    patch(events.EventEndpoint, "deliver", "events", "deliver", desc_arg=1)
    patch(events.EventEndpoint, "recv_batch", "events", "recv_batch",
          outcome=_count)
    patch(routing.RoutingTable, "next_hop", "routing", "next_hop")
    patch(routing.FilterTable, "check", "routing", "check")
    patch(proxy_plane, "try_parse_request", "http11", "parse")
    patch(proxy_plane, "serialize_request", "http11", "serialize")
    patch(proxy_plane, "read_response", "http11", "read_response")
    patch(proxy_plane.UpstreamPool, "roundtrip", "proxy_plane", "roundtrip")
    patch(packet_plane.PacketPlane, "ingress", "packet_plane", "ingress")
    patch(packet_plane.PacketPlane, "route_step", "packet_plane", "route_step",
          outcome=_hit)

    # blocked time is idle, not work of the events layer
    patches.append((events, "os", events.os))
    events.os = _EventfdOs(tracer.wrap("idle", "eventfd_read", os.eventfd_read))

    # chainspec.build_planes looks build_handler up at call time
    build_handler = handlers.build_handler

    def traced_build_handler(name, param, backend_count=None):
        handler = build_handler(name, param, backend_count)
        return tracer.wrap("handlers", handler.kind, handler, desc_arg=1)

    patches.append((handlers, "build_handler", build_handler))
    handlers.build_handler = traced_build_handler

    def restore():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore


LAYERS = ("pool", "rings", "events", "routing", "handlers", "http11",
          "proxy_plane", "packet_plane", "harness")

PER_LAYER = (
    # name, unit, better
    ("pool.alloc.ns", "ns", "lower"),
    ("pool.alloc.per_op", "count", "lower"),
    ("pool.free.ns", "ns", "lower"),
    ("pool.free.per_op", "count", "lower"),
    ("pool.write.ns", "ns", "lower"),
    ("pool.read.ns", "ns", "lower"),
    ("pool.view.ns", "ns", "lower"),
    ("rings.enqueue.ns", "ns", "lower"),
    ("rings.enqueue.per_op", "count", "lower"),
    ("rings.burst_dequeue.ns", "ns", "lower"),
    ("rings.burst_dequeue.hit_ratio", "ratio", "higher"),
    ("rings.nic_cycle.per_op", "count", "lower"),
    ("events.deliver.ns", "ns", "lower"),
    ("events.deliver.per_op", "count", "lower"),
    ("events.recv_batch.wait_us_per_op", "us", "lower"),
    ("events.batch_size", "count", "higher"),
    ("events.wakeups_per_op", "count", "lower"),
    ("routing.next_hop.ns", "ns", "lower"),
    ("routing.check.ns", "ns", "lower"),
    ("handlers.l3route.ns", "ns", "lower"),
    ("handlers.l2fwd.ns", "ns", "lower"),
    ("handlers.revproxy.ns", "ns", "lower"),
    ("handlers.urlrewrite.ns", "ns", "lower"),
    ("http11.parse.ns", "ns", "lower"),
    ("http11.serialize.ns", "ns", "lower"),
    ("http11.read_response.ns", "ns", "lower"),
    ("proxy_plane.roundtrip.ns", "ns", "lower"),
    ("packet_plane.ingress.ns", "ns", "lower"),
    ("packet_plane.route_step.hit_ratio", "ratio", "higher"),
    ("harness.gen.ns", "ns", "lower"),
    ("harness.sink.ns", "ns", "lower"),
    *((f"{layer}.self_us_per_op", "us", "lower") for layer in LAYERS),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "x", "lower"),
)


def layer_metrics(totals: dict[str, list[int]], ops: int) -> dict[str, float]:
    """Per-layer figures over ``ops`` traced operations: ``.ns`` is CPU time
    per call, ``self_us_per_op`` self CPU time per operation, and the eventfd
    wait is wall time. A function that was never called reads 0. The
    ``trace.*`` figures compare runs and are left to the caller."""

    def agg(key):
        return totals.get(key, [0, 0, 0, 0, 0])

    def mean_ns(key):
        calls, cpu_ns = agg(key)[CALLS], agg(key)[CPU_NS]
        return cpu_ns / calls if calls else 0.0

    def per_op(key):
        return agg(key)[CALLS] / ops

    def ratio(key):
        calls, outcome = agg(key)[CALLS], agg(key)[OUTCOME]
        return outcome / calls if calls else 0.0

    derived = {
        "events.recv_batch.wait_us_per_op": agg("idle.eventfd_read")[WALL_NS] / ops / 1e3,
        "events.batch_size": ratio("events.recv_batch"),
        "events.wakeups_per_op": per_op("idle.eventfd_read"),
    }
    for layer in LAYERS:
        self_ns = sum(a[SELF_NS] for k, a in totals.items()
                      if k.startswith(layer + "."))
        derived[f"{layer}.self_us_per_op"] = self_ns / ops / 1e3
    out = {}
    for name, _unit, _better in PER_LAYER:
        # the rest are named after the function they time: "<layer>.<function>.<kind>"
        function, _, kind = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif kind == "ns":
            out[name] = mean_ns(function)
        elif kind == "per_op":
            out[name] = per_op(function)
        elif kind == "hit_ratio":
            out[name] = ratio(function)
    return out
