"""Proxy plane: the L4/L7 edges of a chain run by :class:`ChainRuntime`.

The broker terminates real TCP connections and parses HTTP/1.1 requests.
Its ingress edge moves each message body into a pool frame and sends the
descriptor straight to the entry function, while the middlebox functions
work on the parsed metadata. Its egress edge serializes the (possibly
rewritten) request, relays it over a pooled upstream connection, and
answers the client. Event mode runs that egress on a pair of worker
threads fed from a queue.

Per message the broker pays exactly two copies at ingest (socket read into
the broker buffer, buffer into the frame) and two at egress (frame out,
socket write), plus one protocol pass and one parse/serialize on each side.
"""

from __future__ import annotations

import itertools
import queue
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from .audit import AuditLedger, CostVector
from .descriptors import INGRESS_ID, FlowKey, HttpExchangeMeta, PacketDescriptor
from .errors import (
    InboxFull,
    InvalidConfig,
    ParseError,
    PlaneUnavailable,
    PoolExhausted,
    UnknownDestination,
    UpstreamUnavailable,
)
from .events import BatchPolicy, send_audited
from .http11 import (
    read_response,
    serialize_request,
    simple_response,
    try_parse_request,
)
from .pool import FramePool
from .runtime import ChainRuntime, Mode

RELAY_ID = "__relay__"
EGRESS_WORKERS = 2

INGEST_COST = CostVector(copies=2, interrupts=2, context_switches=1,
                         protocol_tasks=1, serde_tasks=1)
EGRESS_COST = CostVector(copies=2, interrupts=1, context_switches=1,
                         protocol_tasks=1, serde_tasks=1)

_STOP = object()


@dataclass
class BrokerConfig:
    listen: tuple[str, int] = ("127.0.0.1", 0)
    upstreams: list[tuple[str, int]] = field(default_factory=list)
    mode: Mode = Mode.EVENT
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    ring_capacity: int = 1024
    upstream_timeout: float = 5.0

    def validate(self) -> None:
        if not self.upstreams:
            raise InvalidConfig("broker needs at least one upstream")


class _ClientConn:
    __slots__ = ("sock", "conn_id", "buffer", "in_flight", "lock", "closed", "flow")

    def __init__(self, sock, conn_id, flow):
        self.sock = sock
        self.conn_id = conn_id
        self.buffer = bytearray()
        self.in_flight = False
        self.lock = threading.Lock()
        self.closed = False
        self.flow = flow


class UpstreamPool:
    """Keep-alive connection pool, one idle list per backend."""

    def __init__(self, backends, timeout=5.0):
        self._backends = list(backends)
        self._timeout = timeout
        self._idle = {i: [] for i in range(len(backends))}
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._backends)

    def _checkout(self, idx):
        with self._lock:
            if self._idle[idx]:
                return self._idle[idx].pop(), True
        try:
            sock = socket.create_connection(self._backends[idx], timeout=self._timeout)
        except OSError as exc:
            raise UpstreamUnavailable(f"backend {idx}: {exc}") from None
        sock.settimeout(self._timeout)
        return sock, False

    def roundtrip(self, idx, data: bytes) -> bytes:
        if not 0 <= idx < len(self._backends):
            raise UpstreamUnavailable(f"backend index {idx} out of range")
        for attempt in (0, 1):
            sock, pooled = self._checkout(idx)
            try:
                sock.sendall(data)
                raw, _status, _body, reusable = read_response(sock)
            except (OSError, ParseError) as exc:
                sock.close()
                if pooled and attempt == 0:
                    continue  # stale keep-alive connection; retry fresh
                raise UpstreamUnavailable(f"backend {idx}: {exc}") from None
            if reusable:
                with self._lock:
                    self._idle[idx].append(sock)
            else:
                sock.close()
            return raw
        raise UpstreamUnavailable(f"backend {idx}")

    def close_all(self):
        with self._lock:
            socks = [s for lst in self._idle.values() for s in lst]
            for lst in self._idle.values():
                lst.clear()
        for sock in socks:
            sock.close()


class ProxyPlane(ChainRuntime):
    """One middlebox chain behind a listening broker."""

    ROUTER_ID = RELAY_ID
    ROUTER_LABEL = "relay"
    STAGE_LABEL = "mf"
    register_mf = ChainRuntime.register

    def __init__(self, pool: FramePool, config: BrokerConfig,
                 ledger: AuditLedger | None = None, *, name: str = "proxy"):
        config.validate()
        super().__init__(pool, config.mode, ledger, name=name,
                         ring_capacity=config.ring_capacity, batch=config.batch)
        self.config = config
        self._conn_ids = itertools.count()
        self.ingest_count = 0
        self.egress_count = 0
        self.parse_errors = 0
        self.upstream_errors = 0
        self.latency_records: list[dict] = []
        self._latency_lock = threading.Lock()
        self._t_ingress: dict[int, int] = {}
        self._conns: dict[int, _ClientConn] = {}
        self._parked: deque = deque()
        self._recheck: deque = deque()
        self._upstreams = UpstreamPool(config.upstreams, config.upstream_timeout)
        self._egress_q: queue.Queue = queue.Queue()  # event mode egress stage
        self._listener: socket.socket | None = None
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)

    # -- edges ---------------------------------------------------------------

    def _start_edges(self) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(self.config.listen)
        self._listener.listen(256)
        self._listener.setblocking(False)
        if self._mode is Mode.EVENT:
            for i in range(EGRESS_WORKERS):
                self._spawn(f"egress.{i}", self._egress_worker)
        self._spawn("io", self._io_loop)

    def _wake_edges(self) -> None:
        self._wake()
        for _ in range(EGRESS_WORKERS):
            self._egress_q.put(_STOP)

    def _close_edges(self) -> None:
        while True:
            try:
                desc = self._egress_q.get_nowait()
            except queue.Empty:
                break
            if desc is not _STOP:
                self._release(desc)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for conn in list(self._conns.values()):
            conn.sock.close()
        self._conns.clear()
        self._upstreams.close_all()

    def close(self) -> None:
        self.stop()
        self._wake_r.close()
        self._wake_w.close()

    @property
    def listen_address(self) -> tuple[str, int]:
        if self._listener is None:
            raise PlaneUnavailable(self.name)
        return self._listener.getsockname()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x01")
        except OSError:
            pass

    # -- connection handling ----------------------------------------------------

    def _io_loop(self) -> None:
        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ, ("accept", None))
        sel.register(self._wake_r, selectors.EVENT_READ, ("wake", None))
        while not self._stop.is_set():
            timeout = 0.005 if self._parked else None
            events = sel.select(timeout)
            for key, _mask in events:
                kind, conn = key.data
                if kind == "accept":
                    self._accept_all(sel)
                elif kind == "wake":
                    try:
                        self._wake_r.recv(4096)
                    except OSError:
                        pass
                    self._process_rechecks(sel)
                else:
                    self._on_readable(sel, conn)
            if self._parked:
                self._retry_parked()
        sel.close()

    def _accept_all(self, sel) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(True)
            local = sock.getsockname()
            flow = FlowKey(addr[0], local[0], addr[1], local[1], "TCP")
            conn = _ClientConn(sock, next(self._conn_ids), flow)
            self._conns[conn.conn_id] = conn
            sock.setblocking(False)
            sel.register(sock, selectors.EVENT_READ, ("client", conn))

    def _close_conn(self, sel, conn) -> None:
        conn.closed = True
        try:
            sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()
        self._conns.pop(conn.conn_id, None)

    def _on_readable(self, sel, conn) -> None:
        try:
            data = conn.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            self._close_conn(sel, conn)
            return
        if not data:
            self._close_conn(sel, conn)
            return
        conn.buffer += data
        self._pump(sel, conn)

    def _pump(self, sel, conn) -> None:
        # one request in flight per connection keeps responses ordered
        while not conn.in_flight and not conn.closed:
            try:
                request, consumed = try_parse_request(conn.buffer)
            except ParseError:
                self.parse_errors += 1
                self._send_raw(conn, simple_response(400, "Bad Request"))
                self._close_conn(sel, conn)
                return
            if request is None:
                return
            del conn.buffer[:consumed]
            conn.in_flight = True
            self._ingest(conn, request)

    def _process_rechecks(self, sel) -> None:
        while True:
            try:
                conn = self._recheck.popleft()
            except IndexError:
                return
            if not conn.closed:
                self._pump(sel, conn)

    def _retry_parked(self) -> None:
        for _ in range(len(self._parked)):
            conn, request = self._parked.popleft()
            if conn.closed:
                continue
            self._ingest(conn, request)

    # -- broker ingest ------------------------------------------------------------

    def _ingest(self, conn, request) -> None:
        """Move one parsed message into shared memory and start its trace.

        Socket read into the broker buffer and buffer into the frame are the
        two audited ingest copies; pool pressure parks the request instead of
        dropping it (stream semantics).
        """
        body = request.body
        if len(body) > self.pool.config.frame_size:
            self._send_raw(conn, simple_response(413, "Payload Too Large"))
            conn.in_flight = False
            return
        try:
            ref = self.pool.alloc_frame()
        except PoolExhausted:
            self._parked.append((conn, request))
            return
        self.pool.write_frame(ref, 0, body)
        trace_id = next(self._trace_ids)
        meta = HttpExchangeMeta(
            method=request.method, path=request.target, version=request.version,
            headers=request.headers, host=request.header("host"),
            connection_id=conn.conn_id,
        )
        desc = PacketDescriptor(ref, 0, len(body), INGRESS_ID, self._entry,
                                trace_id, flow=conn.flow, meta=meta)
        ledger = self.ledger
        if ledger is not None:
            ledger.record_vector(trace_id, 0, INGEST_COST)
        with self._latency_lock:
            self._t_ingress[trace_id] = time.monotonic_ns()
        self.ingest_count += 1
        desc.chain_hops = 1  # set before the send hands the descriptor on
        if self._mode is Mode.POLLING:
            if not self._regs[self._entry].rings.rx.enqueue(desc):
                self._drop(desc, "ring_full", respond=True)
        else:
            try:
                send_audited(self._sockmap, desc, ledger, step=1)
            except (UnknownDestination, InboxFull):
                self._drop(desc, "inbox_full", respond=True)

    def _drop(self, desc, reason, respond=False) -> None:
        """Count the drop and close its trace, free the frame, and let the
        client connection go on; ``respond`` also answers the client 503."""
        self._count_drop(desc, reason)
        self.pool.free_frame(desc.frame)
        with self._latency_lock:
            self._t_ingress.pop(desc.trace_id, None)
        conn = self._conns.get(desc.meta.connection_id) if desc.meta else None
        if conn is None:
            return
        if respond:
            self._send_raw(conn, simple_response(503, "Service Unavailable"))
        conn.in_flight = False
        self._recheck.append(conn)
        self._wake()

    # -- broker egress ------------------------------------------------------------------

    def _egress_event(self, desc) -> None:
        self._egress_q.put(desc)

    def _egress_worker(self) -> None:
        while True:
            desc = self._egress_q.get()
            if desc is _STOP:
                return
            self._egress_one(desc)

    def _egress_one(self, desc) -> None:
        """Serialize the (possibly rewritten) message, relay it upstream, and
        answer the client with the upstream's bytes."""
        meta = desc.meta
        body = self.pool.read_frame(desc.frame, desc.offset, desc.length)
        backend = meta.backend_choice if meta.backend_choice is not None else 0
        data = serialize_request(meta.method, meta.path, meta.headers, body)
        try:
            response = self._upstreams.roundtrip(backend, data)
        except UpstreamUnavailable:
            with self._count_lock:
                self.upstream_errors += 1
            response = simple_response(502, "Bad Gateway")
        if self.ledger is not None:
            self.ledger.record_vector(desc.trace_id, desc.chain_hops + 1, EGRESS_COST)
        self.pool.free_frame(desc.frame)
        t_egress = time.monotonic_ns()
        # account for the request before the client can see its response
        with self._count_lock:
            self.egress_count += 1
        if self.ledger is not None:
            self.ledger.complete(desc.trace_id, "egress")
        with self._latency_lock:
            t_ingress = self._t_ingress.pop(desc.trace_id, None)
            if t_ingress is not None:
                self.latency_records.append({
                    "trace_id": desc.trace_id,
                    "t_ingress": t_ingress,
                    "t_egress": t_egress,
                    "mode": self.mode.value,
                })
        conn = self._conns.get(meta.connection_id)
        if conn is not None and not conn.closed:
            self._send_raw(conn, response)
            conn.in_flight = False
            self._recheck.append(conn)
            self._wake()

    def _send_raw(self, conn, data: bytes) -> None:
        # the socket stays non-blocking (the IO thread may be selecting on it);
        # spin on writability with a hard deadline instead
        import select as _select
        deadline = time.monotonic() + 10.0
        view = memoryview(data)
        offset = 0
        with conn.lock:
            if conn.closed:
                return
            while offset < len(view):
                try:
                    offset += conn.sock.send(view[offset:])
                except BlockingIOError:
                    if time.monotonic() > deadline:
                        conn.closed = True
                        return
                    _select.select([], [conn.sock], [], 0.5)
                except OSError:
                    conn.closed = True
                    return

    # -- client helper --------------------------------------------------------------------

    def http_roundtrip(self, method="GET", path="/", headers=(), body=b"",
                       timeout=5.0):
        """One blocking request against this broker; returns (status, body, raw)."""
        request = serialize_request(method, path, list(headers), body)
        with socket.create_connection(self.listen_address, timeout=timeout) as sock:
            sock.sendall(request)
            raw, status, resp_body, _ = read_response(sock)
        return status, resp_body, raw

    def write_latency_jsonl(self, path) -> None:
        import json
        with self._latency_lock:
            records = list(self.latency_records)
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")

    def stats(self) -> dict:
        return {
            "mode": self.mode.value,
            "ingest": self.ingest_count,
            "egress": self.egress_count,
            "drops": dict(self.drops),
            "parse_errors": self.parse_errors,
            "upstream_errors": self.upstream_errors,
            "pool_free": self.pool.free_count,
        }
