"""Proxy plane: the L4/L7 edges of a chain run by :class:`ChainRuntime`.

The broker terminates real TCP connections and parses HTTP/1.1 requests.
Its ingress edge moves each message body into a pool frame, allocated and
written in one ``try_alloc_frame`` call, and hands the descriptor to the
chain's entry hop, ``_enter``: onto the entry function's RX ring, or one
event hop into its inbox. The middlebox functions work on the parsed
metadata. Its egress edge works a burst at a time, on the thread that
routed the burst out of the chain: the chain's worker in polling mode and
the last function's stage thread in event mode. It reads the burst's
bodies through one ``frame_views`` check, as packet egress does, and drops
a request whose frame fails it as ``bad_frame`` (503 to the client). It serializes every
other (possibly rewritten) request of the burst and pipelines them
upstream: each backend's requests go out in one write on one pooled
keep-alive connection, every backend is written to before any is read, and
then each backend's responses are read in order and answered. The burst's
frames go back to the pool with one free. A burst of one is one plain round
trip.

A client may pipeline: every complete request in a connection's buffer is
parsed and enters the chain at once, numbered in arrival order. Requests of
one connection can leave the chain out of order (a function drops one, or
a later one takes a shorter path), so every answer, the upstream's response
or the broker's own 400, 413, 502 or 503, goes through the connection's
sequencer, which holds it until every earlier answer has been written.

Per message the broker pays exactly two copies at ingest (socket read into
the broker buffer, buffer into the frame) and two at egress (frame out,
socket write), plus one protocol pass and one parse/serialize on each side.
"""

from __future__ import annotations

import itertools
import select
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from .audit import AuditLedger, CostVector
from .descriptors import FlowKey, HttpExchangeMeta, PacketDescriptor
from .errors import (
    InvalidConfig,
    ParseError,
    PlaneUnavailable,
)
from .http11 import (
    read_response,
    serialize_request,
    simple_response,
    try_parse_request,
)
from .pool import FramePool
from .runtime import ChainRuntime, Mode

INGEST_COST = CostVector(copies=2, interrupts=2, context_switches=1,
                         protocol_tasks=1, serde_tasks=1)
EGRESS_COST = CostVector(copies=2, interrupts=1, context_switches=1,
                         protocol_tasks=1, serde_tasks=1)
BAD_GATEWAY = simple_response(502, "Bad Gateway")


@dataclass
class BrokerConfig:
    listen: tuple[str, int] = ("127.0.0.1", 0)
    upstreams: list[tuple[str, int]] = field(default_factory=list)
    mode: Mode = Mode.EVENT
    upstream_timeout: float = 5.0

    def validate(self) -> None:
        if not self.upstreams:
            raise InvalidConfig("broker needs at least one upstream")


class _ClientConn:
    __slots__ = ("sock", "conn_id", "buffer", "lock", "closed", "flow",
                 "next_seq", "sent_seq", "ready", "parked", "discard")

    def __init__(self, sock, conn_id, flow):
        self.sock = sock
        self.conn_id = conn_id
        self.buffer = bytearray()
        self.lock = threading.Lock()  # guards sent_seq, ready and the writes
        self.closed = False
        self.flow = flow
        self.next_seq = 0  # number of the next request parsed (io thread)
        self.sent_seq = 0  # number of the next answer to write
        self.ready: dict[int, tuple[bytes, bool]] = {}  # seq -> (answer, last)
        # set while parsing waits: a request waits for a frame, or (for
        # good) a bad request ended the stream
        self.parked = False
        self.discard = 0  # bytes of a refused body still to skip (io thread)


class UpstreamPool:
    """Keep-alive connection pool, one idle list per backend."""

    def __init__(self, backends, timeout=5.0):
        self._backends = list(backends)
        self._timeout = timeout
        self._idle = {i: [] for i in range(len(backends))}
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._backends)

    def roundtrip(self, requests) -> list:
        """Relay a burst of ``(backend index, request bytes)`` pairs. Returns
        each request's response bytes in the burst's order, or None for a
        request its backend did not answer.

        Each backend's requests are written in one ``sendall`` on one
        keep-alive connection, and every backend is written to before any
        is read; then each backend's responses are read in order. A pooled
        connection that fails is stale: the requests it left unanswered are
        sent once more, on a fresh connection. A response that closes the
        connection sends the rest on a fresh one."""
        answers = [None] * len(requests)
        slots: dict[int, list[int]] = {}
        for i, (idx, _data) in enumerate(requests):
            if 0 <= idx < len(self._backends):
                slots.setdefault(idx, []).append(i)
        sent = [(idx, todo, *self._send(idx, [requests[i][1] for i in todo]))
                for idx, todo in slots.items()]
        for idx, todo, sock, pooled in sent:
            while True:
                raws, failed = self._read(idx, sock, len(todo))
                for i, raw in zip(todo, raws):
                    answers[i] = raw
                todo = todo[len(raws):]
                # only a pooled connection's failure is retried, and every
                # resend goes on a fresh one, so a burst retries at most once
                if not todo or failed and not pooled:
                    break
                sock, pooled = self._send(idx, [requests[i][1] for i in todo],
                                          fresh=True)
        return answers

    def _send(self, idx, payloads, fresh=False):
        """Write ``payloads`` to backend ``idx`` in one ``sendall``, on an idle
        connection unless ``fresh``, else on a new one. Returns the
        connection, None if the backend refused it or the write failed, and
        whether it was pooled."""
        sock, pooled = None, False
        if not fresh:
            with self._lock:
                if self._idle[idx]:
                    sock, pooled = self._idle[idx].pop(), True
        try:
            if sock is None:
                sock = socket.create_connection(self._backends[idx],
                                                timeout=self._timeout)
            sock.sendall(b"".join(payloads))
        except OSError:
            if sock is not None:
                sock.close()
            return None, pooled
        return sock, pooled

    def _read(self, idx, sock, count):
        """Read up to ``count`` responses off ``sock``, in order. Returns them
        and whether the connection failed. A connection that answered all
        ``count`` and may be kept goes back to the pool; any other is
        closed."""
        if sock is None:
            return [], True
        buf = bytearray()
        raws = []
        try:
            while len(raws) < count:
                raw, _status, _body, reusable = read_response(sock, buf)
                raws.append(raw)
                if not reusable:
                    break
        except (OSError, ParseError):
            sock.close()
            return raws, True
        if reusable and not buf:
            with self._lock:
                self._idle[idx].append(sock)
        else:
            sock.close()
        return raws, False

    def close_all(self):
        with self._lock:
            socks = [s for lst in self._idle.values() for s in lst]
            for lst in self._idle.values():
                lst.clear()
        for sock in socks:
            sock.close()


class ProxyPlane(ChainRuntime):
    """One middlebox chain behind a listening broker."""

    STAGE_LABEL = "mf"
    INGRESS_KEY = "ingest"  # the broker benchmark reads this key
    EDGE_COUNTERS = ("parse_errors", "upstream_errors")

    def __init__(self, pool: FramePool, config: BrokerConfig,
                 ledger: AuditLedger | None = None, *, name: str = "proxy"):
        config.validate()
        super().__init__(pool, config.mode, ledger, name=name)
        self.config = config
        self._conn_ids = itertools.count()
        self.parse_errors = 0
        self.upstream_errors = 0
        self._conns: dict[int, _ClientConn] = {}
        self._parked: deque = deque()
        self._upstreams = UpstreamPool(config.upstreams, config.upstream_timeout)
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
        self._spawn("io", self._io_loop)

    def _wake_edges(self) -> None:
        self._wake()

    def _close_edges(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for conn in list(self._conns.values()):
            conn.sock.close()
        self._conns.clear()
        self._upstreams.close_all()

    def close(self) -> None:
        try:
            self.stop()
        finally:
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
            # the timeout covers a frame freed just before a request parked
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
        if not data or conn.closed:  # closed: it takes no more answers
            self._close_conn(sel, conn)
            return
        conn.buffer += data
        self._pump(conn)

    def _pump(self, conn) -> None:
        """Ingest every complete request in the buffer; the sequencer keeps
        their answers in order.

        A request whose body cannot fit a frame is counted as ingested and
        dropped as ``oversize``, as the packet plane counts it, and answered
        413 as soon as its head is whole. Its body is skipped as it arrives,
        never buffered, and the request after it is parsed as usual."""
        while not conn.parked and not conn.closed:
            if conn.discard:
                skipped = min(conn.discard, len(conn.buffer))
                del conn.buffer[:skipped]
                conn.discard -= skipped
                if conn.discard:
                    return
            seq = conn.next_seq
            try:
                request, consumed = try_parse_request(conn.buffer,
                                                      self.pool.config.frame_size)
            except ParseError:
                self.parse_errors += 1
                conn.parked = True
                self._respond(conn, seq, simple_response(400, "Bad Request"),
                              last=True)
                return
            if request is None:
                return
            conn.next_seq = seq + 1
            if request.body is None:
                conn.discard = consumed
                self.ingress_count += 1
                self._count_drop("oversize")
                self._respond(conn, seq, simple_response(413, "Payload Too Large"))
                continue
            del conn.buffer[:consumed]
            self._ingest(conn, seq, request)

    def _retry_parked(self) -> None:
        for _ in range(len(self._parked)):
            conn, seq, request = self._parked.popleft()
            if conn.closed:
                continue
            conn.parked = False
            self._ingest(conn, seq, request)
            # the requests behind it may already sit in the buffer
            self._pump(conn)

    # -- broker ingest ------------------------------------------------------------

    def _ingest(self, conn, seq, request) -> None:
        """Move one parsed message into shared memory, start its trace and
        hand its descriptor to the entry function through ``_enter``.

        Socket read into the broker buffer and buffer into the frame are the
        two audited ingest copies; the frame is allocated and the body
        written into it with one ``try_alloc_frame(body)``; ``_pump`` has
        already answered a body larger than a frame. Pool pressure, a None
        from that call, parks the request, and stops parsing its
        connection, instead of dropping it (stream semantics).
        """
        body = request.body
        ref = self.pool.try_alloc_frame(body)
        if ref is None:
            conn.parked = True
            self._parked.append((conn, seq, request))
            return
        trace_id = next(self._trace_ids)
        meta = HttpExchangeMeta(
            method=request.method, path=request.target, version=request.version,
            headers=request.headers, host=request.header("host"),
            connection_id=conn.conn_id, seq=seq,
        )
        if self.ledger is not None:
            self.ledger.record_vector(trace_id, 0, INGEST_COST)
        self.ingress_count += 1
        desc = PacketDescriptor(ref, len(body), trace_id, flow=conn.flow,
                                meta=meta)
        self._enter(desc)

    def _drop(self, desc, reason) -> None:
        """Drop as the chain does, then answer the client 503 so that its
        connection goes on."""
        super()._drop(desc, reason)
        conn = self._conns.get(desc.meta.connection_id) if desc.meta else None
        if conn is not None:
            self._respond(conn, desc.meta.seq,
                          simple_response(503, "Service Unavailable"))

    # -- broker egress ------------------------------------------------------------------

    def _egress(self, batch) -> None:
        """Serialize every (possibly rewritten) message of the burst, relay
        the burst upstream, and answer each client with its upstream's
        bytes. A message whose frame fails the pool's checks is dropped as
        ``bad_frame`` and never read."""
        sent, requests = [], []
        for desc, view in zip(batch, self.pool.frame_views(batch)):
            if view is None:
                self._drop(desc, "bad_frame")
                continue
            meta = desc.meta
            backend = meta.backend_choice if meta.backend_choice is not None else 0
            requests.append((backend, serialize_request(
                meta.method, meta.path, meta.headers, view.tobytes())))
            sent.append(desc)
        responses = self._upstreams.roundtrip(requests)
        ledger = self.ledger
        if ledger is not None:
            for desc in sent:
                ledger.record_vector(desc.trace_id, desc.chain_hops + 1, EGRESS_COST)
        self._free([desc.frame for desc in sent])
        # account for the burst before any client can see its response
        with self._count_lock:
            self.egress_count += len(sent)
            self.upstream_errors += responses.count(None)
        for desc, response in zip(sent, responses):
            if ledger is not None:
                ledger.complete(desc.trace_id, "egress")
            conn = self._conns.get(desc.meta.connection_id)
            if conn is not None:
                self._respond(conn, desc.meta.seq, response or BAD_GATEWAY)

    def _free(self, refs) -> None:
        super()._free(refs)
        if self._parked:  # let the io thread hand a parked request a frame
            self._wake()

    def _respond(self, conn, seq, data: bytes, *, last=False) -> None:
        """Answer request ``seq`` of ``conn``: hold the answer until every
        earlier one is written, then write each ready answer in order. After
        the ``last`` answer the write side shuts down; the io thread closes
        the socket once the client hangs up."""
        with conn.lock:
            if conn.closed:
                return
            conn.ready[seq] = (data, last)
            while not conn.closed and conn.sent_seq in conn.ready:
                data, last = conn.ready.pop(conn.sent_seq)
                conn.sent_seq += 1
                self._send_raw(conn, data)
                if last:
                    conn.closed = True
                    try:
                        conn.sock.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass

    def _send_raw(self, conn, data: bytes) -> None:
        # called under conn.lock; the socket stays non-blocking (the IO
        # thread may be selecting on it), so spin on writability with a hard
        # deadline instead
        deadline = time.monotonic() + 10.0
        view = memoryview(data)
        offset = 0
        while offset < len(view):
            try:
                offset += conn.sock.send(view[offset:])
            except BlockingIOError:
                if time.monotonic() > deadline:
                    conn.closed = True
                    return
                select.select([], [conn.sock], [], 0.5)
            except OSError:
                conn.closed = True
                return
