"""HTTP load generator and echo backends for the broker workload.

It runs as a child process of the benchmark, so that neither the load nor
the backends spend CPU time of the measured process. One thread and one
selector serve two keep-alive client connections to the broker and two
backend listeners. Commands and results are JSON lines on stdin and stdout:

    -> {"backends": [port0, port1]}                       once, at start
    <- {"cmd": "round", "broker": [host, port], "ping": 200, "flood": 4000,
        "depth": 4, "timed": false}
    -> {"event": "flood"}                                 ping phase over
    -> {"event": "done", ...}                             round over
    <- {"cmd": "quit"}

Request ``n`` is ``POST /old/<n>`` with a 1 KiB body: ``n`` in eight digits,
then one of BODY_VARIANTS seeded blocks. Backend ``i`` answers with
``X-Path`` set to the path it received and the body prefixed with
``BACKEND_PREFIXES[i]``. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import random
import selectors
import socket
import sys
import time
from collections import deque

BODY_LEN = 1024
BODY_VARIANTS = 16
BACKEND_PREFIXES = (b"backend-0|", b"backend-1|")
CLIENTS = 2
PHASE_TIMEOUT_S = 20.0
MAX_ERRORS = 5


def make_bodies(seed: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(BODY_LEN - 8) for _ in range(BODY_VARIANTS)]


def request_body(bodies: list[bytes], n: int) -> bytes:
    return b"%08d" % n + bodies[n % BODY_VARIANTS]


def request_bytes(bodies: list[bytes], n: int) -> bytes:
    body = request_body(bodies, n)
    return (b"POST /old/%d HTTP/1.1\r\nHost: chainbench\r\nContent-Length: %d\r\n\r\n"
            % (n, len(body)) + body)


def backend_response(index: int, path: str, body: bytes) -> bytes:
    payload = BACKEND_PREFIXES[index] + body
    return (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nX-Path: %s\r\n"
            b"X-Backend: %d\r\n\r\n" % (len(payload), path.encode("latin-1"), index)
            + payload)


def take_message(buf: bytearray):
    """Remove the first complete Content-Length framed message from ``buf``.

    Returns (start line, headers with lower-case names, body), or None while
    the message is incomplete. Raises ValueError on a malformed head.
    """
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    lines = bytes(buf[:head_end]).decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    if not length.isdigit():
        raise ValueError(f"bad Content-Length {length!r}")
    end = head_end + 4 + int(length)
    if len(buf) < end:
        return None
    body = bytes(buf[head_end + 4:end])
    del buf[:end]
    return lines[0], headers, body


def check_response(pending: deque, bodies: list[bytes], status_line: str,
                   headers: dict, body: bytes):
    """Match a response with the oldest outstanding request on its connection.

    ``pending`` holds (request number, send time) in send order; the oldest
    entry is removed. Returns (request number, backend index, error), where
    error is None for a correct response and backend index is None
    otherwise.
    """
    n, _sent_ns = pending.popleft()
    want_path = f"/new/{n}"
    got_path = headers.get("x-path")
    if got_path != want_path:
        if got_path in {f"/new/{m}" for m, _ in pending}:
            return n, None, f"response for {got_path} came before the one for {want_path}"
        return n, None, f"X-Path {got_path!r}, want {want_path!r}"
    parts = status_line.split(" ", 2)
    if len(parts) < 2 or parts[1] != "200":
        return n, None, f"request {n}: status line {status_line!r}"
    sent = request_body(bodies, n)
    for index, prefix in enumerate(BACKEND_PREFIXES):
        if body.startswith(prefix) and body[len(prefix):] == sent:
            return n, index, None
    return n, None, f"request {n}: echoed body differs from the bytes sent"


class _Conn:
    """Non-blocking socket with input and output buffers on the selector."""

    def __init__(self, gen: "LoadGen", sock: socket.socket):
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.gen = gen
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.closed = False
        gen.sel.register(sock, selectors.EVENT_READ, self)

    def write(self, data: bytes) -> None:
        pending = bool(self.outbuf)
        self.outbuf += data
        if not pending:
            self.flush()

    def flush(self) -> None:
        try:
            sent = self.sock.send(self.outbuf)
        except BlockingIOError:
            sent = 0
        except OSError:
            self.close()
            return
        del self.outbuf[:sent]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self.outbuf else 0)
        self.gen.sel.modify(self.sock, events, self)

    def on_event(self, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self.flush()
        if mask & selectors.EVENT_READ and not self.closed:
            try:
                data = self.sock.recv(65536)
            except BlockingIOError:
                return
            except OSError:
                data = b""
            if not data:
                self.close()
                return
            self.inbuf += data
            self.on_data()

    def on_data(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.gen.sel.unregister(self.sock)
            self.sock.close()


class _BackendConn(_Conn):
    def __init__(self, gen, sock, index):
        super().__init__(gen, sock)
        self.index = index

    def on_data(self) -> None:
        while True:
            message = take_message(self.inbuf)
            if message is None:
                return
            start_line, _headers, body = message
            parts = start_line.split(" ")
            path = parts[1] if len(parts) == 3 else ""
            self.gen.backend_counts[self.index] += 1
            self.write(backend_response(self.index, path, body))


class _Listener:
    def __init__(self, gen, index):
        self.gen = gen
        self.index = index
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(16)
        self.sock.setblocking(False)
        self.port = self.sock.getsockname()[1]
        gen.sel.register(self.sock, selectors.EVENT_READ, self)

    def on_event(self, mask: int) -> None:
        try:
            sock, _addr = self.sock.accept()
        except BlockingIOError:
            return
        _BackendConn(self.gen, sock, self.index)


class _Client(_Conn):
    def __init__(self, gen, sock):
        super().__init__(gen, sock)
        self.pending: deque = deque()

    def send_request(self, n: int) -> None:
        gen = self.gen
        if gen.timed:
            t0 = time.perf_counter_ns()
            data = request_bytes(gen.bodies, n)
            gen.gen_ns += time.perf_counter_ns() - t0
            gen.gen_calls += 1
        else:
            data = request_bytes(gen.bodies, n)
        self.pending.append((n, time.monotonic_ns()))
        self.write(data)

    def on_data(self) -> None:
        gen = self.gen
        while self.pending:
            t0 = time.perf_counter_ns()
            try:
                message = take_message(self.inbuf)
            except ValueError as exc:
                gen.note(str(exc))
                self.close()
                return
            if message is None:
                return
            sent_ns = self.pending[0][1]
            _n, _backend, error = check_response(self.pending, gen.bodies, *message)
            if gen.timed:
                gen.sink_ns += time.perf_counter_ns() - t0
                gen.sink_calls += 1
            gen.on_response(self, sent_ns, error)

    def close(self) -> None:
        super().close()
        self.gen.note_closed(self)


class _Abort(Exception):
    pass


class LoadGen:
    def __init__(self, seed: int):
        self.sel = selectors.DefaultSelector()
        self.bodies = make_bodies(seed)
        self.listeners = [_Listener(self, i) for i in range(len(BACKEND_PREFIXES))]
        self.backend_counts = [0] * len(self.listeners)
        self.timed = False
        self._reset()

    def _reset(self) -> None:
        self.answered = 0
        self.good = 0
        self.errors: list[str] = []
        self.gen_calls = self.gen_ns = 0
        self.sink_calls = self.sink_ns = 0
        self.next_n = 0
        self.total = 0
        self.refill = False
        self.first_ns = 0
        self.last_ns = 0
        self.latencies_ns: list[int] = []

    @property
    def ports(self) -> list[int]:
        return [listener.port for listener in self.listeners]

    def note(self, message: str) -> None:
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def note_closed(self, client: _Client) -> None:
        if client.pending:
            self.note(f"broker closed a connection with {len(client.pending)} "
                      "requests unanswered")

    def on_response(self, client: _Client, sent_ns: int, error) -> None:
        now = time.monotonic_ns()
        self.answered += 1
        self.last_ns = now
        if not self.first_ns:
            self.first_ns = now
        if error is None:
            self.good += 1
        else:
            self.note(error)
        if not self.refill:
            self.latencies_ns.append(now - sent_ns)
        elif self.next_n < self.total:
            client.send_request(self.next_n)
            self.next_n += 1

    def _pump_until(self, target: int, clients) -> None:
        deadline = time.monotonic() + PHASE_TIMEOUT_S
        while self.answered < target:
            if any(c.closed for c in clients):
                raise _Abort("a client connection closed")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _Abort(f"no answer within {PHASE_TIMEOUT_S} s")
            for key, mask in self.sel.select(remaining):
                key.data.on_event(mask)

    def run_round(self, cmd: dict, emit) -> None:
        self._reset()
        self.timed = bool(cmd.get("timed"))
        self.backend_counts = [0] * len(self.listeners)
        ping, flood, depth = cmd["ping"], cmd["flood"], cmd["depth"]
        self.total = ping + flood
        clients = []
        flood_start = flood_end = 0
        flood_sent = False
        try:
            for _ in range(CLIENTS):
                sock = socket.create_connection(tuple(cmd["broker"]), timeout=5)
                clients.append(_Client(self, sock))
            for n in range(ping):
                clients[0].send_request(n)
                self._pump_until(n + 1, clients)
            emit({"event": "flood"})
            flood_sent = True
            self.next_n = ping
            self.refill = True
            self.gen_calls = self.gen_ns = self.sink_calls = self.sink_ns = 0
            flood_start = time.monotonic_ns()
            for _ in range(depth):
                for client in clients:
                    if self.next_n < self.total:
                        client.send_request(self.next_n)
                        self.next_n += 1
            self._pump_until(self.total, clients)
            flood_end = self.last_ns
        except (_Abort, OSError) as exc:
            self.note(f"round aborted: {exc}")
        finally:
            for client in clients:
                client.pending.clear()
                client.close()
        if not flood_sent:
            emit({"event": "flood"})
        emit({
            "event": "done",
            "attempted": self.total,
            "failed": self.total - self.good,
            "errors": self.errors,
            "first_ns": self.first_ns,
            "flood_ops": flood,
            "flood_ns": flood_end - flood_start if flood_end else 0,
            "latencies_ns": self.latencies_ns,
            "backend_counts": self.backend_counts,
            "gen": [self.gen_calls, self.gen_ns],
            "sink": [self.sink_calls, self.sink_ns],
        })

    def close(self) -> None:
        for listener in self.listeners:
            self.sel.unregister(listener.sock)
            listener.sock.close()
        for key in list(self.sel.get_map().values()):
            key.fileobj.close()
        self.sel.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    def emit(message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    gen = LoadGen(args.seed)
    try:
        emit({"backends": gen.ports})
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["cmd"] == "quit":
                break
            gen.run_round(cmd, emit)
    finally:
        gen.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
