"""Minimal HTTP/1.1 framing: request parsing, request/response serialization,
and blocking response reads, pipelined ones included. Content-Length framing
only; chunked transfer is rejected.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass

from .errors import ParseError

MAX_HEADER_BYTES = 65536
_HOP_BY_HOP = {"connection", "keep-alive", "proxy-connection", "transfer-encoding",
               "te", "trailer", "upgrade"}


@dataclass
class HttpRequest:
    method: str
    target: str
    version: str
    headers: list[tuple[str, str]]
    body: bytes

    def header(self, name: str) -> str | None:
        lname = name.lower()
        for key, value in self.headers:
            if key.lower() == lname:
                return value
        return None


def try_parse_request(buf) -> tuple[HttpRequest | None, int]:
    """Parse one request from the head of ``buf``.

    Returns (request, consumed bytes), or (None, 0) when more data is needed.
    Raises ParseError on malformed input.
    """
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        if len(buf) > MAX_HEADER_BYTES:
            raise ParseError("header section too large")
        return None, 0
    head = bytes(buf[:head_end]).decode("latin-1")
    lines = head.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[0].isalpha() or not parts[2].startswith("HTTP/1."):
        raise ParseError(f"malformed request line: {lines[0]!r}")
    method, target, version = parts[0].upper(), parts[1], parts[2]
    if not target:
        raise ParseError("empty request target")
    headers: list[tuple[str, str]] = []
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise ParseError(f"malformed header line: {line!r}")
        headers.append((name.strip(), value.strip()))
    te = _find(headers, "transfer-encoding")
    if te is not None:
        raise ParseError("transfer-encoding not supported")
    length_text = _find(headers, "content-length")
    body_len = 0
    if length_text is not None:
        if not length_text.isdigit():
            raise ParseError(f"bad content-length: {length_text!r}")
        body_len = int(length_text)
    total = head_end + 4 + body_len
    if len(buf) < total:
        return None, 0
    body = bytes(buf[head_end + 4:total])
    return HttpRequest(method, target, version, headers, body), total


def _find(headers, lname):
    for key, value in headers:
        if key.lower() == lname:
            return value
    return None


def serialize_request(method: str, target: str, headers, body: bytes,
                      version: str = "HTTP/1.1") -> bytes:
    out = [f"{method} {target} {version}\r\n".encode("latin-1")]
    seen_host = False
    for key, value in headers:
        lkey = key.lower()
        if lkey in _HOP_BY_HOP or lkey == "content-length":
            continue
        if lkey == "host":
            seen_host = True
        out.append(f"{key}: {value}\r\n".encode("latin-1"))
    if not seen_host:
        out.append(b"Host: upstream\r\n")
    out.append(f"Content-Length: {len(body)}\r\n".encode("latin-1"))
    out.append(b"Connection: keep-alive\r\n\r\n")
    out.append(body)
    return b"".join(out)


def simple_response(status: int, reason: str, body: bytes = b"",
                    content_type: str = "text/plain", extra_headers=()) -> bytes:
    head = [f"HTTP/1.1 {status} {reason}\r\n".encode("latin-1"),
            f"Content-Length: {len(body)}\r\n".encode("latin-1"),
            f"Content-Type: {content_type}\r\n".encode("latin-1")]
    for key, value in extra_headers:
        head.append(f"{key}: {value}\r\n".encode("latin-1"))
    head.append(b"\r\n")
    head.append(body)
    return b"".join(head)


def read_response(sock: socket.socket, buf: bytearray | None = None
                  ) -> tuple[bytes, int, bytes, bool]:
    """Read one Content-Length framed response off a blocking socket.

    Returns (raw bytes, status code, body, connection reusable). A caller
    that reads pipelined responses passes the connection's ``buf``: the read
    starts with the bytes already in it and leaves there every byte past
    this response. Without one, bytes past the response are lost, so the
    connection is not reusable.
    """
    keep = buf is not None
    if buf is None:
        buf = bytearray()
    while True:
        head_end = buf.find(b"\r\n\r\n")
        if head_end >= 0:
            break
        if len(buf) > MAX_HEADER_BYTES:
            raise ParseError("response head too large")
        chunk = sock.recv(65536)
        if not chunk:
            raise ParseError("connection closed before response head")
        buf += chunk
    head = bytes(buf[:head_end]).decode("latin-1")
    lines = head.split("\r\n")
    status_parts = lines[0].split(" ", 2)
    if len(status_parts) < 2 or not status_parts[1].isdigit():
        raise ParseError(f"malformed status line: {lines[0]!r}")
    status = int(status_parts[1])
    headers = []
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers.append((name.strip(), value.strip()))
    length_text = _find(headers, "content-length")
    if length_text is None or not length_text.isdigit():
        raise ParseError("response missing content-length")
    body_len = int(length_text)
    total = head_end + 4 + body_len
    while len(buf) < total:
        chunk = sock.recv(65536)
        if not chunk:
            raise ParseError("connection closed mid body")
        buf += chunk
    raw = bytes(buf[:total])
    del buf[:total]
    connection = (_find(headers, "connection") or "keep-alive").lower()
    reusable = connection != "close" and (keep or not buf)
    return raw, status, raw[head_end + 4:], reusable
