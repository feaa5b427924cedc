"""Minimal HTTP/1.1 framing: one head parser for requests and responses,
serialization, blocking (pipelined) response reads and a keep-alive client.
Content-Length framing only; a Transfer-Encoding is rejected either way.
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
        return _find(self.headers, name.lower())


def _parse_head(buf):
    """Frame the message at the head of ``buf``: None until its head is whole,
    else (start line, headers, body start, Content-Length or None). ParseError
    on a bad head, header line or Content-Length, or a Transfer-Encoding."""
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        if len(buf) > MAX_HEADER_BYTES:
            raise ParseError("header section too large")
        return None
    lines = bytes(buf[:head_end]).decode("latin-1").split("\r\n")
    headers: list[tuple[str, str]] = []
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        name = name.strip()
        if not sep or not name:
            raise ParseError(f"malformed header line: {line!r}")
        headers.append((name, value.strip()))
    if _find(headers, "transfer-encoding") is not None:
        raise ParseError("transfer-encoding not supported")
    length = _find(headers, "content-length")
    body_len = None if length is None else _digits(length, 1, 18, "content-length")
    return lines[0], headers, head_end + 4, body_len


def _digits(text, min_len, max_len, what):
    """int(text) if ``text`` is min_len to max_len ASCII digits, else
    ParseError: str.isdigit alone passes "²" and 4301 digits, which int rejects."""
    if not (text.isascii() and text.isdigit() and min_len <= len(text) <= max_len):
        raise ParseError(f"bad {what}: {text!r}")
    return int(text)


def _find(headers, lname):
    for key, value in headers:
        if key.lower() == lname:
            return value
    return None


def try_parse_request(buf) -> tuple[HttpRequest | None, int]:
    """Parse one request from the head of ``buf``.

    Returns (request, consumed bytes), or (None, 0) when more data is needed.
    Raises ParseError on malformed input.
    """
    head = _parse_head(buf)
    if head is None:
        return None, 0
    request_line, headers, body_start, body_len = head
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[0].isalpha() or not parts[2].startswith("HTTP/1."):
        raise ParseError(f"malformed request line: {request_line!r}")
    method, target, version = parts[0].upper(), parts[1], parts[2]
    if not target:
        raise ParseError("empty request target")
    total = body_start + (body_len or 0)
    if len(buf) < total:
        return None, 0
    body = bytes(buf[body_start:total])
    return HttpRequest(method, target, version, headers, body), total


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
    buf = buf if keep else bytearray()
    head = None
    while head is None or len(buf) < total:
        if head is None and (head := _parse_head(buf)) is not None:
            status_line, headers, body_start, body_len = head
            code = status_line.partition(" ")[2].partition(" ")[0]
            status = _digits(code, 3, 3, "status code")  # RFC 9112: 3DIGIT
            if body_len is None:
                raise ParseError("response missing content-length")
            total = body_start + body_len
            continue
        chunk = sock.recv(65536)
        if not chunk:
            raise ParseError("connection closed mid body" if head else
                             "connection closed before response head")
        buf += chunk
    raw = bytes(buf[:total])
    del buf[:total]
    connection = (_find(headers, "connection") or "keep-alive").lower()
    reusable = connection != "close" and (keep or not buf)
    return raw, status, raw[body_start:], reusable


class KeepAliveClient:
    """A blocking keep-alive client of one address, one request at a time. It
    connects on first use and again after a non-reusable response; a failed
    send, receive or framing closes it and raises (OSError or ParseError)."""

    def __init__(self, address: tuple[str, int], timeout: float):
        self.address, self.timeout = address, timeout
        self._sock: socket.socket | None = None

    def connect(self) -> None:
        """Connect unless connected; ``request`` calls this first."""
        if self._sock is None:
            self._sock = socket.create_connection(self.address, timeout=self.timeout)

    def request(self, data: bytes) -> tuple[bytes, int, bytes]:
        """Send one serialized request; returns (raw, status, body)."""
        self.connect()
        try:
            self._sock.sendall(data)
            raw, status, body, reusable = read_response(self._sock)
        except (OSError, ParseError):
            self.close()
            raise
        if not reusable:
            self.close()
        return raw, status, body

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
