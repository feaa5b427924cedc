"""A blocking HTTP/1.1 client for the tests that talk to a broker."""

import socket

from shmchain.http11 import read_response, serialize_request


def http_roundtrip(plane, method="GET", path="/", headers=(), body=b"",
                   timeout=5.0):
    """One blocking request against the broker of ``plane`` on a connection
    of its own; returns (status, body, raw)."""
    request = serialize_request(method, path, list(headers), body)
    with socket.create_connection(plane.listen_address, timeout=timeout) as sock:
        sock.sendall(request)
        raw, status, resp_body, _ = read_response(sock)
    return status, resp_body, raw
