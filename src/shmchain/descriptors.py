"""Descriptor and flow records passed between chain components."""

from __future__ import annotations

from dataclasses import dataclass, field

from .pool import FrameRef

PROTOCOLS = ("TCP", "UDP")

#: routing sentinel: descriptor leaves the chain
EGRESS = "EGRESS"

#: pseudo function id for descriptors entering a chain
INGRESS_ID = "__ingress__"


@dataclass(frozen=True)
class FlowKey:
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: str

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}")
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise ValueError(f"port out of range: {port}")


@dataclass
class HttpExchangeMeta:
    """Parsed request attributes carried beside the frame at L4/L7.

    Middlebox functions mutate this record; the body bytes stay untouched in
    the frame.
    """

    method: str
    path: str
    version: str
    headers: list[tuple[str, str]]
    host: str | None
    connection_id: int
    backend_choice: int | None = None


@dataclass
class PacketDescriptor:
    """Unit of zero-copy handoff: a pointer into the pool plus routing state.

    Stored by value in rings and inboxes; the frame it references has exactly
    one live owner at a time, and transports move that ownership with the
    descriptor.
    """

    frame: FrameRef
    offset: int
    length: int
    src_fn: str
    dst_fn: str
    trace_id: int
    flow: FlowKey | None = None
    meta: HttpExchangeMeta | None = None
    chain_hops: int = 0
    requeued: bool = field(default=False, repr=False)
