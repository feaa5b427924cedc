"""Canonical instrumented runs for dynamic audit verification.

Builds the reference pipeline for a model id, drives traffic through it, and
returns the filled ledger. The legacy models (a-h) exist as static
predictions only; the shared-memory pipelines and the plane handoff are the
ones that run.
"""

from __future__ import annotations

import time

from .audit import AuditLedger, get_model
from .bench import StaticUpstream, build_packet
from .chainspec import build_planes, parse_spec
from .classifier import HandoffAdapter
from .descriptors import EGRESS
from .errors import ShmChainError
from .packet_plane import PacketPlane
from .pool import PoolRegistry
from .proxy_plane import ProxyPlane
from .runtime import Mode

RUNNABLE_MODELS = ("alpha", "beta", "gamma", "delta", "unified_hw")

# per kind: function name stem, pool frames, entry function, every later one
_REFERENCE = {
    "packet": ("fn", 4096, "l3route:10.0.0.5=10.0.1.5", "l2fwd"),
    "proxy": ("mf", 1024, "revproxy", "urlrewrite:/old=/new"),
}

_SPEC_HEAD = """\
[pool.{name}]
prefix = {name}
frame_count = {frames}
frame_size = 2048

[plane.{name}]
kind = {kind}
pool = {name}
mode = {mode}
"""


def reference_chain(registry: PoolRegistry, kind: str, mode: Mode,
                    chain_len: int, name: str, *, ledger: AuditLedger | None = None,
                    upstreams=()):
    """Build the reference chain from spec text: ``chain_len`` functions in a
    line, an L3 router then L2 forwarders for ``packet``, a reverse proxy then
    URL rewriters over ``upstreams`` for ``proxy``. Pool and plane are both
    called ``name``. Returns (pool, plane), the plane not yet started."""
    stem, frames, first, rest = _REFERENCE[kind]
    fns = [f"{stem}{i}" for i in range(chain_len)]
    lines = _SPEC_HEAD.format(name=name, frames=frames, kind=kind,
                              mode=Mode(mode).value).splitlines()
    if upstreams:
        lines.append("upstreams = " + ", ".join(f"{host}:{port}"
                                                for host, port in upstreams))
    lines += [f"function.{fn} = {rest if i else first}" for i, fn in enumerate(fns)]
    lines.append(f"entry = {fns[0]}")
    lines += [f"route.{a} = {b}" for a, b in zip(fns, [*fns[1:], EGRESS])]
    pools, planes = build_planes(parse_spec("\n".join(lines)), registry=registry,
                                 ledgers={name: ledger})
    return pools[name], planes[name]


def run_packet_traffic(plane: PacketPlane, packets: int,
                       payload_size: int = 64, timeout: float = 30.0) -> int:
    """Offer ``packets`` packets, waiting out backpressure, and block until
    the chain drains. Returns the egress count; raises ``ShmChainError`` when
    the chain has not drained by the deadline."""
    deadline = time.time() + timeout
    for seq in range(packets):
        pkt = build_packet(payload_size, seq, 3)
        while not plane.ingress(pkt):
            if time.time() > deadline:
                raise ShmChainError(
                    f"packet plane not absorbing traffic: {plane.stats()}")
            time.sleep(0.001)
    # every offer, refused ones included, ends as one egress or one drop
    while plane.egress_count + sum(plane.drops.values()) < plane.ingress_count:
        if time.time() > deadline:
            raise ShmChainError(
                f"packet plane did not drain {packets} packets: {plane.stats()}")
        time.sleep(0.005)
    return plane.egress_count


def run_proxy_traffic(plane: ProxyPlane, requests: int) -> int:
    import socket

    from .http11 import read_response, serialize_request

    done = 0
    sock = socket.create_connection(plane.listen_address, timeout=10)
    sock.settimeout(10)
    try:
        for i in range(requests):
            request = serialize_request("GET", f"/old/{i}", [("Host", "verify")],
                                        b"x" * 32)
            sock.sendall(request)
            _raw, status, _body, reusable = read_response(sock)
            done += 1
            if not reusable:
                sock.close()
                sock = socket.create_connection(plane.listen_address, timeout=10)
                sock.settimeout(10)
    finally:
        sock.close()
    return done


def run_audit_traffic(model_id: str, packets: int = 300,
                      chain_len: int = 2) -> tuple[AuditLedger, int]:
    """Drive the reference pipeline for ``model_id`` and return its ledger."""
    model = get_model(model_id)
    if model.model_id not in RUNNABLE_MODELS:
        raise ShmChainError(
            f"model {model.model_id} is audited statically; use predict")
    registry = PoolRegistry()
    ledger = AuditLedger()
    try:
        if model.model_id in ("alpha", "beta"):
            mode = Mode.POLLING if model.model_id == "alpha" else Mode.EVENT
            _pool, plane = reference_chain(registry, "packet", mode, chain_len,
                                           f"audit-{model.model_id}",
                                           ledger=ledger)
            plane.set_sink(lambda payload, desc: None)
            plane.start()
            try:
                run_packet_traffic(plane, packets)
            finally:
                plane.stop()
        elif model.model_id in ("gamma", "delta"):
            mode = Mode.POLLING if model.model_id == "gamma" else Mode.EVENT
            stub = StaticUpstream(b"verify\n")
            try:
                _pool, plane = reference_chain(registry, "proxy", mode,
                                               chain_len, f"audit-{model.model_id}",
                                               ledger=ledger,
                                               upstreams=[stub.address])
                plane.start()
                try:
                    run_proxy_traffic(plane, packets)
                finally:
                    plane.close()
            finally:
                stub.stop()
        else:  # unified_hw: packet plane egress bridged toward the proxy side
            _pool, plane = reference_chain(registry, "packet", Mode.POLLING,
                                           chain_len, "audit-handoff")
            adapter = HandoffAdapter(ledger, deliver=lambda payload: None)
            plane.set_sink(adapter)
            plane.start()
            try:
                run_packet_traffic(plane, packets)
            finally:
                plane.stop()
    finally:
        registry.clear()
    return ledger, chain_len
