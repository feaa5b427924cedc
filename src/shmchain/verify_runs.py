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
from .classifier import HandoffAdapter
from .descriptors import EGRESS
from .errors import ShmChainError
from .events import BatchPolicy
from .handlers import make_l2_forwarder, make_l3_router, make_url_rewriter, make_reverse_proxy
from .packet_plane import PacketPlane
from .pool import PoolConfig, PoolRegistry
from .proxy_plane import BrokerConfig, ProxyPlane
from .runtime import Mode

RUNNABLE_MODELS = ("alpha", "beta", "gamma", "delta", "unified_hw")


def _packet_chain(registry, ledger, mode: Mode, chain_len: int, prefix: str):
    pool = registry.create(PoolConfig(prefix, 4096, 2048))
    plane = PacketPlane(pool, mode, ledger, name=f"verify-{prefix}",
                        ring_capacity=4096, burst=512)
    names = []
    for i in range(chain_len):
        name = f"fn{i}"
        handler = (make_l3_router({"10.0.0.5": "10.0.1.5"}) if i == 0
                   else make_l2_forwarder())
        plane.register_nf(name, handler)
        names.append(name)
    plane.set_entry(names[0])
    for a, b in zip(names, names[1:]):
        plane.set_route(a, b)
    plane.set_route(names[-1], EGRESS)
    return pool, plane


def _proxy_chain(registry, ledger, mode: Mode, chain_len: int, prefix: str,
                 upstreams):
    pool = registry.create(PoolConfig(prefix, 1024, 2048))
    config = BrokerConfig(upstreams=list(upstreams), mode=mode,
                          batch=BatchPolicy(32))
    plane = ProxyPlane(pool, config, ledger, name=f"verify-{prefix}")
    names = []
    for i in range(chain_len):
        name = f"mf{i}"
        handler = (make_reverse_proxy(len(upstreams)) if i == 0
                   else make_url_rewriter({"/old": "/new"}))
        plane.register_mf(name, handler)
        names.append(name)
    plane.set_entry(names[0])
    for a, b in zip(names, names[1:]):
        plane.set_route(a, b)
    plane.set_route(names[-1], EGRESS)
    return pool, plane


def run_packet_traffic(plane: PacketPlane, packets: int,
                       payload_size: int = 64, timeout: float = 30.0) -> int:
    """Offer ``packets`` packets, waiting out backpressure, and block until
    the chain drains. Returns the egress count; raises ``ShmChainError`` when
    the chain has not drained by the deadline."""
    def settled() -> int:
        return plane.egress_count + sum(plane.drops.values())

    # every refused offer is counted as one drop, so the chain has drained
    # once settled() has grown by sent + refused
    target = settled()
    sent = 0
    deadline = time.time() + timeout
    for seq in range(packets):
        pkt = build_packet(payload_size, seq, 3)
        while not plane.ingress(pkt):
            target += 1
            if time.time() > deadline:
                raise ShmChainError(
                    f"packet plane not absorbing traffic: {plane.stats()}")
            time.sleep(0.001)
        sent += 1
    target += sent
    while settled() < target:
        if time.time() > deadline:
            raise ShmChainError(
                f"packet plane did not drain {sent} packets: {plane.stats()}")
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
    ledger = AuditLedger(model.model_id)
    try:
        if model.model_id in ("alpha", "beta"):
            mode = Mode.POLLING if model.model_id == "alpha" else Mode.EVENT
            _pool, plane = _packet_chain(registry, ledger, mode, chain_len,
                                         f"audit-{model.model_id}")
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
                _pool, plane = _proxy_chain(registry, ledger, mode, chain_len,
                                            f"audit-{model.model_id}",
                                            [stub.address])
                plane.start()
                try:
                    run_proxy_traffic(plane, packets)
                finally:
                    plane.close()
            finally:
                stub.stop()
        else:  # unified_hw: packet plane egress bridged toward the proxy side
            _pool, plane = _packet_chain(registry, ledger=None, mode=Mode.POLLING,
                                         chain_len=chain_len,
                                         prefix="audit-handoff")
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
