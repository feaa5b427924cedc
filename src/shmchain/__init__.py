"""Userspace service-function chaining over shared-memory frame pools.

Packets and HTTP messages live once in a frame pool; chains move only
descriptors, over either a polling ring transport or an event-driven wakeup
transport. An audit engine predicts and verifies the per-step overhead of
both styles, and a bench harness measures the resulting rate, latency, and
CPU trade-offs.
"""

from .audit import AuditLedger, CostVector, extrapolate, predict, verify
from .classifier import BifurcationRule, Dispatcher, HandoffAdapter, PlaneTarget, RuleTable
from .descriptors import EGRESS, FlowKey, HttpExchangeMeta, PacketDescriptor
from .events import BatchPolicy, EventEndpoint, SocketMap
from .packet_plane import PacketPlane
from .pool import FrameRef, FramePool, PoolConfig, attach_pool, create_pool, release_pool
from .proxy_plane import BrokerConfig, ProxyPlane
from .rings import DescriptorRing, NicRingSet, RingPair
from .runtime import Mode

__all__ = [
    "AuditLedger", "BatchPolicy", "BifurcationRule", "BrokerConfig",
    "CostVector", "DescriptorRing", "Dispatcher", "EGRESS", "EventEndpoint",
    "FlowKey", "FramePool", "FrameRef", "HandoffAdapter", "HttpExchangeMeta",
    "Mode", "NicRingSet", "PacketDescriptor", "PacketPlane", "PlaneTarget",
    "PoolConfig", "ProxyPlane", "RingPair", "RuleTable", "SocketMap",
    "attach_pool", "create_pool", "extrapolate", "predict", "release_pool",
    "verify",
]

__version__ = "0.1.0"
