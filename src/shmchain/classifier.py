"""Flow bifurcation: 5-tuple rules dispatch each flow to the packet plane or
the proxy plane, plus the audited plane-to-plane handoff adapter."""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from enum import Enum

from .audit import AuditLedger, CostVector
from .descriptors import FlowKey
from .errors import DuplicatePriority, PlaneUnavailable


class PlaneTarget(str, Enum):
    L2L3 = "l2l3"
    L4L7 = "l4l7"


@dataclass(frozen=True)
class BifurcationRule:
    """Wildcard match over the 5-tuple; None fields match anything. Lower
    priority numbers win."""

    priority: int
    target: PlaneTarget
    src_ip: str | None = None
    dst_ip: str | None = None
    src_port: int | None = None
    dst_port: int | None = None
    protocol: str | None = None

    def matches(self, key: FlowKey) -> bool:
        return ((self.src_ip is None or self.src_ip == key.src_ip)
                and (self.dst_ip is None or self.dst_ip == key.dst_ip)
                and (self.src_port is None or self.src_port == key.src_port)
                and (self.dst_port is None or self.dst_port == key.dst_port)
                and (self.protocol is None or self.protocol == key.protocol))


class RuleTable:
    """Priority-ordered rule set; unmatched flows default to the proxy plane
    (connection-oriented safety)."""

    DEFAULT = PlaneTarget.L4L7

    def __init__(self):
        self._rules: list[BifurcationRule] = []
        self._lock = threading.Lock()

    def add_rule(self, rule: BifurcationRule) -> None:
        with self._lock:
            if any(r.priority == rule.priority for r in self._rules):
                raise DuplicatePriority(str(rule.priority))
            rules = self._rules + [rule]
            rules.sort(key=lambda r: r.priority)
            self._rules = rules

    def classify(self, key: FlowKey) -> PlaneTarget:
        for rule in self._rules:
            if rule.matches(key):
                return rule.target
        return self.DEFAULT


class Dispatcher:
    """Routes classified traffic into the loaded planes.

    Packet payloads go straight into the packet plane's ingress; flows bound
    for the proxy plane resolve to its listening address, where the host
    transport stack carries the connection. Hairpin labels on each plane's
    sink return traffic toward its originating side, so the two loads never
    cross paths.
    """

    def __init__(self, rules: RuleTable, packet_plane=None, proxy_plane=None):
        self.rules = rules
        self.packet_plane = packet_plane
        self.proxy_plane = proxy_plane
        self.counts = {PlaneTarget.L2L3: 0, PlaneTarget.L4L7: 0}

    def dispatch_packet(self, payload: bytes, flow: FlowKey) -> bool:
        target = self.rules.classify(flow)
        self.counts[target] += 1
        if target is PlaneTarget.L2L3:
            if self.packet_plane is None or not self.packet_plane.running:
                raise PlaneUnavailable("packet plane not running")
            return self.packet_plane.ingress(payload, flow)
        if self.proxy_plane is None or not self.proxy_plane.running:
            raise PlaneUnavailable("proxy plane not running")
        # connection-oriented traffic enters through the broker's listener
        raise PlaneUnavailable(
            "flow classified to the proxy plane; connect to "
            f"{self.proxy_plane.listen_address} instead")


HANDOFF_COST = CostVector(copies=1, interrupts=2, context_switches=1)


class HandoffAdapter:
    """Packet-plane egress sink that bridges into the proxy side the way a
    NIC-internal switch would: the frame leaves the packet plane by DMA, and
    the cost sits in lifting it through the host stack to the broker.

    Records one copy, two interrupts, and one context switch per packet on
    its own trace namespace, then hands the payload bytes to ``deliver``.
    The two-interrupt figure bundles the NIC-side and broker-side wakeups;
    the split between them is a convention of this adapter.
    """

    def __init__(self, ledger: AuditLedger | None = None, deliver=None):
        self.ledger = ledger
        self.deliver = deliver
        self._seq = itertools.count()
        self.crossed = 0
        self.trace_ids: list[str] = []

    def __call__(self, payload: bytes, desc) -> None:
        trace_id = f"handoff-{next(self._seq)}"
        lifted = bytes(payload)  # the one audited copy: kernel to broker
        if self.ledger is not None:
            self.ledger.record_vector(trace_id, 0, HANDOFF_COST)
            self.ledger.complete(trace_id, "egress")
        self.trace_ids.append(trace_id)
        self.crossed += 1
        if self.deliver is not None:
            self.deliver(lifted)
