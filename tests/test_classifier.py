import pytest

from shmchain.audit import AuditLedger, verify
from shmchain.classifier import (
    BifurcationRule,
    Dispatcher,
    HandoffAdapter,
    PlaneTarget,
    RuleTable,
)
from shmchain.descriptors import FlowKey
from shmchain.errors import DuplicatePriority, PlaneUnavailable


def flow(proto="UDP", src_port=5000, dst_port=5001):
    return FlowKey("10.0.0.1", "10.0.0.5", src_port, dst_port, proto)


def test_udp_rule_matches():
    table = RuleTable()
    table.add_rule(BifurcationRule(10, PlaneTarget.L2L3, protocol="UDP"))
    assert table.classify(flow("UDP")) is PlaneTarget.L2L3


def test_default_is_proxy_plane():
    table = RuleTable()
    assert table.classify(flow("TCP")) is PlaneTarget.L4L7


def test_priority_order_wins():
    table = RuleTable()
    table.add_rule(BifurcationRule(2, PlaneTarget.L4L7, protocol="UDP"))
    table.add_rule(BifurcationRule(1, PlaneTarget.L2L3, protocol="UDP"))
    assert table.classify(flow("UDP")) is PlaneTarget.L2L3


def test_duplicate_priority_rejected():
    table = RuleTable()
    table.add_rule(BifurcationRule(1, PlaneTarget.L2L3))
    with pytest.raises(DuplicatePriority):
        table.add_rule(BifurcationRule(1, PlaneTarget.L4L7))


def test_field_wildcards():
    table = RuleTable()
    table.add_rule(BifurcationRule(1, PlaneTarget.L2L3, dst_port=9999))
    assert table.classify(flow(dst_port=9999)) is PlaneTarget.L2L3
    assert table.classify(flow(dst_port=80)) is PlaneTarget.L4L7


def test_classification_is_deterministic():
    table = RuleTable()
    table.add_rule(BifurcationRule(5, PlaneTarget.L2L3, protocol="UDP"))
    table.add_rule(BifurcationRule(7, PlaneTarget.L4L7, src_port=5000))
    key = flow("UDP")
    results = {table.classify(key) for _ in range(100)}
    assert results == {PlaneTarget.L2L3}


def test_dispatch_requires_running_plane():
    table = RuleTable()
    table.add_rule(BifurcationRule(1, PlaneTarget.L2L3, protocol="UDP"))
    dispatcher = Dispatcher(table, packet_plane=None)
    with pytest.raises(PlaneUnavailable):
        dispatcher.dispatch_packet(b"x" * 64, flow("UDP"))


def test_handoff_adapter_records_bridge_costs():
    ledger = AuditLedger()
    delivered = []
    adapter = HandoffAdapter(ledger, deliver=delivered.append)
    for i in range(25):
        adapter(bytes([i]) * 64, None)
    assert adapter.crossed == 25
    assert len(delivered) == 25
    report = verify(ledger, "unified_hw", trace_ids=adapter.trace_ids)
    assert report.passed, report.render_text()
    total = ledger.trace_total(adapter.trace_ids[0])
    assert (total.copies, total.interrupts, total.context_switches) == (1, 2, 1)


def test_handoff_payload_is_independent_copy():
    adapter = HandoffAdapter(None, deliver=None)
    buf = bytearray(b"abc" + bytes(61))
    out = []
    adapter.deliver = out.append
    adapter(buf, None)
    buf[0] = 0x99
    assert out[0][0] == ord("a")
