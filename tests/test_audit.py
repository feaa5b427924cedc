import time

import pytest

from shmchain.audit import (
    AuditLedger,
    CostVector,
    MODEL_GROUPS,
    extrapolate,
    get_model,
    predict,
    render_model_table,
    verify,
)
from shmchain.errors import IncompleteTrace, UnknownModel

# Golden per-category totals for every model, transcribed from the published
# audit tables, except the beta and delta rows: those follow this
# implementation's direct-send event chain, where a crossing costs only the
# receiver's wakeup (audit.py). Through a router they read 7 interrupts and 6
# context switches each. Keys: copies, interrupts, context_switches,
# protocol_tasks, serde_tasks, l2l3_tasks (absent means zero).
GOLDEN_TOTALS = {
    "a": {"copies": 4, "interrupts": 5, "context_switches": 4},
    "b": {"copies": 4, "interrupts": 5, "context_switches": 4},
    "e": {"copies": 4, "interrupts": 0, "context_switches": 0},
    "f": {"copies": 4, "interrupts": 0, "context_switches": 0},
    "c": {"copies": 8, "interrupts": 9, "context_switches": 8,
          "protocol_tasks": 4, "serde_tasks": 4, "l2l3_tasks": 7},
    "d": {"copies": 4, "interrupts": 9, "context_switches": 4,
          "protocol_tasks": 4, "serde_tasks": 4, "l2l3_tasks": 3},
    "g": {"copies": 8, "interrupts": 8, "context_switches": 4,
          "protocol_tasks": 4, "serde_tasks": 4, "l2l3_tasks": 7},
    "h": {"copies": 8, "interrupts": 12, "context_switches": 8,
          "protocol_tasks": 4, "serde_tasks": 4, "l2l3_tasks": 3},
    "alpha": {"copies": 0, "interrupts": 0, "context_switches": 0},
    "beta": {"copies": 0, "interrupts": 4, "context_switches": 3},
    "gamma": {"copies": 4, "interrupts": 3, "context_switches": 2,
              "protocol_tasks": 2, "serde_tasks": 2},
    "delta": {"copies": 4, "interrupts": 5, "context_switches": 4,
              "protocol_tasks": 2, "serde_tasks": 2},
    "unified_hw": {"copies": 1, "interrupts": 2, "context_switches": 1},
    "unified_sw": {"copies": 2, "interrupts": 2, "context_switches": 2},
}

# Per-step golden values in printed column order (outside-in, outside-out,
# then the four chain steps) for the shared-memory tables. The beta and delta
# rows follow the direct-send chain, as above; through a router they read
# beta (2, 1, 1, 1, 1, 1) and (1, 1, 1, 1, 1, 1), delta (2, 1, 1, 1, 1, 1).
GOLDEN_STEPS = {
    ("beta", "interrupts"): (1, 1, 1, 0, 1, 0),
    ("beta", "context_switches"): (0, 1, 1, 0, 1, 0),
    ("gamma", "copies"): (2, 2, 0, 0, 0, 0),
    ("gamma", "interrupts"): (2, 1, 0, 0, 0, 0),
    ("gamma", "context_switches"): (1, 1, 0, 0, 0, 0),
    ("gamma", "protocol_tasks"): (1, 1, 0, 0, 0, 0),
    ("delta", "interrupts"): (2, 1, 1, 0, 1, 0),
    ("delta", "copies"): (2, 2, 0, 0, 0, 0),
    ("a", "interrupts"): (1, 0, 1, 1, 1, 1),
    ("d", "l2l3_tasks"): (0, 1, 1, 0, 1, 0),
    ("c", "l2l3_tasks"): (0, 1, 2, 1, 2, 1),
    ("h", "interrupts"): (0, 0, 3, 3, 3, 3),
}

_PRINT_ORDER = (0, 5, 1, 2, 3, 4)


def test_golden_totals_every_model():
    start = time.perf_counter()
    for model_id, expected in GOLDEN_TOTALS.items():
        totals = predict(model_id).totals().as_dict()
        for category, value in totals.items():
            assert value == expected.get(category, 0), (model_id, category)
    assert time.perf_counter() - start < 1.0


def test_golden_step_columns():
    for (model_id, category), expected in GOLDEN_STEPS.items():
        model = get_model(model_id)
        got = tuple(model.steps[i].get(category) for i in _PRINT_ORDER)
        assert got == expected, (model_id, category)


def test_model_group_membership():
    assert MODEL_GROUPS["l2l3_legacy"] == ("a", "b", "e", "f")
    assert MODEL_GROUPS["l4l7_legacy"] == ("c", "d", "g", "h")
    assert MODEL_GROUPS["l2l3_shm"] == ("alpha", "beta")
    assert MODEL_GROUPS["l4l7_shm"] == ("gamma", "delta")
    assert MODEL_GROUPS["unified"] == ("unified_hw", "unified_sw")


def test_greek_aliases():
    assert predict("α").model_id == "alpha"
    assert predict("δ").totals().interrupts == 5


def test_unknown_model():
    with pytest.raises(UnknownModel):
        predict("zz")


def test_chain_steps_are_uniform_per_function():
    for group in ("l2l3_legacy", "l4l7_legacy", "l2l3_shm", "l4l7_shm"):
        for model_id in MODEL_GROUPS[group]:
            model = get_model(model_id)
            assert model.steps[1] + model.steps[2] == model.steps[3] + model.steps[4]


def test_extrapolate_matches_predict_at_reference_length():
    for model_id in GOLDEN_TOTALS:
        assert extrapolate(model_id, 2) == predict(model_id).totals(), model_id


def test_extrapolate_protocol_and_serde_constant():
    for n in range(1, 17):
        for model_id in ("gamma", "delta"):
            totals = extrapolate(model_id, n)
            assert totals.protocol_tasks == 2
            assert totals.serde_tasks == 2


def test_extrapolate_copies_increase_for_legacy_model():
    copies = [extrapolate("d", n).copies for n in range(1, 17)]
    assert all(b > a for a, b in zip(copies, copies[1:]))


def test_extrapolate_event_interrupts_scale_with_hops():
    for n in (1, 2, 4, 8):
        assert extrapolate("delta", n).interrupts == 3 + n
        assert extrapolate("beta", n).interrupts == 2 + n


def test_ledger_roundtrip_and_totals():
    ledger = AuditLedger()
    ledger.record(1, 0, "copies", 2)
    ledger.record(1, 1, "interrupts", 1)
    ledger.record_hop(1, 2)
    ledger.complete(1)
    total = ledger.trace_total(1)
    assert total.copies == 2
    assert total.interrupts == 2
    assert total.context_switches == 1


def test_ledger_rejects_bad_input():
    ledger = AuditLedger()
    with pytest.raises(ValueError):
        ledger.record(1, 0, "copies", -1)
    with pytest.raises(KeyError):
        ledger.record(1, 0, "nonsense", 1)


def test_verify_passes_on_clean_traces():
    ledger = AuditLedger()
    for trace in range(50):
        ledger.record_vector(trace, 0, CostVector(copies=2, interrupts=2,
                                                  context_switches=1,
                                                  protocol_tasks=1, serde_tasks=1))
        for step in (1, 2):  # the hops into each of the two functions
            ledger.record_hop(trace, step)
        ledger.record_vector(trace, 5, CostVector(copies=2, interrupts=1,
                                                  context_switches=1,
                                                  protocol_tasks=1, serde_tasks=1))
        ledger.complete(trace)
    report = verify(ledger, "delta")
    assert report.passed, report.render_text()


def test_verify_detects_one_extra_copy():
    ledger = AuditLedger()
    for trace in range(20):
        ledger.complete(trace)
    # a shim sneaks one extra copy into every trace
    for trace in range(20):
        ledger.record(trace, 1, "copies", 1)
    report = verify(ledger, "alpha")
    assert not report.passed
    failing = {c.category: c for c in report.checks}
    assert failing["copies"].delta == 1


def test_verify_demands_complete_traces():
    ledger = AuditLedger()
    ledger.record(1, 0, "copies", 1)
    with pytest.raises(IncompleteTrace):
        verify(ledger, "alpha", trace_ids=[1])
    with pytest.raises(IncompleteTrace):
        verify(ledger, "alpha", trace_ids=[])


def test_verify_uses_mode_not_mean():
    ledger = AuditLedger()
    for trace in range(40):
        ledger.complete(trace)
    # two warmup stragglers carry noise; the mode stays clean
    ledger.record(0, 0, "interrupts", 3)
    ledger.record(1, 0, "interrupts", 5)
    report = verify(ledger, "alpha")
    assert report.passed


def test_verify_flags_stray_categories():
    ledger = AuditLedger()
    for trace in range(10):
        ledger.record(trace, 0, "protocol_tasks", 1)
        ledger.complete(trace)
    report = verify(ledger, "alpha")
    assert not report.passed
    assert "protocol_tasks" in report.stray


def test_render_table_has_all_rows():
    text = render_model_table(["gamma", "delta"])
    assert "protocol_tasks" in text
    assert "gamma" in text and "delta" in text
    handoff = render_model_table(["unified_hw", "unified_sw"])
    assert "unified_hw" in handoff


def test_ledger_csv_dump(tmp_path):
    ledger = AuditLedger()
    ledger.record("t1", 0, "copies", 2)
    ledger.record("t1", 1, "interrupts", 1)
    path = tmp_path / "ledger.csv"
    ledger.dump_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trace_id,step,category,amount"
    assert len(lines) == 3
