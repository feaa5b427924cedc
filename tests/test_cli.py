import json

import pytest

from shmchain.cli import DEFAULT_PACKET_SPEC, main


def test_audit_predict_matches_golden(capsys):
    assert main(["--json", "audit", "predict", "delta"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["totals"] == {"copies": 4, "interrupts": 7,
                             "context_switches": 6, "protocol_tasks": 2,
                             "serde_tasks": 2, "l2l3_tasks": 0}


def test_audit_predict_all_groups(capsys):
    assert main(["audit", "predict", "all"]) == 0
    out = capsys.readouterr().out
    for group in ("l2l3_legacy", "l4l7_legacy", "unified", "l2l3_shm",
                  "l4l7_shm"):
        assert group in out


def test_audit_predict_unknown_model(capsys):
    assert main(["audit", "predict", "nope"]) == 2


def test_validate_spec(tmp_path, capsys):
    spec_file = tmp_path / "chain.spec"
    spec_file.write_text(DEFAULT_PACKET_SPEC)
    assert main(["--spec", str(spec_file), "validate-spec"]) == 0
    assert "1 pools, 1 planes" in capsys.readouterr().out


def test_validate_spec_rejects_bad(tmp_path, capsys):
    spec_file = tmp_path / "bad.spec"
    spec_file.write_text("[plane.x]\nkind = packet\n")
    assert main(["--spec", str(spec_file), "validate-spec"]) == 2


def test_audit_verify_alpha(tmp_path, capsys):
    ledger_csv = tmp_path / "ledger.csv"
    code = main(["audit", "verify", "alpha", "--packets", "100",
                 "--ledger-csv", str(ledger_csv)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "ok" in out
    assert ledger_csv.exists()


def test_audit_verify_static_model_refused(capsys):
    assert main(["audit", "verify", "d"]) == 2


def test_bench_l2l3_short(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "--json", "bench-l2l3",
                 "--rate", "3000", "--duration", "0.6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["offered"] > 0
    assert (tmp_path / "bench_l2l3.json").exists()


def test_bench_l4l7_short(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "--json", "bench-l4l7",
                 "--concurrency", "2", "--duration", "0.6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["delivered"] > 0
    assert report["extras"]["cpu_total_cores"] > 0  # sampled under load
    assert (tmp_path / "l4l7_latency.jsonl").exists()
