"""The paired-run tool reproduces the summaries recorded from raw runs,
and stopping it stops the run it waits for."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def paired_bench():
    spec = importlib.util.spec_from_file_location(
        "paired_bench", ROOT / "tools" / "paired_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_10():
    return json.loads((ROOT / "BENCH_10.json").read_text())


def test_reproduces_bench_10_set_c_cpu_claim(paired_bench, bench_10):
    pairs = bench_10["sets"]["C"]["paired"]["l4l7-event-post1k"]
    summary = paired_bench.summarize_workload(pairs, paired_bench.load_benchmark())
    cpu = summary["cpu_us_per_op"]
    assert round(cpu["parent_median"], 1) == 203.8
    assert round(cpu["change_median"], 1) == 171.4
    assert cpu["change_wins"] == "10/10"
    # the claim: the change's median lies outside the parent's IQR
    assert cpu["change_median"] < cpu["parent_iqr"][0]
    assert summary["failed_ops"] == {"parent": 0, "change": 0}
    assert summary["all_correct"]


def test_reproduces_every_recorded_bench_10_summary(paired_bench, bench_10):
    summaries = paired_bench.resummarize(bench_10, paired_bench.load_benchmark())
    for set_name, bench_set in bench_10["sets"].items():
        for workload, recorded in bench_set["summary"].items():
            computed = summaries[set_name][workload]
            for metric, want in recorded.items():
                got = computed[metric]
                if not isinstance(want, dict) or "parent_median" not in want:
                    assert got == want, (set_name, workload, metric)
                    continue
                for key in ("parent_median", "change_median", "parent_iqr"):
                    assert got[key] == pytest.approx(want[key]), (set_name, workload,
                                                                  metric, key)
                assert got["change_wins"] == want["change_wins"]
                assert got["change_worse_by"] == pytest.approx(want["change_worse_by"],
                                                               abs=1e-4)


def test_low_steal_keeps_only_calm_pairs(paired_bench):
    def run(value, steal):
        return {"correct": True, "failed": 0, "host_steal_share": steal,
                "metrics": {"cpu_us_per_op": value}}

    pairs = [{"seed": 1, "parent": run(10.0, 0.01), "change": run(8.0, 0.01)},
             {"seed": 2, "parent": run(10.0, 0.30), "change": run(12.0, 0.01)},
             {"seed": 3, "parent": run(12.0, 0.02), "change": run(9.0, 0.03)}]
    benchmark = {"end_to_end": [{"name": "cpu_us_per_op", "better": "lower",
                                 "bound": 0.25}]}
    assert paired_bench.STEAL_MAX == 0.05
    summary = paired_bench.summarize_workload(pairs, benchmark)
    assert summary["cpu_us_per_op"]["change_wins"] == "2/3"
    calm = summary["low_steal"]
    assert calm["pairs"] == "2/3"
    assert calm["cpu_us_per_op"]["change_wins"] == "2/2"
    assert calm["cpu_us_per_op"]["parent_median"] == 11.0


def test_pair_ratio_median_sees_a_gain_that_drift_hides(paired_bench):
    """Both sides drift together across the set: the parent's own spread
    covers the change's median, but every pair shows the change 10% lower,
    and the median per-pair ratio says so, over all pairs and calm ones."""
    def run(value, steal=0.01):
        return {"correct": True, "failed": 0, "host_steal_share": steal,
                "metrics": {"cpu_us_per_op": value}}

    drift = [100.0, 104.0, 108.0, 112.0, 116.0, 120.0, 124.0, 128.0]
    pairs = [{"seed": i + 1, "parent": run(level), "change": run(level * 0.9)}
             for i, level in enumerate(drift)]
    pairs.append({"seed": 9, "parent": run(100.0, steal=0.3),
                  "change": run(150.0)})
    benchmark = {"end_to_end": [{"name": "cpu_us_per_op", "better": "lower",
                                 "bound": 0.25}]}
    summary = paired_bench.summarize_workload(pairs, benchmark)
    cpu = summary["cpu_us_per_op"]
    lo, hi = cpu["parent_iqr"]
    assert lo <= cpu["change_median"] <= hi  # the IQR rule cannot see it
    assert cpu["pair_ratio_median"] == pytest.approx(0.9)
    calm = summary["low_steal"]["cpu_us_per_op"]
    assert summary["low_steal"]["pairs"] == "8/9"
    assert calm["pair_ratio_median"] == pytest.approx(0.9)
    assert calm["change_wins"] == "8/8"
    text = "\n".join(paired_bench.format_summary("w", summary))
    assert "pair ratio 0.9000" in text


def test_pair_ratio_median_skips_a_zero_parent(paired_bench):
    def pair(parent, change):
        return {"parent": {"metrics": {"x": parent}},
                "change": {"metrics": {"x": change}}}

    metric = paired_bench.summarize_metric([pair(0.0, 0.0)], "x", "lower", 0.1)
    assert metric["pair_ratio_median"] is None
    metric = paired_bench.summarize_metric([pair(0.0, 1.0), pair(2.0, 3.0)],
                                           "x", "lower", 0.1)
    assert metric["pair_ratio_median"] == 1.5


def test_self_shares_hold_when_one_traced_side_ran_slower(paired_bench):
    """A traced change run that was slower throughout, as on a busier host,
    reads higher in every layer's self time but not in any layer's share of
    its run's total."""
    parent = {"pool.self_us_per_op": 2.0, "rings.self_us_per_op": 6.0,
              "events.self_us_per_op": 0.0, "pool.alloc.ns": 900.0}
    change = {name: value * 1.2 for name, value in parent.items()}
    shares = paired_bench.self_shares(parent)
    assert shares == {"pool.self_share": 0.25, "rings.self_share": 0.75,
                      "events.self_share": 0.0}
    assert paired_bench.self_shares(change) == pytest.approx(shares)
    assert paired_bench.self_shares({"pool.self_us_per_op": 0.0}) == {}
    entry = {"parent": {"metrics": parent}, "change": {"metrics": change}}
    text = "\n".join(paired_bench.format_trace("w", entry))
    assert "pool            2.000 ( 25.0%) ->    2.400 ( 25.0%)" in text


def _pairs(parent_values, change_values):
    return [{"seed": i + 1,
             "parent": {"correct": True, "failed": 0, "host_steal_share": 0.01,
                        "metrics": {"cpu_us_per_op": p}},
             "change": {"correct": True, "failed": 0, "host_steal_share": 0.01,
                        "metrics": {"cpu_us_per_op": c}}}
            for i, (p, c) in enumerate(zip(parent_values, change_values))]


def test_gain_shown_needs_nine_wins_in_ten_and_a_gap_beyond_the_iqr(paired_bench):
    """Parent runs 10..19 have an IQR of 12.25..16.75, 4.5 wide, around a
    median of 14.5. A change 8 lower in every pair, or in all but one, shows
    its gain. One 8 lower in only 8 pairs does not, nor does one 4 lower in
    every pair, whose gap stays inside the IQR's width."""
    parent = [10.0 + i for i in range(10)]

    def verdict(change, direction="lower", base=parent):
        return paired_bench.summarize_metric(_pairs(base, change), "cpu_us_per_op",
                                             direction, 0.25)

    lower = [p - 8 for p in parent]
    shown = verdict(lower)
    assert shown["parent_iqr"] == [12.25, 16.75]
    assert shown["change_wins"] == "10/10" and shown["gain_shown"]
    nine = verdict([10.0] + lower[1:])  # a tie is not a win
    assert nine["change_wins"] == "9/10" and nine["gain_shown"]
    eight = verdict([10.0, 11.0] + lower[2:])
    assert eight["change_median"] == 8.5  # a gap of 6, beyond the IQR
    assert eight["change_wins"] == "8/10" and not eight["gain_shown"]
    small = verdict([p - 4 for p in parent])
    assert small["change_wins"] == "10/10" and not small["gain_shown"]
    # where higher is better, the same runs read the other way round
    assert verdict(parent, "higher", base=lower)["gain_shown"]


def test_within_bound_compares_change_worse_by_with_the_bound(paired_bench):
    parent = [100.0] * 10
    benchmark = {"end_to_end": [{"name": "cpu_us_per_op", "better": "lower",
                                 "bound": 0.1}]}
    at_bound = paired_bench.summarize_workload(
        _pairs(parent, [110.0] * 10), benchmark)["cpu_us_per_op"]
    assert at_bound["change_worse_by"] == 0.1 and at_bound["within_bound"]
    beyond = paired_bench.summarize_workload(
        _pairs(parent, [110.5] * 10), benchmark)
    assert beyond["cpu_us_per_op"]["change_worse_by"] == 0.105
    assert not beyond["cpu_us_per_op"]["within_bound"]
    assert not beyond["cpu_us_per_op"]["gain_shown"]
    text = "\n".join(paired_bench.format_summary("w", beyond))
    assert "gain shown no  within bound no" in text


# a stand-in for chainbench/run.py: it starts a load process of its own,
# writes its own pid and the load's to run.pid and waits
FAKE_RUN = """
import os, subprocess, sys, time
load = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
with open("run.tmp", "w") as f:
    f.write(f"{os.getpid()} {load.pid}")
os.rename("run.tmp", "run.pid")
time.sleep(60)
"""

# the tool's process: it waits in run_once on the fake run
TOOL = """
import importlib.util, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("paired_bench", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.raise_on_sigterm()
module.run_once(Path(sys.argv[2]), "fake", 1, 1)
"""


def _running(pid: int) -> bool:
    """The process exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_sigterm_stops_the_run_and_its_load_process(tmp_path):
    """SIGTERM to the tool while ``run_once`` waits ends the run and the
    process the run started, not just the tool."""
    side = tmp_path / "side"
    (side / "chainbench").mkdir(parents=True)
    (side / "chainbench" / "run.py").write_text(FAKE_RUN)
    tool = subprocess.Popen([sys.executable, "-c", TOOL,
                             str(ROOT / "tools" / "paired_bench.py"), str(side)])
    pid_file = side / "run.pid"
    pids = []
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists():
            assert time.monotonic() < deadline, "the fake run never started its load"
            assert tool.poll() is None, "the tool ended early"
            time.sleep(0.01)
        pids = [int(pid) for pid in pid_file.read_text().split()]
        grandchild = pids[1]
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=10) == 128 + signal.SIGTERM
        deadline = time.monotonic() + 5
        while _running(grandchild) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(grandchild), "the run's load process outlived the tool"
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait(timeout=10)
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
