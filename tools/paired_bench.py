"""Paired before/after runs of the benchmark, summarised per metric.

    python3 tools/paired_bench.py --parent HEAD~1 --pr 12
    python3 tools/paired_bench.py --summarize BENCH_10.json

The first form checks out the parent and the change commits (``--change``,
default ``HEAD``) with ``git archive`` into a temporary directory (under
``$TMPDIR`` if set), so each side runs only its committed files. For each
workload of ``BENCHMARK.json`` it runs ``python3 chainbench/run.py`` for
``run_seconds`` of ``BENCHMARK.json`` once per seed 1..10 on each side,
alternating which side goes first (the parent on odd seeds), and keeps every
run's result, failed runs included. It then writes ``BENCH_<pr>.json`` at
the root of the repo, in the layout of the earlier ``BENCH_*.json`` files:
``command``, ``host``, ``sets`` and ``set_notes``. Each set holds the
``sides`` (the short hashes of its two commits), its raw ``paired`` runs, a
``summary`` and, with ``--trace-seconds``, one traced run per workload and
side under ``trace``. An existing file gains the new set. SIGTERM stops
the run in progress, its load generator included, and removes the
checkouts.

A traced run also gets ``self_share``: each layer's ``*.self_us_per_op`` as
a share of the sum over all layers of that run. The two traced runs are not
paired, so a host that ran slower during one of them raises every layer's
self time on that side, code the change does not touch included; the
shares do not move with it.

Per metric the summary gives each side's median, the parent's
interquartile range, how far the change's median is worse than the
parent's, the share of pairs the change won, and the median over pairs of
the change's value divided by the parent's (``pair_ratio_median``). Both
runs of a pair share the host's state at that time, so the ratio shows a
gain that drift within a set hides from the parent's own spread. It does
so over all pairs and again, under ``low_steal``, over the pairs where both
runs saw less than ``STEAL_MAX`` of the host's CPU time stolen. No run is
ever dropped from the file.

Two verdicts close each metric's summary. ``gain_shown``: the change won
at least ``GAIN_WIN_SHARE`` of the pairs, and its median beats the
parent's by more than the width of the parent's interquartile range.
``within_bound``: ``change_worse_by`` is at most the metric's ``bound``
from ``BENCHMARK.json``.

The second form recomputes and prints the summaries of a ``BENCH_*.json``
file from its raw runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_KEYS = ("correct", "attempted", "failed", "host_steal_share", "errors")
PAIRS = 10  # seeds 1..PAIRS, one pair each
STEAL_MAX = 0.05  # host steal share below which a pair counts as calm
GAIN_WIN_SHARE = 0.9  # share of pairs a claimed gain must win


def load_benchmark(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


# -- summaries -------------------------------------------------------------------


def _better(direction: str, change: float, parent: float) -> bool:
    return change < parent if direction == "lower" else change > parent


def summarize_metric(pairs: list[dict], name: str, direction: str,
                     bound: float) -> dict | None:
    """Medians, parent IQR, relative change, win share, median per-pair
    ratio (change over parent) and the two verdicts of one metric over the
    pairs in which both sides reported it."""
    both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
            for p in pairs
            if name in p["parent"].get("metrics", {})
            and name in p["change"].get("metrics", {})]
    if not both:
        return None
    parent = [p for p, _ in both]
    change = [c for _, c in both]
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    worse = (change_median - parent_median) / parent_median if parent_median else 0.0
    if direction != "lower":
        worse = -worse
    wins = sum(_better(direction, c, p) for p, c in both)
    quartiles = (statistics.quantiles(parent, n=4, method="inclusive")
                 if len(parent) > 1 else [parent[0]] * 3)
    ratios = [c / p for p, c in both if p]
    worse = round(worse, 4)
    gain = change_median - parent_median
    if direction == "lower":
        gain = -gain
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "change_worse_by": worse,
        "bound": bound,
        "change_wins": f"{wins}/{len(both)}",
        "parent_iqr": [quartiles[0], quartiles[2]],
        "pair_ratio_median": statistics.median(ratios) if ratios else None,
        "gain_shown": (wins / len(both) >= GAIN_WIN_SHARE
                       and gain > quartiles[2] - quartiles[0]),
        "within_bound": worse <= bound,
    }


def summarize_pairs(pairs: list[dict], benchmark: dict) -> dict:
    out = {}
    for metric in benchmark["end_to_end"]:
        summary = summarize_metric(pairs, metric["name"], metric["better"],
                                   metric["bound"])
        if summary is not None:
            out[metric["name"]] = summary
    return out


def _steal(run: dict) -> float | None:
    return run.get("host_steal_share")


def summarize_workload(pairs: list[dict], benchmark: dict) -> dict:
    """The summary of one workload's pairs: all pairs, then the pairs in
    which both sides ran below ``STEAL_MAX``."""
    summary = summarize_pairs(pairs, benchmark)
    summary["failed_ops"] = {
        side: sum(p[side].get("failed") or 0 for p in pairs)
        for side in ("parent", "change")}
    summary["all_correct"] = all(p[side].get("correct") for p in pairs
                                 for side in ("parent", "change"))
    calm = [p for p in pairs
            if all((_steal(p[side]) is not None and _steal(p[side]) < STEAL_MAX)
                   for side in ("parent", "change"))]
    summary["low_steal"] = {
        "steal_max": STEAL_MAX,
        "pairs": f"{len(calm)}/{len(pairs)}",
        **summarize_pairs(calm, benchmark),
    }
    return summary


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def format_summary(workload: str, summary: dict) -> list[str]:
    lines = [f"{workload}: failed ops parent {summary['failed_ops']['parent']}, "
             f"change {summary['failed_ops']['change']}, "
             f"all correct {summary['all_correct']}"]
    sections = [("all pairs", summary)]
    low = summary["low_steal"]
    sections.append((f"steal < {low['steal_max']:.0%}, {low['pairs']} pairs", low))
    for title, section in sections:
        lines.append(f"  {title}:")
        for name, m in section.items():
            if not isinstance(m, dict) or "parent_median" not in m:
                continue
            lo, hi = m["parent_iqr"]
            ratio = m["pair_ratio_median"]
            lines.append(
                f"    {name:14s} {m['parent_median']:12.6g} -> {m['change_median']:12.6g}"
                f"  worse by {m['change_worse_by']:+.2%}  wins {m['change_wins']:>5s}"
                f"  parent IQR {lo:.6g}..{hi:.6g}"
                f"  pair ratio {'n/a' if ratio is None else format(ratio, '.4f')}"
                f"  gain shown {_yes(m['gain_shown'])}"
                f"  within bound {_yes(m['within_bound'])}")
    return lines


def self_shares(metrics: dict) -> dict:
    """Each layer's ``<layer>.self_us_per_op`` over their sum in one run,
    keyed ``<layer>.self_share``; empty when the run has no self time."""
    layers = {name[:-len(".self_us_per_op")]: value
              for name, value in metrics.items()
              if name.endswith(".self_us_per_op")}
    total = sum(layers.values())
    if not total:
        return {}
    return {f"{layer}.self_share": value / total for layer, value in layers.items()}


def format_trace(workload: str, entry: dict) -> list[str]:
    """One line per layer: each traced side's self time and its share."""
    shares = {side: self_shares(entry[side].get("metrics", {}))
              for side in ("parent", "change")}
    lines = [f"{workload} traced, self us/op (share of the run's total):"]
    for key in shares["parent"]:
        layer = key[:-len(".self_share")]
        cells = []
        for side in ("parent", "change"):
            if key not in shares[side]:
                cells.append("n/a")
                continue
            self_us = entry[side]["metrics"][f"{layer}.self_us_per_op"]
            cells.append(f"{self_us:8.3f} ({shares[side][key]:6.1%})")
        lines.append(f"  {layer:12s} {cells[0]} -> {cells[1]}")
    return lines


def resummarize(bench: dict, benchmark: dict) -> dict:
    """Summaries of every set of a ``BENCH_*.json`` document, from its raw
    ``paired`` runs: set name -> workload -> summary."""
    return {name: {workload: summarize_workload(pairs, benchmark)
                   for workload, pairs in bench_set["paired"].items()}
            for name, bench_set in bench["sets"].items()}


# -- running -----------------------------------------------------------------------


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(rev: str, dest: Path) -> str:
    """Extract the committed files of ``rev`` into ``dest``; returns its
    short hash. ``git archive`` leaves nothing behind in the repository."""
    short = _git("rev-parse", "--short", rev)
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=BytesIO(tar)) as archive:
        archive.extractall(dest)
    return short


def raise_on_sigterm() -> None:
    """Make SIGTERM raise ``SystemExit`` in the main thread, so that
    ``run_once`` stops its run and the temporary checkouts are removed."""
    def stop(signum, _frame):
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)


def run_once(side_dir: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One ``chainbench/run.py`` run in ``side_dir``; its result with the
    metrics flattened to values. A run that wrote no result is kept as a
    failed one with its exit code and the tail of its output. The run gets
    a session of its own; if anything interrupts the wait for it, the whole
    session, the run's load generator included, is killed."""
    cmd = [sys.executable, "chainbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    with subprocess.Popen(cmd, cwd=side_dir, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # the whole session has ended
                pass
            raise
    out_file = side_dir / "chainbench-out" / f"{workload}-seed{seed}-trace{trace}.json"
    if not out_file.exists():
        return {"correct": False, "failed": None, "exit_code": proc.returncode,
                "errors": (stdout + stderr).splitlines()[-10:], "metrics": {}}
    result = json.loads(out_file.read_text())
    out_file.unlink()  # a later run with the same name must not read this one
    run = {key: result[key] for key in RUN_KEYS if key in result}
    run["exit_code"] = proc.returncode
    run["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    for key in ("ping_p99_us", "ping_samples"):
        if key in result:
            run[key] = result[key]
    return run


def _brief(run: dict) -> str:
    steal = _steal(run)
    steal_text = "?" if steal is None else f"{steal:.1%}"
    metrics = run.get("metrics", {})
    shown = " ".join(f"{k}={metrics[k]:.4g}" for k in
                     ("ops_per_s", "cpu_us_per_op", "lat_p50_us") if k in metrics)
    return f"correct={run.get('correct')} failed={run.get('failed')} steal={steal_text} {shown}"


def run_set(dirs: dict[str, Path], workloads: list[str], seeds: list[int],
            seconds: float) -> dict:
    paired = {}
    for workload in workloads:
        pairs = paired[workload] = []
        for seed in seeds:
            first = "parent" if seed % 2 else "change"
            order = (first, "change" if first == "parent" else "parent")
            pair = {"seed": seed, "first": first}
            for side in order:
                pair[side] = run_once(dirs[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side:6s} {_brief(pair[side])}", flush=True)
            pairs.append(pair)
    return paired


def run_traces(dirs: dict[str, Path], workloads: list[str], seconds: float) -> dict:
    traces = {}
    for workload in workloads:
        entry = traces[workload] = {
            "command": (f"python3 chainbench/run.py --workload {workload} --seed 1 "
                        f"--seconds {seconds:g} --trace 1")}
        for side in ("parent", "change"):
            run = entry[side] = run_once(dirs[side], workload, 1, seconds, trace=1)
            run["self_share"] = self_shares(run["metrics"])
            print(f"{workload} trace {side:6s} {_brief(run)}", flush=True)
    return traces


def _host() -> str:
    cpus = len(os.sched_getaffinity(0))
    return (f"{cpus} vCPU, Python {platform.python_version()}, no CPU pin from "
            "outside (each plane places itself and the thread that starts it "
            "on one CPU); pairs alternate order (parent first on odd seeds); "
            "host_steal_share is steal over all CPU time in /proc/stat during "
            "the run")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--summarize", type=Path,
                        help="recompute and print the summaries of a BENCH_*.json file")
    parser.add_argument("--parent", default="HEAD~1", help="parent revision")
    parser.add_argument("--change", default="HEAD", help="changed revision")
    parser.add_argument("--pr", type=int, help="writes BENCH_<pr>.json at the repo root")
    parser.add_argument("--set", default="A", dest="set_name", help="name of this set")
    parser.add_argument("--note", default="", help="set note to record")
    parser.add_argument("--workloads", nargs="+",
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--trace-seconds", type=float, default=0,
                        help="seconds of one traced run per workload and side; 0 for none")
    args = parser.parse_args(argv)
    raise_on_sigterm()
    benchmark = load_benchmark()

    if args.summarize is not None:
        bench = json.loads(args.summarize.read_text())
        for set_name, summaries in resummarize(bench, benchmark).items():
            print(f"set {set_name}")
            for workload, summary in summaries.items():
                print("\n".join(format_summary(workload, summary)))
            for workload, entry in bench["sets"][set_name].get("trace", {}).items():
                print("\n".join(format_trace(workload, entry)))
        return 0

    if args.pr is None:
        parser.error("--pr is required to run pairs")
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    seeds = list(range(1, PAIRS + 1))
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        dirs = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        sides = {side: checkout(rev, dirs[side])
                 for side, rev in (("parent", args.parent), ("change", args.change))}
        paired = run_set(dirs, workloads, seeds, seconds)
        traces = run_traces(dirs, workloads, args.trace_seconds) if args.trace_seconds else {}
    summary = {w: summarize_workload(pairs, benchmark) for w, pairs in paired.items()}

    out_path = ROOT / f"BENCH_{args.pr}.json"
    bench = json.loads(out_path.read_text()) if out_path.exists() else {}
    bench.setdefault("command", "python3 chainbench/run.py --workload <w> "
                                f"--seed <seed> --seconds {seconds:g}")
    bench.setdefault("host", _host())
    bench_set = {"sides": sides, "paired": paired, "summary": summary}
    if traces:
        bench_set["trace"] = traces
    bench.setdefault("sets", {})[args.set_name] = bench_set
    bench.setdefault("set_notes", {})[args.set_name] = (
        args.note or f"{', then '.join(workloads)}; seeds 1-{PAIRS}; "
        f"parent {sides['parent']}, change {sides['change']}")
    out_path.write_text(json.dumps(bench, indent=1) + "\n")

    for workload, s in summary.items():
        print("\n".join(format_summary(workload, s)))
    for workload, entry in traces.items():
        print("\n".join(format_trace(workload, entry)))
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
