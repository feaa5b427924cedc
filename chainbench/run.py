"""Closed-loop benchmark of both chain planes.

    python3 chainbench/run.py --workload l2l3-poll-64 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
The run repeats whole rounds of a fixed number of operations until
``--seconds`` have passed. It prints the ping tail and a summary, then, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` gives the end-to-end metrics. ``--trace 1``
runs untraced rounds for a third of the time, then traced rounds, and
gives the per-layer metrics and the tracing overhead; its spans go to
``chainbench-out/``. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# import the package from this checkout only, never from an installed copy
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

OUT_DIR = ROOT / "chainbench-out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cpu_us_per_op": "us/op",
    "lat_p50_us": "us",
    "rss_mb": "MB",
}


def _workloads():
    from chainbench.broker import BrokerWorkload
    from chainbench.packets import PacketWorkload

    # Windows deep enough that the chain never idles, and below the
    # 1024-frame fill ring that event-mode ingress draws from.
    # l2l3-event-1500 is not in BENCHMARK.json: event-mode ingress sometimes
    # refuses packets when the fill ring is refilled late, so its runs do
    # not fail the same share every time (see README.md).
    return {
        "l2l3-poll-64": PacketWorkload("polling", 64, flood=20_000, window=512),
        "l2l3-event-1500": PacketWorkload("event", 1500, flood=6_000, window=512),
        "l4l7-event-post1k": BrokerWorkload(flood=4_000, depth=4),
    }


def _import_package():
    try:
        import shmchain
    except ImportError as exc:
        raise SystemExit(f"chainbench: cannot import shmchain from {ROOT / 'src'}: {exc}")
    if Path(shmchain.__file__).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"chainbench: shmchain imported from {shmchain.__file__}, "
                         f"not from {ROOT / 'src'}")


def measure(workload, seed: int, seconds: float, trace: bool, spans_path=None) -> dict:
    """Run one workload and return the result object the command prints.
    A traced run writes its spans to ``spans_path`` when one is given."""
    from chainbench import rounds as rnd
    from chainbench import spans

    with workload.rounds(seed) as run_round:
        if not trace:
            rounds = rnd.run_rounds(run_round, seconds)
            values = rnd.end_to_end(rounds)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
            p99_us, samples = rnd.ping_tail(rounds)
            extra = {"ping_p99_us": p99_us, "ping_samples": samples}
        else:
            t_start = time.monotonic()
            untraced = rnd.run_rounds(run_round, seconds / 3)
            tracer = spans.Tracer()
            restore = spans.instrument(tracer)
            try:
                remaining = seconds - (time.monotonic() - t_start)
                traced = (rnd.run_rounds(run_round, remaining, tracer)
                          if all(r.ok for r in untraced) else [])
            finally:
                restore()
            rounds = untraced + traced
            values = {}
            if traced and all(r.ok for r in traced):
                values = spans.layer_metrics(tracer.totals(), sum(r.ops for r in traced))
                traced_rate = statistics.median(r.ops_per_s for r in traced)
                values["trace.ops_per_s"] = traced_rate
                values["trace.overhead_ratio"] = (
                    statistics.median(r.ops_per_s for r in untraced) / traced_rate)
            metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                       for name, unit, _better in spans.PER_LAYER}
            extra = {"rounds_untraced": len(untraced), "rounds_traced": len(traced),
                     "spans": len(tracer.spans)}
            if spans_path is not None:
                tracer.write_spans(spans_path)
    errors = [e for r in rounds for e in r.errors]
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
        "rounds": len(rounds),
        "errors": errors[:10],
        **extra,
    }


def _host_cpu_ticks() -> list[int] | None:
    """The machine-wide CPU tick counters, for the steal share; None where
    /proc/stat is missing."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def main(argv=None) -> int:
    _import_package()
    workloads = _workloads()
    parser = argparse.ArgumentParser(description="closed-loop benchmark of both chain planes")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ticks_before = _host_cpu_ticks()
    result = measure(workloads[args.workload], args.seed, args.seconds, bool(args.trace),
                     OUT_DIR / f"{name}.spans.jsonl")
    ticks_after = _host_cpu_ticks()
    if ticks_before and ticks_after and len(ticks_after) > 7:
        # time the hypervisor ran something else on this machine's vCPUs;
        # a run with a high share measured a busy host, not the program
        delta = [a - b for a, b in zip(ticks_after, ticks_before)]
        result["host_steal_share"] = delta[7] / max(1, sum(delta))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")
    for error in result["errors"]:
        print(f"check failed: {error}")
    if "host_steal_share" in result:
        print(f"host steal {100 * result['host_steal_share']:.2f}% of CPU time during the run")
    if "ping_p99_us" in result:
        print(f"ping p99 {result['ping_p99_us']:.1f} us over {result['ping_samples']} samples")
    for metric, value in result["metrics"].items():
        print(f"{metric:40s} {value['value']:14.4f} {value['unit']}")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
