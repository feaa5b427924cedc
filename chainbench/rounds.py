"""Rounds and their summary.

A run repeats whole rounds until its time is up. Every round of a workload
builds the chain from its spec text, sends the same fixed number of
operations (ping phase, then flood phase), stops the chain and checks it.
End-to-end figures are medians over the rounds, so one slow round moves
them little.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class RoundResult:
    attempted: int
    failed: int = 0
    setup_s: float = 0.0
    first_ns: int = 0
    ops: int = 0  # flood-phase operations behind ops_per_s and cpu_us_per_op
    ops_per_s: float = 0.0
    cpu_us_per_op: float = 0.0
    latencies_ns: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed and not self.errors


def run_rounds(run_round, seconds: float, tracer=None) -> list[RoundResult]:
    """Run whole rounds until ``seconds`` have passed (at least one round).
    Stops after the first round that fails a check."""
    rounds: list[RoundResult] = []
    deadline = time.monotonic() + seconds
    while True:
        result = run_round(tracer)
        # collect the round's planes now, so memory never holds two rounds
        gc.collect()
        rounds.append(result)
        if not result.ok or time.monotonic() >= deadline:
            return rounds


def nearest_rank(sorted_values, fraction: float):
    return sorted_values[min(len(sorted_values) - 1, int(fraction * len(sorted_values)))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(rounds: list[RoundResult]) -> dict[str, float]:
    latencies = sorted(ns for r in rounds for ns in r.latencies_ns)
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "ops_per_s": statistics.median(r.ops_per_s for r in rounds),
        "cpu_us_per_op": statistics.median(r.cpu_us_per_op for r in rounds),
        "lat_p50_us": statistics.median(latencies) / 1e3 if latencies else 0.0,
        "rss_mb": peak_rss_mb(),
    }


def ping_tail(rounds: list[RoundResult]) -> tuple[float, int]:
    """Ping p99 in microseconds and the sample count behind it."""
    latencies = sorted(ns for r in rounds for ns in r.latencies_ns)
    return (nearest_rank(latencies, 0.99) / 1e3 if latencies else 0.0), len(latencies)
