"""Fixed and per-packet cost of the polling step, printed as one JSON object.

    python3 tools/step_cost.py

Builds chainbench's ``l2l3-poll-64`` chain (``l3route -> l2fwd``, polling,
64 B UDP packets) from this checkout's ``src/``, with the plane's default
null sink, starts it, and halts its worker thread with the tests'
``halt_stages`` so that this process steps the chain by hand. The plane has
no public start without threads, so the halt sets the plane's stop event
and joins its threads. ``start`` has already confined the calling thread to
one CPU, as it does for any caller. The script then times, with
``time.perf_counter_ns`` around each call and a median over ``STEPS`` calls
(an eighth as many for the full bursts):

- ``step_one_us``: one ``route_step`` carrying one packet through both
  functions and out;
- ``step_per_packet_64_us``: one ``route_step`` carrying a full burst of 64,
  divided by 64;
- ``step_empty_us``: one ``route_step`` that finds nothing;
- ``ingress_one_us``: one polling ``ingress`` into an empty RX ring.

One invocation is one run; run it several times, alternating with another
checkout, to see the spread. ``step_one_calls`` and ``ingress_one_calls``
count Python calls with the tests' ``python_calls``, and
``step_one_opcodes`` and ``ingress_one_opcodes`` count ``sys.settrace``
opcode events of one one-packet step and one ingress, each with a
``*_by_function`` table of where they ran.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

from chainbench.packets import SPEC, PacketSet  # noqa: E402
from shmchain.chainspec import build_planes, parse_spec  # noqa: E402
from shmchain.pool import PoolRegistry  # noqa: E402
from shmchain.runtime import BURST  # noqa: E402
from steplib import halt_stages, python_calls  # noqa: E402

SIZE = 64
SEED = 1
STEPS = 20_000


def halted_plane(registry: PoolRegistry):
    """The started chainbench polling plane with its worker joined: the
    plane stays running, and nothing but the caller steps it."""
    _pools, planes = build_planes(parse_spec(SPEC.format(mode="polling")),
                                  registry=registry)
    plane = planes["chain"]
    plane.start()
    halt_stages(plane)
    return plane


def median_ns(timed, steps: int) -> float:
    """Median of ``steps`` results of ``timed()``, each a span in ns."""
    return statistics.median(timed() for _ in range(steps))


def measure(plane, packets: list[bytes], steps: int) -> dict[str, float]:
    clock = time.perf_counter_ns
    ingress, step = plane.ingress, plane.route_step
    one = packets[0]

    def step_one():
        ingress(one)
        t0 = clock()
        step()
        return clock() - t0

    def step_burst():
        for packet in packets:
            ingress(packet)
        t0 = clock()
        step()
        return clock() - t0

    def step_empty():
        t0 = clock()
        step()
        return clock() - t0

    def ingress_one():
        t0 = clock()
        ingress(one)
        t1 = clock()
        step()
        return t1 - t0

    return {
        "step_one_us": median_ns(step_one, steps) / 1e3,
        "step_per_packet_64_us": median_ns(step_burst, steps // 8) / BURST / 1e3,
        "step_empty_us": median_ns(step_empty, steps) / 1e3,
        "ingress_one_us": median_ns(ingress_one, steps) / 1e3,
    }


def count_opcodes(run) -> Counter:
    """Opcode events of ``run()`` and every Python call under it, per
    ``file:function``."""
    counts: Counter = Counter()

    def trace(frame, event, _arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            code = frame.f_code
            counts[f"{Path(code.co_filename).name}:{code.co_name}"] += 1
        return trace

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return counts


def main() -> int:
    packet_set = PacketSet(SEED, SIZE)
    packets = [packet_set.packet(seq) for seq in range(BURST)]
    registry = PoolRegistry()
    plane = halted_plane(registry)
    try:
        result = {name: round(value, 3)
                  for name, value in measure(plane, packets, STEPS).items()}
        plane.ingress(packets[0])
        step_calls = python_calls(plane.route_step)
        ingress_calls = python_calls(functools.partial(plane.ingress, packets[0]))
        opcodes = count_opcodes(plane.route_step)
        ingress_opcodes = count_opcodes(functools.partial(plane.ingress, packets[0]))
        plane.route_step()
    finally:
        plane.stop()
        registry.clear()
    result["step_one_calls"] = step_calls
    result["ingress_one_calls"] = ingress_calls
    result["step_one_opcodes"] = sum(opcodes.values())
    result["step_one_opcodes_by_function"] = dict(opcodes.most_common())
    result["ingress_one_opcodes"] = sum(ingress_opcodes.values())
    result["ingress_one_opcodes_by_function"] = dict(ingress_opcodes.most_common())
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
