"""Broker workload: the HTTP broker plane in event mode, driven by the load
generator and backends of ``httpgen.py`` in a child process.

The measured process holds only the broker, so its CPU time and memory are
the broker's own. Each round builds a fresh broker from the spec text, lets
the generator run its ping and flood phases against it, stops it and checks
its counters.
"""

from __future__ import annotations

import contextlib
import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from shmchain.chainspec import build_planes, parse_spec
from shmchain.pool import PoolRegistry

from .rounds import RoundResult

HTTPGEN = Path(__file__).resolve().parent / "httpgen.py"
TIMEOUT_S = 60.0  # longest silence from the generator before the run fails

SPEC = """\
[pool.bodies]
prefix = chainbench-http
frame_count = 64
frame_size = 8192

[plane.broker]
kind = proxy
pool = bodies
mode = event
listen = 127.0.0.1:0
upstreams = 127.0.0.1:{port0}, 127.0.0.1:{port1}
function.balance = revproxy
function.rewrite = urlrewrite:/old=/new
entry = balance
route.balance = rewrite
route.rewrite = EGRESS
"""


class GeneratorError(Exception):
    pass


class Generator:
    """The child process: JSON lines in on stdin, out on stdout."""

    def __init__(self, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HTTPGEN), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._buf = b""
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            self.backends = self.recv()["backends"]
        except BaseException:
            self.close()
            raise

    def send(self, message: dict) -> None:
        self.proc.stdin.write(json.dumps(message).encode() + b"\n")
        self.proc.stdin.flush()

    def recv(self) -> dict:
        deadline = time.monotonic() + TIMEOUT_S
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._sel.select(remaining):
                raise GeneratorError(f"load generator silent for {TIMEOUT_S} s")
            chunk = os.read(self.proc.stdout.fileno(), 1 << 20)
            if not chunk:
                raise GeneratorError(f"load generator exited ({self.proc.poll()})")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.send({"cmd": "quit"})
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._sel.close()
        self.proc.stdout.close()


@dataclass(frozen=True)
class BrokerWorkload:
    ping: int = 200
    flood: int = 4000
    depth: int = 4  # pipelined requests per connection in the flood phase

    @contextlib.contextmanager
    def rounds(self, seed: int):
        gen = Generator(seed)
        try:
            yield lambda tracer=None: self.run_round(gen, tracer)
        finally:
            gen.close()

    def run_round(self, gen: Generator, tracer=None) -> RoundResult:
        text = SPEC.format(port0=gen.backends[0], port1=gen.backends[1])
        registry = PoolRegistry()
        t_start = time.monotonic_ns()
        pools, planes = build_planes(parse_spec(text), registry=registry)
        pool, plane = pools["bodies"], planes["broker"]
        plane.start()
        try:
            gen.send({"cmd": "round", "broker": list(plane.listen_address),
                      "ping": self.ping, "flood": self.flood, "depth": self.depth,
                      "timed": tracer is not None})
            gen.recv()  # ping phase over
            if tracer is not None:
                tracer.enabled = True
            cpu_start = time.process_time()
            done = gen.recv()
            cpu = time.process_time() - cpu_start
            if tracer is not None:
                tracer.enabled = False
        finally:
            plane.close()
        result = RoundResult(attempted=done["attempted"], failed=done["failed"],
                             errors=list(done["errors"]),
                             latencies_ns=done["latencies_ns"])
        if done["first_ns"]:
            result.setup_s = (done["first_ns"] - t_start) / 1e9
        if done["flood_ns"]:
            result.ops = done["flood_ops"]
            result.ops_per_s = result.ops / (done["flood_ns"] / 1e9)
            result.cpu_us_per_op = cpu / result.ops * 1e6
        counts = done["backend_counts"]
        if max(counts) - min(counts) > 1:
            result.errors.append(f"backends served {counts} requests: not round robin")
        stats = plane.stats()
        if (stats["ingest"] != stats["egress"] or any(stats["drops"].values())
                or stats["upstream_errors"] or stats["parse_errors"]):
            result.errors.append(f"broker stats do not balance: {stats}")
        if pool.free_count != pool.config.frame_count:
            result.errors.append(f"{pool.config.frame_count - pool.free_count} "
                                 "frames still allocated after stop")
        registry.clear()
        if tracer is not None:
            tracer.record("harness.gen", *done["gen"])
            tracer.record("harness.sink", *done["sink"])
        return result
