"""Packet-plane workloads: seeded packets, an egress checker, and the
closed-loop load (a ping phase with one packet in flight, then a flood
phase that keeps a window of packets in flight).
"""

from __future__ import annotations

import contextlib
import random
import struct
import threading
import time
from dataclasses import dataclass

from shmchain.chainspec import build_planes, parse_spec
from shmchain.pool import PoolRegistry

from .rounds import RoundResult

ETH_LEN = 14
IP_LEN = 20
IP_DST_OFF = ETH_LEN + 16
SEQ_OFF = ETH_LEN + IP_LEN + 8  # first UDP payload byte
TEMPLATES = 64
REWRITE_FROM = bytes([10, 0, 0, 5])
REWRITE_TO = bytes([10, 0, 1, 5])
NEXT_HOP_MAC = bytes.fromhex("020000000002")
_SEQ = struct.Struct("!I")
TIMEOUT_S = 20.0  # longest wait for one delivery before the round fails

SPEC = """\
[pool.frames]
prefix = chainbench-pkt
frame_count = 4096
frame_size = 2048

[plane.chain]
kind = packet
pool = frames
mode = {mode}
function.route = l3route:10.0.0.5=10.0.1.5
function.fwd = l2fwd:02:00:00:00:00:02
entry = route
route.route = fwd
route.fwd = EGRESS
"""


def _ipv4_checksum(header: bytes) -> int:
    total = sum(struct.unpack("!10H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _udp_frame(rng: random.Random, size: int, dst_ip: bytes) -> bytearray:
    dst_mac = b"\x06" + rng.randbytes(5)  # never the next-hop MAC
    src_mac = b"\x02" + rng.randbytes(5)
    src_ip = bytes([10, 1, rng.randrange(256), rng.randrange(1, 255)])
    ip_len = size - ETH_LEN
    ip = bytearray(struct.pack("!BBHHHBBH4s4s", 0x45, 0, ip_len,
                               rng.randrange(65536), 0x4000, 64, 17, 0,
                               src_ip, dst_ip))
    struct.pack_into("!H", ip, 10, _ipv4_checksum(bytes(ip)))
    udp = struct.pack("!HHHH", rng.randrange(1024, 65536),
                      rng.randrange(1024, 65536), ip_len - IP_LEN, 0)
    payload = bytes(4) + rng.randbytes(size - SEQ_OFF - 4)
    return bytearray(dst_mac + src_mac + b"\x08\x00" + ip + udp + payload)


class PacketSet:
    """Seeded Ethernet/IPv4/UDP packets of one size.

    Packet ``seq`` is template ``seq % TEMPLATES`` with ``seq`` at SEQ_OFF.
    Even templates go to 10.0.0.5, which the chain rewrites to 10.0.1.5; odd
    ones go to a seeded address that passes through. The expected output is
    worked out here from the chain's definition, not from its output.
    """

    def __init__(self, seed: int, size: int):
        if size < SEQ_OFF + 4:
            raise ValueError(f"packet size {size} leaves no room for a sequence number")
        rng = random.Random(seed)
        self.size = size
        self._sent: list[tuple[bytes, bytes]] = []
        self._want: list[tuple[bytes, bytes]] = []
        for i in range(TEMPLATES):
            dst_ip = (REWRITE_FROM if i % 2 == 0 else
                      bytes([10, 0, rng.randrange(2, 255), rng.randrange(1, 255)]))
            frame = _udp_frame(rng, size, dst_ip)
            want = bytearray(frame)
            want[0:6] = NEXT_HOP_MAC
            if dst_ip == REWRITE_FROM:
                want[IP_DST_OFF:IP_DST_OFF + 4] = REWRITE_TO
            self._sent.append((bytes(frame[:SEQ_OFF]), bytes(frame[SEQ_OFF + 4:])))
            self._want.append((bytes(want[:SEQ_OFF]), bytes(want[SEQ_OFF + 4:])))

    def packet(self, seq: int) -> bytes:
        head, tail = self._sent[seq % TEMPLATES]
        return head + _SEQ.pack(seq) + tail

    def expected(self, seq: int) -> bytes:
        head, tail = self._want[seq % TEMPLATES]
        return head + _SEQ.pack(seq) + tail


class PacketChecker:
    """Egress sink: checks each delivered packet against the expected bytes
    for its sequence number, once per number, and returns a window slot to
    the generator."""

    MAX_ERRORS = 5

    def __init__(self, packets: PacketSet, count: int):
        self.packets = packets
        self.state = bytearray(count)  # 0 not delivered, 1 intact, 2 failed
        self.stray = 0
        self.errors: list[str] = []
        self.slots = threading.Semaphore(0)
        self.last_ns = 0

    def __call__(self, payload, desc=None) -> None:
        self.check(payload)
        self.last_ns = time.perf_counter_ns()
        self.slots.release()

    def check(self, payload) -> None:
        if len(payload) < SEQ_OFF + 4:
            self.stray += 1
            self._note(f"{len(payload)}-byte packet has no sequence number")
            return
        seq = _SEQ.unpack_from(payload, SEQ_OFF)[0]
        if seq >= len(self.state):
            self.stray += 1
            self._note(f"unknown sequence number {seq}")
        elif self.state[seq]:
            self.state[seq] = 2
            self._note(f"sequence number {seq} delivered twice")
        elif payload != self.packets.expected(seq):
            self.state[seq] = 2
            self._note(f"sequence number {seq}: bytes differ from the expected output")
        else:
            self.state[seq] = 1

    def _note(self, message: str) -> None:
        if len(self.errors) < self.MAX_ERRORS:
            self.errors.append(message)

    @property
    def failed(self) -> int:
        """Sequence numbers not delivered exactly once with the right bytes."""
        return len(self.state) - self.state.count(1)

    def missing(self) -> int:
        return self.state.count(0)


class Timeout(Exception):
    pass


@dataclass(frozen=True)
class PacketWorkload:
    mode: str
    size: int
    ping: int = 200
    flood: int = 20_000
    window: int = 512

    @contextlib.contextmanager
    def rounds(self, seed: int):
        packets = PacketSet(seed, self.size)
        yield lambda tracer=None: self.run_round(packets, tracer)

    def run_round(self, packets: PacketSet, tracer=None) -> RoundResult:
        checker = PacketChecker(packets, self.ping + self.flood)
        sink, make = checker, packets.packet
        if tracer is not None:
            sink = tracer.wrap("harness", "sink", checker)
            make = tracer.wrap("harness", "gen", packets.packet)
        result = RoundResult(attempted=self.ping + self.flood)
        registry = PoolRegistry()
        t_start = time.perf_counter_ns()
        pools, planes = build_planes(parse_spec(SPEC.format(mode=self.mode)),
                                     registry=registry)
        pool, plane = pools["frames"], planes["chain"]
        plane.set_sink(sink)
        plane.start()
        try:
            self._ping(plane, checker, make, result)
            if result.first_ns:
                result.setup_s = (result.first_ns - t_start) / 1e9
            if tracer is not None:
                tracer.enabled = True
            try:
                self._flood(plane, checker, make, result)
            finally:
                if tracer is not None:
                    tracer.enabled = False
        except Timeout as exc:
            result.errors.append(str(exc))
        finally:
            plane.stop()
        stats = plane.stats()
        if stats["ingress"] != stats["egress"] or any(stats["drops"].values()):
            result.errors.append(f"plane stats do not balance: {stats}")
        if pool.free_count != pool.config.frame_count:
            result.errors.append(f"{pool.config.frame_count - pool.free_count} "
                                 "frames still allocated after stop")
        registry.clear()
        result.failed = checker.failed
        if checker.stray:
            result.errors.append(f"{checker.stray} packets with no valid sequence number")
        result.errors.extend(checker.errors)
        return result

    def _wait(self, checker: PacketChecker) -> None:
        if not checker.slots.acquire(timeout=TIMEOUT_S):
            raise Timeout(f"no packet left the chain within {TIMEOUT_S} s; "
                          f"{checker.missing()} not delivered")

    def _ping(self, plane, checker, make, result: RoundResult) -> None:
        for seq in range(self.ping):
            packet = make(seq)
            t_sent = time.perf_counter_ns()
            if not plane.ingress(packet):
                continue  # refused: the number stays undelivered and fails
            self._wait(checker)
            result.latencies_ns.append(checker.last_ns - t_sent)
            if not result.first_ns:
                result.first_ns = checker.last_ns

    def _flood(self, plane, checker, make, result: RoundResult) -> None:
        slots = checker.slots
        slots.release(self.window)
        cpu_start = time.process_time()
        t_start = time.perf_counter_ns()
        for seq in range(self.ping, self.ping + self.flood):
            self._wait(checker)
            if not plane.ingress(make(seq)):
                slots.release()
        for _ in range(self.window):
            self._wait(checker)
        cpu = time.process_time() - cpu_start
        result.ops_per_s = self.flood / ((checker.last_ns - t_start) / 1e9)
        result.cpu_us_per_op = cpu / self.flood * 1e6
        result.ops = self.flood
