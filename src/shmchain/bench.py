"""Workload generation and measurement.

Packet loads are sequence-numbered and timestamped inside the payload so
loss accounting is exact (offered = delivered + dropped, reconciled by
sequence) and latency needs no side channel. HTTP loads run keep-alive
client workers against the broker. CPU usage comes from per-thread
accounting in /proc, sampled as time deltas.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
import zlib
from dataclasses import dataclass, field

from ._util import percentile
from .descriptors import FlowKey
from .errors import (
    InvalidConfig,
    InvalidTolerance,
    NeverLossFree,
    PlaneUnavailable,
    UnsupportedPlatform,
)
from .http11 import read_response, serialize_request, simple_response

PACKET_SIZES = (64, 128, 256, 512, 1024, 1500)

# synthetic packet layout (Ethernet + IPv4 framing, then measurement fields)
ETH_LEN = 14
IP_LEN = 20
SEQ_OFF = 34
TS_OFF = 42
CRC_OFF = 50
BODY_OFF = 54
MIN_PACKET = 64

DST_IP = "10.0.0.5"  # every synthetic packet's destination address
PKTGEN_SEED = 1  # body seed of pktgen_run's packets
TEMPLATE_VARIANTS = 64  # distinct bodies a PacketFactory cycles through
HTTP_TIMEOUT_S = 5.0  # a load client's connect and read timeout


@dataclass(frozen=True)
class PktgenConfig:
    packet_size: int = 64
    offered_rate: float = 10_000.0
    duration: float = 1.0

    def validate(self) -> None:
        if self.packet_size not in PACKET_SIZES:
            raise InvalidConfig(f"packet_size must be one of {PACKET_SIZES}")
        if self.offered_rate <= 0:
            raise InvalidConfig("offered_rate must be positive")
        if self.duration <= 0:
            raise InvalidConfig("duration must be positive")


@dataclass(frozen=True)
class HttpLoadConfig:
    concurrency: int = 1
    duration: float = 1.0

    def validate(self) -> None:
        if not 1 <= self.concurrency <= 512:
            raise InvalidConfig("concurrency must be in [1, 512]")
        if self.duration <= 0:
            raise InvalidConfig("duration must be positive")


@dataclass
class LatencyStats:
    median_us: float
    p95_us: float
    p99_us: float
    samples: int

    @classmethod
    def from_ns(cls, samples_ns) -> "LatencyStats | None":
        if not samples_ns:
            return None
        ordered = sorted(s / 1000.0 for s in samples_ns)
        return cls(percentile(ordered, 0.5), percentile(ordered, 0.95),
                   percentile(ordered, 0.99), len(ordered))

    def as_dict(self) -> dict:
        return {"median_us": self.median_us, "p95_us": self.p95_us,
                "p99_us": self.p99_us, "samples": self.samples}


@dataclass
class BenchReport:
    offered: int
    delivered: int
    dropped: int
    duration: float
    latency: LatencyStats | None = None
    cpu: dict | None = None
    extras: dict = field(default_factory=dict)
    flagged: list = field(default_factory=list)

    @property
    def loss_fraction(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.dropped / self.offered

    @property
    def delivered_rate(self) -> float:
        return self.delivered / self.duration if self.duration else 0.0

    def as_dict(self) -> dict:
        return {
            "offered": self.offered,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "loss_fraction": self.loss_fraction,
            "duration": self.duration,
            "delivered_rate": self.delivered_rate,
            "latency": self.latency.as_dict() if self.latency else None,
            "cpu": self.cpu,
            "extras": self.extras,
            "flagged": self.flagged,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2)


# ---------------------------------------------------------------------------
# Synthetic packets
# ---------------------------------------------------------------------------

def build_packet(size: int, seq: int, seed: int, ts: int | None = None) -> bytes:
    """Ethernet+IPv4 shaped packet with sequence, timestamp, and body CRC.

    Passing ``ts`` pins the timestamp field, making the packet a pure
    function of its arguments.
    """
    if size < MIN_PACKET:
        raise InvalidConfig(f"packet size below minimum {MIN_PACKET}")
    body_len = size - BODY_OFF
    rng = zlib.crc32(seq.to_bytes(8, "big") + seed.to_bytes(8, "big"))
    body = bytes((rng + i * 131) % 256 for i in range(body_len))
    pkt = bytearray(size)
    pkt[0:6] = b"\x02\x00\x00\x00\x00\x01"          # dst MAC
    pkt[6:12] = b"\x02\x00\x00\x00\x00\x00"         # src MAC
    pkt[12:14] = b"\x08\x00"                        # IPv4 ethertype
    pkt[14] = 0x45
    pkt[26:30] = bytes(int(p) for p in "10.0.0.1".split("."))
    pkt[30:34] = bytes(int(p) for p in DST_IP.split("."))
    pkt[SEQ_OFF:SEQ_OFF + 8] = seq.to_bytes(8, "big")
    if ts is None:
        ts = time.monotonic_ns()
    pkt[TS_OFF:TS_OFF + 8] = ts.to_bytes(8, "big")
    pkt[CRC_OFF:CRC_OFF + 4] = zlib.crc32(body).to_bytes(4, "big")
    pkt[BODY_OFF:] = body
    return bytes(pkt)


def packet_seq(payload: bytes) -> int:
    return int.from_bytes(payload[SEQ_OFF:SEQ_OFF + 8], "big")


def packet_ts(payload: bytes) -> int:
    return int.from_bytes(payload[TS_OFF:TS_OFF + 8], "big")


def packet_body_ok(payload: bytes) -> bool:
    want = int.from_bytes(payload[CRC_OFF:CRC_OFF + 4], "big")
    return zlib.crc32(payload[BODY_OFF:]) == want


class PacketFactory:
    """Cheap per-packet construction off a small template cycle.

    Bodies (and their checksums) come from prebuilt templates; sequence and
    timestamp fields are patched per packet. Keeps the generator light enough
    to drive rates the planes can actually saturate on.
    """

    def __init__(self, size: int, seed: int):
        self._templates = [build_packet(size, v, seed, ts=0)
                           for v in range(TEMPLATE_VARIANTS)]

    def make(self, seq: int) -> bytes:
        pkt = bytearray(self._templates[seq % TEMPLATE_VARIANTS])
        pkt[SEQ_OFF:SEQ_OFF + 8] = seq.to_bytes(8, "big")
        pkt[TS_OFF:TS_OFF + 8] = time.monotonic_ns().to_bytes(8, "big")
        return bytes(pkt)


class CollectorSink:
    """Egress sink that reconciles sequence numbers and checks body CRCs."""

    def __init__(self):
        from array import array

        self.lock = threading.Lock()
        self.received = 0
        self.corrupt = 0
        self.latencies_ns = array("q")
        self.seqs: set[int] = set()
        self.arrival_ns = array("q")

    def __call__(self, payload: bytes, desc) -> None:
        now = time.monotonic_ns()
        seq = packet_seq(payload)
        ok = packet_body_ok(payload)
        with self.lock:
            self.received += 1
            self.seqs.add(seq)
            self.arrival_ns.append(now)
            self.latencies_ns.append(now - packet_ts(payload))
            if not ok:
                self.corrupt += 1


_run_seq_base = itertools.count(1)

PACE_TICK_S = 0.002  # a paced offer loop wakes once per tick


def _paced(rate: float, duration: float):
    """Pace an offer loop at ``rate`` items per second for ``duration``
    seconds: once per tick, yield the seconds elapsed and how many items
    to offer now.

    Offering a tick's items in one run amortizes interpreter-lock handoffs
    across the pipeline stages. A late tick catches up at most one missed
    tick and skips the rest of the gap, so after a host stall the loop
    resumes at the target rate instead of bursting the backlog."""
    cap = 1 + 2 * PACE_TICK_S * rate
    credit = 1.0
    start = last = time.perf_counter()
    while (now := time.perf_counter()) < start + duration:
        credit = min(cap, credit + (now - last) * rate)
        last = now
        due = int(credit)
        credit -= due
        yield now - start, due
        time.sleep(PACE_TICK_S)


def pktgen_run(config: PktgenConfig, target, *, flow: FlowKey | None = None,
               collector: CollectorSink | None = None,
               settle: float = 0.5) -> BenchReport:
    """Offer paced traffic to ``target.ingress`` and reconcile the outcome.

    ``target`` is a packet plane or anything with the same ingress surface.
    When a collector is given, delivered/latency come from it; otherwise the
    ingress return value is the delivery signal (for sink targets). Each run
    numbers its packets in a private sequence window, so stragglers from an
    earlier run on the same plane can never be mistaken for deliveries.
    """
    config.validate()
    if not getattr(target, "running", True):
        raise PlaneUnavailable("target not running")
    if flow is None:
        flow = FlowKey("10.0.0.1", DST_IP, 5000, 5001, "UDP")
    factory = PacketFactory(config.packet_size, PKTGEN_SEED)
    seq_base = next(_run_seq_base) << 32
    offered = 0
    accepted = 0
    start = time.perf_counter()
    for _elapsed, due in _paced(config.offered_rate, config.duration):
        for _ in range(due):
            if target.ingress(factory.make(seq_base + offered), flow):
                accepted += 1
            offered += 1
    duration = time.perf_counter() - start

    def in_window():
        lo, hi = seq_base, seq_base + offered
        return sum(1 for s in collector.seqs if lo <= s < hi)

    if collector is not None:
        # allow in-flight packets to drain
        settle_deadline = time.time() + settle
        while time.time() < settle_deadline:
            with collector.lock:
                if in_window() >= accepted:
                    break
            time.sleep(0.01)
        with collector.lock:
            delivered = in_window()
            latency = LatencyStats.from_ns(collector.latencies_ns)
            corrupt = collector.corrupt
        report = BenchReport(offered, delivered, offered - delivered, duration,
                             latency=latency)
        report.extras["corrupt"] = corrupt
        return report
    return BenchReport(offered, accepted, offered - accepted, duration)


def mlfr_search(make_run, packet_size: int, tolerance: float, *,
                rate_floor: float = 200.0, rate_ceiling: float = 200_000.0,
                probe_duration: float = 0.5,
                confirm_duration: float | None = None) -> float:
    """Binary search for the highest offered rate with zero loss.

    ``make_run(rate, duration) -> BenchReport`` runs one probe. The bracket
    [floor, ceiling] narrows until within ``tolerance`` relative width; the
    returned rate is re-confirmed over ``confirm_duration``.
    """
    if not 0 < tolerance < 0.5:
        raise InvalidTolerance(str(tolerance))
    if packet_size not in PACKET_SIZES:
        raise InvalidConfig(f"packet_size must be one of {PACKET_SIZES}")

    best_effective = 0.0

    def loss_free(rate, duration) -> bool:
        nonlocal best_effective
        report = make_run(rate, duration)
        ok = report.dropped == 0
        if ok and report.duration > 0:
            # the generator may self-limit below the nominal rate; the
            # loss-free rate actually demonstrated is what was offered
            best_effective = max(best_effective,
                                 min(rate, report.offered / report.duration))
        return ok

    if not loss_free(rate_floor, probe_duration):
        raise NeverLossFree(f"loss at floor rate {rate_floor}")
    lo, hi = rate_floor, rate_ceiling
    if loss_free(hi, probe_duration):
        lo = hi
    else:
        while (hi - lo) > tolerance * hi:
            mid = (lo + hi) / 2
            if loss_free(mid, probe_duration):
                lo = mid
            else:
                hi = mid
    if confirm_duration:
        while lo > rate_floor and not loss_free(lo, confirm_duration):
            lo *= (1 - tolerance)
        if lo <= rate_floor and not loss_free(lo, confirm_duration):
            raise NeverLossFree("confirmation failed at floor rate")
    return min(lo, best_effective)


# ---------------------------------------------------------------------------
# HTTP load
# ---------------------------------------------------------------------------

class StaticUpstream:
    """Self-contained upstream stub: fixed body plus the request path echoed
    in a header, so rewrites are observable end to end."""

    def __init__(self, body: bytes = b"hello from upstream\n", name: str = "u0"):
        self.body = body
        self.name = name
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(128)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self.requests = 0
        self.seen_paths: list[str] = []
        self._lock = threading.Lock()
        accept_thread = threading.Thread(target=self._accept_loop,
                                         name=f"upstream.{name}", daemon=True)
        self._threads.append(accept_thread)
        accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()

    def _accept_loop(self) -> None:
        self._sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            worker = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            self._threads.append(worker)
            worker.start()

    def _serve(self, conn: socket.socket) -> None:
        from .http11 import try_parse_request
        conn.settimeout(5.0)
        buf = bytearray()
        try:
            while not self._stop.is_set():
                try:
                    request, consumed = try_parse_request(buf)
                except Exception:
                    break
                if request is None:
                    data = conn.recv(65536)
                    if not data:
                        break
                    buf += data
                    continue
                del buf[:consumed]
                with self._lock:
                    self.requests += 1
                    self.seen_paths.append(request.target)
                body = self.body + request.body
                conn.sendall(simple_response(
                    200, "OK", body,
                    extra_headers=(("X-Upstream", self.name),
                                   ("X-Path", request.target))))
        except OSError:
            pass
        finally:
            conn.close()

    def stop(self) -> None:
        self._stop.set()
        self._sock.close()
        for thread in self._threads:
            thread.join(timeout=2)


def http_load(config: HttpLoadConfig, address: tuple[str, int]) -> BenchReport:
    """Keep-alive client workers issuing requests back to back."""
    config.validate()
    results = []
    lock = threading.Lock()
    stop = threading.Event()
    request = serialize_request("GET", "/", [("Host", "bench")], b"")

    def worker():
        ok = 0
        errors = 0
        timeouts = 0
        latencies = []
        sock = None
        while not stop.is_set():
            try:
                if sock is None:
                    sock = socket.create_connection(address, timeout=HTTP_TIMEOUT_S)
                    sock.settimeout(HTTP_TIMEOUT_S)
                t0 = time.monotonic_ns()
                sock.sendall(request)
                _raw, status, _body, reusable = read_response(sock)
                latencies.append(time.monotonic_ns() - t0)
                if status == 200:
                    ok += 1
                else:
                    errors += 1
                if not reusable:
                    sock.close()
                    sock = None
            except socket.timeout:
                timeouts += 1
                if sock is not None:
                    sock.close()
                sock = None
            except OSError:
                errors += 1
                if sock is not None:
                    sock.close()
                sock = None
                if stop.is_set():
                    break
                time.sleep(0.01)
        if sock is not None:
            sock.close()
        with lock:
            results.append((ok, errors, timeouts, latencies))

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(config.concurrency)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(config.duration)
    stop.set()
    for thread in threads:
        thread.join(timeout=HTTP_TIMEOUT_S + 2)
    duration = time.perf_counter() - start
    ok = sum(r[0] for r in results)
    errors = sum(r[1] for r in results)
    timeouts = sum(r[2] for r in results)
    latencies = [ns for r in results for ns in r[3]]
    report = BenchReport(ok + errors + timeouts, ok, errors + timeouts, duration,
                         latency=LatencyStats.from_ns(latencies))
    report.extras["rps"] = ok / duration if duration else 0.0
    report.extras["timeouts"] = timeouts
    if timeouts:
        report.flagged.append(f"{timeouts} requests timed out; partial report")
    return report


# ---------------------------------------------------------------------------
# CPU sampling
# ---------------------------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _thread_cpu_seconds(tid: int) -> float:
    path = f"/proc/self/task/{tid}/stat"
    with open(path, "rb") as fh:
        data = fh.read().decode("ascii", "replace")
    # fields after the parenthesised comm; utime and stime are 14th and 15th
    rest = data.rsplit(")", 1)[1].split()
    utime, stime = int(rest[11]), int(rest[12])
    return (utime + stime) / _CLK_TCK


def cpu_sample(thread_ids: dict[str, int], interval: float = 0.1,
               duration: float = 1.0) -> dict[str, list[float]]:
    """Per-component CPU fraction time series from OS thread accounting.

    ``thread_ids`` maps component label to native thread id. Threads that
    exit mid-run simply stop contributing samples.
    """
    if not os.path.isdir("/proc/self/task"):
        raise UnsupportedPlatform("/proc thread accounting not available")
    series: dict[str, list[float]] = {name: [] for name in thread_ids}
    last: dict[str, float] = {}
    for name, tid in thread_ids.items():
        try:
            last[name] = _thread_cpu_seconds(tid)
        except OSError:
            last[name] = 0.0
    end = time.monotonic() + duration
    while time.monotonic() < end:
        t0 = time.monotonic()
        time.sleep(interval)
        elapsed = time.monotonic() - t0
        for name, tid in thread_ids.items():
            try:
                now_cpu = _thread_cpu_seconds(tid)
            except OSError:
                continue
            series[name].append((now_cpu - last[name]) / elapsed)
            last[name] = now_cpu
    return series


def cpu_total(series: dict[str, list[float]]) -> float:
    """Mean total CPU cores consumed across the sampled components."""
    totals = []
    width = max((len(s) for s in series.values()), default=0)
    for i in range(width):
        totals.append(sum(s[i] for s in series.values() if len(s) > i))
    return sum(totals) / len(totals) if totals else 0.0


# ---------------------------------------------------------------------------
# Unified coexistence run
# ---------------------------------------------------------------------------

@dataclass
class UnifiedReport:
    seconds: list[int]
    l2l3_bytes_per_s: list[float]
    l4l7_bytes_per_s: list[float]
    step_at: float
    extras: dict = field(default_factory=dict)

    @property
    def aggregate_per_s(self) -> list[float]:
        return [a + b for a, b in zip(self.l2l3_bytes_per_s, self.l4l7_bytes_per_s)]

    def as_dict(self) -> dict:
        return {
            "seconds": self.seconds,
            "l2l3_bytes_per_s": self.l2l3_bytes_per_s,
            "l4l7_bytes_per_s": self.l4l7_bytes_per_s,
            "aggregate_bytes_per_s": self.aggregate_per_s,
            "step_at": self.step_at,
            "extras": self.extras,
        }

    def write_tsv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("second\tl2l3_bytes\tl4l7_bytes\taggregate\n")
            for i, sec in enumerate(self.seconds):
                fh.write(f"{sec}\t{self.l2l3_bytes_per_s[i]:.0f}"
                         f"\t{self.l4l7_bytes_per_s[i]:.0f}"
                         f"\t{self.aggregate_per_s[i]:.0f}\n")


UNIFIED_PACKET_SIZE = 128
UNIFIED_HTTP_BODY = 1024  # bytes of body per paced HTTP request
UNIFIED_HTTP_PACE_S = 0.01  # each HTTP client's pause between requests


def unified_run(packet_target, collector: CollectorSink, proxy_address,
                *, l2l3_rate: float, http_concurrency: int = 2,
                duration: float = 30.0, step_at: float = 10.0) -> UnifiedReport:
    """Drive both planes at once; the HTTP load starts mid-run.

    The HTTP side is paced to a modest share of the packet load, matching the
    shape of the original experiment. Per-second byte series are rebuilt from
    arrival timestamps afterwards, so measurement adds no contention while
    traffic flows.
    """
    http_bytes = []  # (t_ns, bytes) per completed request
    http_lock = threading.Lock()
    stop_http = threading.Event()

    def http_worker():
        request = serialize_request("GET", "/unified", [("Host", "bench")],
                                    bytes(UNIFIED_HTTP_BODY))
        sock = None
        while not stop_http.is_set():
            try:
                if sock is None:
                    sock = socket.create_connection(proxy_address, timeout=5)
                    sock.settimeout(5)
                sock.sendall(request)
                raw, _status, _body, reusable = read_response(sock)
                with http_lock:
                    http_bytes.append((time.monotonic_ns(),
                                       len(raw) + len(request)))
                if not reusable:
                    sock.close()
                    sock = None
                time.sleep(UNIFIED_HTTP_PACE_S)
            except OSError:
                if sock is not None:
                    sock.close()
                sock = None
                if not stop_http.is_set():
                    time.sleep(0.05)
        if sock is not None:
            sock.close()

    factory = PacketFactory(UNIFIED_PACKET_SIZE, 7)
    t0_ns = time.monotonic_ns()
    http_threads = []
    offered = 0
    flow = FlowKey("10.0.0.1", DST_IP, 5000, 5001, "UDP")
    for elapsed, due in _paced(l2l3_rate, duration):
        if not http_threads and elapsed >= step_at:
            for _ in range(http_concurrency):
                thread = threading.Thread(target=http_worker, daemon=True)
                http_threads.append(thread)
                thread.start()
        for _ in range(due):
            packet_target.ingress(factory.make(offered), flow)
            offered += 1
    stop_http.set()
    for thread in http_threads:
        thread.join(timeout=6)

    n_secs = int(duration)
    l2l3 = [0.0] * n_secs
    l4l7 = [0.0] * n_secs
    with collector.lock:
        arrivals = list(collector.arrival_ns)
    for t_ns in arrivals:
        sec = int((t_ns - t0_ns) / 1e9)
        if 0 <= sec < n_secs:
            l2l3[sec] += UNIFIED_PACKET_SIZE
    with http_lock:
        for t_ns, nbytes in http_bytes:
            sec = int((t_ns - t0_ns) / 1e9)
            if 0 <= sec < n_secs:
                l4l7[sec] += nbytes
    report = UnifiedReport(list(range(n_secs)), l2l3, l4l7, step_at)
    report.extras["l2l3_offered"] = offered
    report.extras["http_requests"] = len(http_bytes)
    return report
