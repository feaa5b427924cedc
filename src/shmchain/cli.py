"""Command-line entry points: run chains from a spec file, benchmark the
planes, query and verify the overhead audit, and probe transport latency.

Exit code 0 means every assertion the command makes held; nonzero means a
check failed or the configuration was unusable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import threading
import time
from pathlib import Path

from . import audit
from .bench import (
    CollectorSink,
    HttpLoadConfig,
    PktgenConfig,
    StaticUpstream,
    cpu_sample,
    cpu_total,
    http_load,
    mlfr_search,
    pktgen_run,
    unified_run,
)
from .chainspec import build_planes, parse_spec, render_spec
from .errors import ShmChainError
from .packet_plane import PacketPlane
from .pool import PoolRegistry
from .proxy_plane import ProxyPlane

DEFAULT_PACKET_SPEC = """\
[pool.packet]
prefix = pkt0
frame_count = 4096
frame_size = 2048

[plane.fastpath]
kind = packet
pool = packet
mode = polling
function.r1 = l3route:10.0.0.5=10.0.1.5
function.f1 = l2fwd
entry = r1
route.r1 = f1
route.f1 = EGRESS
"""

DEFAULT_PROXY_SPEC = """\
[pool.proxy]
prefix = pxy0
frame_count = 2048
frame_size = 8192

[plane.broker]
kind = proxy
pool = proxy
mode = event
upstreams = {upstreams}
function.lb = revproxy
function.rw = urlrewrite:/old=/new
entry = lb
route.lb = rw
route.rw = EGRESS
"""


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("SHMCHAIN_OUT") or "reports"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_spec(args, default: str | None = None):
    if args.spec:
        text = Path(args.spec).read_text()
    elif default is not None:
        text = default
    else:
        raise ShmChainError("--spec is required for this command")
    return parse_spec(text)


def _pick_plane(spec, kind: str, mode: str | None = None) -> str:
    """Name the spec's first plane of ``kind``; a ``mode`` given replaces
    the mode that plane declares, before any plane is built."""
    name = next((name for name, p in spec.planes.items() if p.kind == kind),
                None)
    if name is None:
        raise ShmChainError(f"spec declares no {kind} plane")
    if mode:
        spec.planes[name] = dataclasses.replace(spec.planes[name], mode=mode)
    return name


def _run_sampled(plane, duration: float, load):
    """Run ``load()`` while sampling the CPU of the plane's threads for
    ``duration`` seconds; returns the load's result and the CPU series."""
    series = {}
    sampler = threading.Thread(
        target=lambda: series.update(cpu_sample(plane.thread_ids(),
                                                duration=duration)),
        daemon=True)
    sampler.start()
    result = load()
    sampler.join()
    return result, series


def cmd_validate_spec(args) -> int:
    spec = _load_spec(args)
    sys.stdout.write(render_spec(spec))
    print(f"# ok: {len(spec.pools)} pools, {len(spec.planes)} planes, "
          f"{len(spec.rules)} classifier rules")
    return 0


def cmd_run_chain(args) -> int:
    registry = PoolRegistry()
    spec = _load_spec(args)
    pools, planes = build_planes(spec, registry=registry)
    sinks = {}
    for name, plane in planes.items():
        if isinstance(plane, PacketPlane):
            sink = CollectorSink()
            plane.set_sink(sink)
            sinks[name] = sink
        plane.start()
        if isinstance(plane, ProxyPlane):
            print(f"{name}: listening on {plane.listen_address}")
    print(f"running {len(planes)} plane(s) for {args.duration:.0f}s")
    try:
        time.sleep(args.duration)
    except KeyboardInterrupt:
        pass
    for name, plane in planes.items():
        plane.stop()
        print(f"{name}: {json.dumps(plane.stats())}")
    registry.clear()
    return 0


def cmd_bench_l2l3(args) -> int:
    registry = PoolRegistry()
    spec = _load_spec(args, DEFAULT_PACKET_SPEC)
    name = _pick_plane(spec, "packet", args.mode)
    _pools, planes = build_planes(spec, registry=registry)
    plane = planes[name]
    collector = CollectorSink()
    plane.set_sink(collector)
    plane.start()
    out = _out_dir(args)
    try:
        if args.mlfr:
            def run(rate, duration):
                local = CollectorSink()
                plane.set_sink(local)
                return pktgen_run(
                    PktgenConfig(args.packet_size, rate, duration),
                    plane, collector=local)

            rate = mlfr_search(run, args.packet_size, args.tolerance,
                               probe_duration=args.duration / 4,
                               confirm_duration=args.duration)
            result = {"mlfr_pps": rate, "packet_size": args.packet_size,
                      "mode": plane.mode.value}
            print(json.dumps(result) if args.json else
                  f"MLFR {rate:.0f} pps at {args.packet_size}B ({plane.mode.value})")
            (out / "mlfr.json").write_text(json.dumps(result, indent=2))
        else:
            config = PktgenConfig(args.packet_size, args.rate, args.duration)
            report, series = _run_sampled(
                plane, args.duration,
                lambda: pktgen_run(config, plane, collector=collector))
            report.cpu = {name: sum(vals) / len(vals) if vals else 0.0
                          for name, vals in series.items()}
            report.write_json(out / "bench_l2l3.json")
            print(json.dumps(report.as_dict(), indent=2) if args.json else
                  f"offered {report.offered} delivered {report.delivered} "
                  f"loss {report.loss_fraction:.4f} "
                  f"median latency {report.latency.median_us if report.latency else 0:.1f}us")
    finally:
        plane.stop()
        registry.clear()
    return 0


def cmd_bench_l4l7(args) -> int:
    registry = PoolRegistry()
    stubs = []
    if args.spec:
        spec = _load_spec(args)
    else:
        stubs = [StaticUpstream(b"upstream body\n", f"u{i}") for i in range(2)]
        upstream_text = ", ".join(f"{h}:{p}" for h, p in
                                  (s.address for s in stubs))
        spec = parse_spec(DEFAULT_PROXY_SPEC.format(upstreams=upstream_text))
    name = _pick_plane(spec, "proxy", args.mode)
    _pools, planes = build_planes(spec, registry=registry)
    plane = planes[name]
    plane.start()
    out = _out_dir(args)
    try:
        config = HttpLoadConfig(concurrency=args.concurrency,
                                duration=args.duration)
        report, series = _run_sampled(
            plane, args.duration,
            lambda: http_load(config, plane.listen_address))
        report.cpu = {name: sum(vals) / len(vals) if vals else 0.0
                      for name, vals in series.items()}
        report.extras["cpu_total_cores"] = cpu_total(series)
        report.write_json(out / "bench_l4l7.json")
        print(json.dumps(report.as_dict(), indent=2) if args.json else
              f"rps {report.extras['rps']:.1f} delivered {report.delivered} "
              f"median latency {report.latency.median_us if report.latency else 0:.0f}us "
              f"cpu {report.extras['cpu_total_cores']:.2f} cores")
    finally:
        plane.stop()
        for stub in stubs:
            stub.stop()
        registry.clear()
    return 0


def cmd_bench_unified(args) -> int:
    registry = PoolRegistry()
    stubs = [StaticUpstream(b"unified body\n", f"u{i}") for i in range(2)]
    upstream_text = ", ".join(f"{h}:{p}" for h, p in (s.address for s in stubs))
    packet_spec = parse_spec(DEFAULT_PACKET_SPEC)
    proxy_spec = parse_spec(DEFAULT_PROXY_SPEC.format(upstreams=upstream_text))
    if args.spec:
        spec = _load_spec(args)
    else:
        spec = packet_spec
        spec.pools.update(proxy_spec.pools)
        spec.planes.update(proxy_spec.planes)
    packet_name = _pick_plane(spec, "packet")
    proxy_name = _pick_plane(spec, "proxy")
    _pools, planes = build_planes(spec, registry=registry)
    packet, proxy = planes[packet_name], planes[proxy_name]
    collector = CollectorSink()
    packet.set_sink(collector)
    packet.start()
    proxy.start()
    out = _out_dir(args)
    try:
        report = unified_run(packet, collector, proxy.listen_address,
                             l2l3_rate=args.rate, duration=args.duration,
                             step_at=args.step_at,
                             http_concurrency=args.concurrency)
        report.write_tsv(out / "unified.tsv")
        (out / "unified.json").write_text(json.dumps(report.as_dict(), indent=2))
        if args.json:
            print(json.dumps(report.as_dict(), indent=2))
        else:
            for i in report.seconds:
                print(f"t={i:>3}s l2l3 {report.l2l3_bytes_per_s[i]:>12.0f} B/s "
                      f"l4l7 {report.l4l7_bytes_per_s[i]:>10.0f} B/s")
    finally:
        packet.stop()
        proxy.stop()
        for stub in stubs:
            stub.stop()
        registry.clear()
    return 0


def cmd_audit(args) -> int:
    if args.audit_cmd == "predict":
        if args.model == "all":
            for group, members in audit.MODEL_GROUPS.items():
                print(f"== {group}")
                print(audit.render_model_table(members))
            return 0
        if args.json:
            print(json.dumps(audit.predict_as_dict(args.model), indent=2))
        else:
            print(audit.render_model_table([args.model]))
        return 0
    # verify / dump need a live pipeline
    from .verify_runs import run_audit_traffic

    ledger, chain_len = run_audit_traffic(args.model, args.packets)
    if args.audit_cmd == "dump":
        out = args.ledger_csv or (_out_dir(args) / f"ledger_{args.model}.csv")
        ledger.dump_csv(out)
        print(f"wrote {ledger.record_count()} records to {out}")
        return 0
    report = audit.verify(ledger, args.model, chain_len=chain_len)
    print(report.render_text())
    if args.ledger_csv:
        ledger.dump_csv(args.ledger_csv)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    return 0 if report.passed else 1


def cmd_probe_latency(args) -> int:
    from .probes import event_hop_probe, ring_hop_probe

    ring = ring_hop_probe(args.samples)
    event = event_hop_probe(args.samples)
    ratio = event.median_us / ring.median_us
    result = {"ring": ring.as_dict(), "event": event.as_dict(),
              "event_over_ring_median": ratio}
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        print(f"ring transport  one-hop median {ring.median_us:8.2f} us "
              f"(p99 {ring.p99_us:.2f})")
        print(f"event transport one-hop median {event.median_us:8.2f} us "
              f"(p99 {event.p99_us:.2f})")
        print(f"event/ring median ratio: {ratio:.1f}x")
    return 0 if ratio >= 5.0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shmchain",
        description="shared-memory service chains: run, benchmark, audit")
    parser.add_argument("--spec", help="chain spec file")
    parser.add_argument("--out", help="report directory (or $SHMCHAIN_OUT)")
    parser.add_argument("--json", action="store_true", help="JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-spec", help="parse a spec and echo canonical form")
    p.set_defaults(func=cmd_validate_spec)

    p = sub.add_parser("run-chain", help="start all planes from the spec")
    p.add_argument("--duration", type=float, default=10.0)
    p.set_defaults(func=cmd_run_chain)

    p = sub.add_parser("bench-l2l3", help="packet-rate load on the packet plane")
    p.add_argument("--rate", type=float, default=20000.0)
    p.add_argument("--packet-size", type=int, default=64)
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--mode", choices=["polling", "event"])
    p.add_argument("--mlfr", action="store_true", help="search for the MLFR")
    p.add_argument("--tolerance", type=float, default=0.1)
    p.set_defaults(func=cmd_bench_l2l3)

    p = sub.add_parser("bench-l4l7", help="HTTP load on the proxy plane")
    p.add_argument("--concurrency", type=int, default=4)
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--mode", choices=["polling", "event"])
    p.set_defaults(func=cmd_bench_l4l7)

    p = sub.add_parser("bench-unified", help="both planes with a mid-run load step")
    p.add_argument("--rate", type=float, default=8000.0)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--step-at", type=float, default=10.0)
    p.add_argument("--concurrency", type=int, default=2)
    p.set_defaults(func=cmd_bench_unified)

    p = sub.add_parser("audit", help="predict, verify, or dump overhead audits")
    p.add_argument("audit_cmd", choices=["predict", "verify", "dump"])
    p.add_argument("model", help="model id (a-h, alpha/beta/gamma/delta, "
                                 "unified_hw/unified_sw, or 'all' for predict)")
    p.add_argument("--packets", type=int, default=300)
    p.add_argument("--ledger-csv", help="also write the raw ledger as CSV")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("probe-latency", help="one-hop latency of both transports")
    p.add_argument("--samples", type=int, default=600)
    p.set_defaults(func=cmd_probe_latency)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ShmChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
