"""Declarative chain configuration: a line-oriented sectioned text format.

Sections declare pools, planes (topology, mode, handlers), classifier rules,
and bench defaults. The format is diffable and round-trips: parsing the
rendered form of a spec yields an equal spec.

    [pool.packet]
    prefix = mn0
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
    filter.r1->f1 = allow

    [classifier]
    rule.10 = UDP *:* *:* -> l2l3

    [bench]
    packet_size = 64
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classifier import BifurcationRule, PlaneTarget
from .descriptors import EGRESS
from .errors import CycleDetected, SpecSyntaxError, UnresolvedReference
from .handlers import HANDLER_FACTORIES

_PLANE_KINDS = ("packet", "proxy")
_MODES = ("polling", "event")


@dataclass(frozen=True)
class PoolSpec:
    name: str
    prefix: str
    frame_count: int = 4096
    frame_size: int = 2048


@dataclass(frozen=True)
class FunctionSpec:
    name: str
    handler: str
    param: str | None = None


@dataclass(frozen=True)
class PlaneSpec:
    name: str
    kind: str
    pool: str
    mode: str
    functions: tuple[FunctionSpec, ...]
    entry: str
    routes: tuple[tuple[str, str], ...]
    filters: tuple[tuple[str, str, str], ...] = ()
    listen: str | None = None
    upstreams: tuple[str, ...] = ()
    max_batch: int = 32


@dataclass
class ChainSpec:
    pools: dict[str, PoolSpec] = field(default_factory=dict)
    planes: dict[str, PlaneSpec] = field(default_factory=dict)
    rules: tuple[BifurcationRule, ...] = ()
    bench: dict[str, str] = field(default_factory=dict)


def parse_spec(text: str) -> ChainSpec:
    """Parse and validate; diagnostics carry the offending line number."""
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecSyntaxError("unterminated section header", lineno)
            current = line[1:-1].strip()
            if not current:
                raise SpecSyntaxError("empty section name", lineno)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise SpecSyntaxError("key outside any section", lineno)
        key, sep, value = line.partition("=")
        if not sep:
            raise SpecSyntaxError(f"expected key = value, got {line!r}",
                                  lineno, len(line))
        sections[current].append((lineno, key.strip(), value.strip()))

    spec = ChainSpec()
    for section, items in sections.items():
        if section.startswith("pool."):
            name = section[len("pool."):]
            spec.pools[name] = _parse_pool(name, items)
        elif section.startswith("plane."):
            name = section[len("plane."):]
            spec.planes[name] = _parse_plane(name, items)
        elif section == "classifier":
            spec.rules = _parse_rules(items)
        elif section == "bench":
            spec.bench = {key: value for _, key, value in items}
        else:
            lineno = items[0][0] if items else 1
            raise SpecSyntaxError(f"unknown section [{section}]", lineno)
    _validate(spec)
    return spec


def _parse_int(value: str, lineno: int, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise SpecSyntaxError(f"{key} must be an integer, got {value!r}",
                              lineno) from None


def _parse_pool(name: str, items) -> PoolSpec:
    prefix = None
    frame_count = 4096
    frame_size = 2048
    for lineno, key, value in items:
        if key == "prefix":
            prefix = value
        elif key == "frame_count":
            frame_count = _parse_int(value, lineno, key)
        elif key == "frame_size":
            frame_size = _parse_int(value, lineno, key)
        else:
            raise SpecSyntaxError(f"unknown pool key {key!r}", lineno)
    if not prefix:
        lineno = items[0][0] if items else 1
        raise SpecSyntaxError(f"pool.{name} needs a prefix", lineno)
    return PoolSpec(name, prefix, frame_count, frame_size)


def _parse_plane(name: str, items) -> PlaneSpec:
    kind = "packet"
    pool = None
    mode = None
    functions: list[FunctionSpec] = []
    entry = None
    routes: list[tuple[str, str]] = []
    filters: list[tuple[str, str, str]] = []
    listen = None
    upstreams: list[str] = []
    max_batch = 32
    mode_lines = 0
    for lineno, key, value in items:
        if key == "kind":
            if value not in _PLANE_KINDS:
                raise SpecSyntaxError(f"kind must be one of {_PLANE_KINDS}", lineno)
            kind = value
        elif key == "pool":
            pool = value
        elif key == "mode":
            if value not in _MODES:
                raise SpecSyntaxError(f"mode must be one of {_MODES}", lineno)
            mode = value
            mode_lines += 1
            if mode_lines > 1:
                raise SpecSyntaxError("exactly one mode per plane", lineno)
        elif key.startswith("function."):
            fn_name = key[len("function."):]
            handler, sep, param = value.partition(":")
            functions.append(FunctionSpec(fn_name, handler.strip(),
                                          param.strip() if sep else None))
        elif key == "entry":
            entry = value
        elif key.startswith("route."):
            routes.append((key[len("route."):], value))
        elif key.startswith("filter."):
            pair = key[len("filter."):]
            src, sep, dst = pair.partition("->")
            if not sep:
                raise SpecSyntaxError("filter key must look like filter.src->dst",
                                      lineno)
            if value not in ("allow", "deny"):
                raise SpecSyntaxError("filter verdict must be allow or deny", lineno)
            filters.append((src.strip(), dst.strip(), value))
        elif key == "listen":
            listen = value
        elif key == "upstreams":
            upstreams = [u.strip() for u in value.split(",") if u.strip()]
        elif key == "max_batch":
            max_batch = _parse_int(value, lineno, key)
        else:
            raise SpecSyntaxError(f"unknown plane key {key!r}", lineno)
    first_line = items[0][0] if items else 1
    if pool is None:
        raise SpecSyntaxError(f"plane.{name} needs a pool", first_line)
    if mode is None:
        raise SpecSyntaxError(f"plane.{name} needs a mode", first_line)
    if entry is None:
        raise SpecSyntaxError(f"plane.{name} needs an entry function", first_line)
    return PlaneSpec(name, kind, pool, mode, tuple(functions), entry,
                     tuple(routes), tuple(filters), listen, tuple(upstreams),
                     max_batch)


def _parse_rules(items) -> tuple[BifurcationRule, ...]:
    rules = []
    for lineno, key, value in items:
        if not key.startswith("rule."):
            raise SpecSyntaxError(f"unknown classifier key {key!r}", lineno)
        priority = _parse_int(key[len("rule."):], lineno, "rule priority")
        parts = value.split()
        if len(parts) != 5 or parts[3] != "->":
            raise SpecSyntaxError(
                "rule must look like: PROTO src_ip:src_port dst_ip:dst_port -> target",
                lineno)
        proto, src, dst, _, target = parts
        try:
            plane_target = PlaneTarget(target)
        except ValueError:
            raise SpecSyntaxError(f"target must be l2l3 or l4l7, got {target!r}",
                                  lineno) from None

        def split_ep(endpoint: str):
            ip, sep, port = endpoint.rpartition(":")
            if not sep:
                raise SpecSyntaxError(f"endpoint must be ip:port, got {endpoint!r}",
                                      lineno)
            return (None if ip == "*" else ip,
                    None if port == "*" else _parse_int(port, lineno, "port"))

        src_ip, src_port = split_ep(src)
        dst_ip, dst_port = split_ep(dst)
        rules.append(BifurcationRule(
            priority=priority, target=plane_target,
            src_ip=src_ip, dst_ip=dst_ip, src_port=src_port, dst_port=dst_port,
            protocol=None if proto == "*" else proto.upper()))
    return tuple(sorted(rules, key=lambda r: r.priority))


def _validate(spec: ChainSpec) -> None:
    seen_priorities = set()
    for rule in spec.rules:
        if rule.priority in seen_priorities:
            raise UnresolvedReference(f"duplicate rule priority {rule.priority}")
        seen_priorities.add(rule.priority)
    for plane in spec.planes.values():
        if plane.pool not in spec.pools:
            raise UnresolvedReference(
                f"plane.{plane.name} references undeclared pool {plane.pool!r}")
        names = set()
        for fn in plane.functions:
            if fn.name in names:
                raise UnresolvedReference(
                    f"plane.{plane.name} declares {fn.name!r} twice")
            names.add(fn.name)
            if fn.handler not in HANDLER_FACTORIES:
                raise UnresolvedReference(
                    f"plane.{plane.name}: unknown handler {fn.handler!r}")
        if plane.entry not in names:
            raise UnresolvedReference(
                f"plane.{plane.name}: entry {plane.entry!r} not declared")
        route_map = {}
        for frm, to in plane.routes:
            if frm not in names:
                raise UnresolvedReference(
                    f"plane.{plane.name}: route from undeclared {frm!r}")
            if to != EGRESS and to not in names:
                raise UnresolvedReference(
                    f"plane.{plane.name}: route to undeclared {to!r}")
            route_map[frm] = to
        for start in route_map:
            seen = {start}
            cur = route_map[start]
            while cur != EGRESS and cur in route_map:
                if cur in seen:
                    raise CycleDetected(
                        f"plane.{plane.name}: route loop through {cur!r}")
                seen.add(cur)
                cur = route_map[cur]
        for src, dst, _verdict in plane.filters:
            for fn in (src, dst):
                if fn not in names and fn != EGRESS:
                    raise UnresolvedReference(
                        f"plane.{plane.name}: filter references {fn!r}")
        if plane.kind == "proxy" and not plane.upstreams:
            raise UnresolvedReference(
                f"plane.{plane.name}: proxy plane needs upstreams")


def render_spec(spec: ChainSpec) -> str:
    """Canonical text form; parsing it yields an equal spec."""
    out = []
    for name in sorted(spec.pools):
        pool = spec.pools[name]
        out.append(f"[pool.{name}]")
        out.append(f"prefix = {pool.prefix}")
        out.append(f"frame_count = {pool.frame_count}")
        out.append(f"frame_size = {pool.frame_size}")
        out.append("")
    for name in sorted(spec.planes):
        plane = spec.planes[name]
        out.append(f"[plane.{name}]")
        out.append(f"kind = {plane.kind}")
        out.append(f"pool = {plane.pool}")
        out.append(f"mode = {plane.mode}")
        if plane.listen:
            out.append(f"listen = {plane.listen}")
        if plane.upstreams:
            out.append(f"upstreams = {', '.join(plane.upstreams)}")
        if plane.max_batch != 32:
            out.append(f"max_batch = {plane.max_batch}")
        for fn in plane.functions:
            suffix = f":{fn.param}" if fn.param is not None else ""
            out.append(f"function.{fn.name} = {fn.handler}{suffix}")
        out.append(f"entry = {plane.entry}")
        for frm, to in plane.routes:
            out.append(f"route.{frm} = {to}")
        for src, dst, verdict in plane.filters:
            out.append(f"filter.{src}->{dst} = {verdict}")
        out.append("")
    if spec.rules:
        out.append("[classifier]")
        for rule in spec.rules:
            src = f"{rule.src_ip or '*'}:{rule.src_port if rule.src_port is not None else '*'}"
            dst = f"{rule.dst_ip or '*'}:{rule.dst_port if rule.dst_port is not None else '*'}"
            out.append(f"rule.{rule.priority} = {rule.protocol or '*'} {src} {dst} "
                       f"-> {rule.target.value}")
        out.append("")
    if spec.bench:
        out.append("[bench]")
        for key in sorted(spec.bench):
            out.append(f"{key} = {spec.bench[key]}")
        out.append("")
    return "\n".join(out)


def build_planes(spec: ChainSpec, *, registry=None, ledgers=None,
                 listen_override=None):
    """Instantiate pools and planes from a parsed spec.

    ``ledgers`` maps plane name to an AuditLedger. Returns (pools, planes);
    planes are constructed but not started.
    """
    from ._util import parse_hostport
    from .events import BatchPolicy
    from .handlers import build_handler
    from .packet_plane import PacketPlane
    from .pool import PoolConfig, create_pool
    from .proxy_plane import BrokerConfig, ProxyPlane
    from .runtime import Mode

    ledgers = ledgers or {}
    pools = {}
    for name, pdecl in spec.pools.items():
        pools[name] = create_pool(
            PoolConfig(pdecl.prefix, pdecl.frame_count, pdecl.frame_size),
            registry=registry)
    planes = {}
    for name, pdecl in spec.planes.items():
        pool = pools[pdecl.pool]
        ledger = ledgers.get(name)
        if pdecl.kind == "packet":
            plane = PacketPlane(pool, Mode(pdecl.mode), ledger, name=name)
            register = plane.register_nf
        else:
            listen = listen_override or pdecl.listen or "127.0.0.1:0"
            config = BrokerConfig(
                listen=parse_hostport(listen),
                upstreams=[parse_hostport(u) for u in pdecl.upstreams],
                mode=Mode(pdecl.mode),
                batch=BatchPolicy(pdecl.max_batch),
            )
            plane = ProxyPlane(pool, config, ledger, name=name)
            register = plane.register_mf
        for fn in pdecl.functions:
            handler = build_handler(fn.handler, fn.param,
                                    backend_count=len(pdecl.upstreams) or None)
            register(fn.name, handler)
        plane.set_entry(pdecl.entry)
        for frm, to in pdecl.routes:
            plane.set_route(frm, to)
        for src, dst, verdict in pdecl.filters:
            plane.set_filter(src, dst, verdict)
        planes[name] = plane
    return pools, planes
