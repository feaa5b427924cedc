"""Chain functions: packet-header rewriters, proxy-side metadata functions,
and the CPU burner used in scalability runs.

Every handler has one form, ``handler(ctx, batch) -> list``. The chain
runtime calls it once per burst, as DPDK and VPP run a stage over a whole
vector of packets, and it returns a list that lines up with ``batch``: the
descriptor to hand on, or ``None`` for each one refused. Each handler
touches only frames it currently owns, and only the byte ranges it declares
through its ``mutates`` attribute, so transport tests can check that bodies
ride through chains untouched.

The packet rewriters reach their frames through
``ctx.pool.frame_views(batch)``, which makes the pool's ownership and bounds
checks for the whole burst in one loop and gives ``None`` for a frame that
fails them, so such a descriptor is refused without touching the rest of
its burst. They, and the packet plane's ``_transmit``, walk the burst and
its views with one index rather than with ``zip``: on a burst of one, the
polling plane's common case, the zips cost a one-packet step about 0.5 us
of 5 (``tools/step_cost.py``). The proxy-side functions work on each
descriptor's parsed metadata and refuse a descriptor that has none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ._util import ip_to_bytes, mac_to_bytes
from .errors import NoBackends

ETH_HEADER_LEN = 14
IPV4_HEADER_LEN = 20
IPV4_DST_OFFSET = ETH_HEADER_LEN + 16   # 30
ETH_DST_OFFSET = 0


@dataclass
class HandlerContext:
    pool: object
    fn_id: str
    processed: int = 0
    mutated: int = 0
    dropped: int = 0
    extra: dict = field(default_factory=dict)


def make_l3_router(route_map: dict[str, str] | None = None):
    """Rewrite the destination IP of an Ethernet-framed IPv4 packet.

    Addresses not in the map pass through unchanged. Packets too short for
    an IPv4 header are dropped as malformed.
    """
    table = {ip_to_bytes(k): ip_to_bytes(v) for k, v in (route_map or {}).items()}
    lookup = table.get
    min_len = ETH_HEADER_LEN + IPV4_HEADER_LEN
    lo, hi = IPV4_DST_OFFSET, IPV4_DST_OFFSET + 4

    def handler(ctx: HandlerContext, batch) -> list:
        out = []
        mutated = dropped = 0
        views = ctx.pool.frame_views(batch)
        i = 0
        for desc in batch:
            view = views[i]
            i += 1
            if desc.length < min_len:
                dropped += 1
                out.append(None)
            elif view is None:
                out.append(None)
            else:
                new_dst = lookup(view[lo:hi].tobytes())
                if new_dst is not None:
                    view[lo:hi] = new_dst
                    mutated += 1
                out.append(desc)
        ctx.processed += len(out)
        ctx.mutated += mutated
        ctx.dropped += dropped
        return out

    handler.mutates = ((IPV4_DST_OFFSET, IPV4_DST_OFFSET + 4),)
    handler.kind = "l3route"
    return handler


def make_l2_forwarder(dst_mac: str = "02:00:00:00:00:02"):
    """Rewrite the destination MAC so the packet heads for the next hop."""
    mac = mac_to_bytes(dst_mac)
    lo, hi = ETH_DST_OFFSET, ETH_DST_OFFSET + 6

    def handler(ctx: HandlerContext, batch) -> list:
        out = []
        mutated = dropped = 0
        views = ctx.pool.frame_views(batch)
        i = 0
        for desc in batch:
            view = views[i]
            i += 1
            if desc.length < ETH_HEADER_LEN:
                dropped += 1
                out.append(None)
            elif view is None:
                out.append(None)
            else:
                view[lo:hi] = mac
                mutated += 1
                out.append(desc)
        ctx.processed += len(out)
        ctx.mutated += mutated
        ctx.dropped += dropped
        return out

    handler.mutates = ((ETH_DST_OFFSET, ETH_DST_OFFSET + 6),)
    handler.kind = "l2fwd"
    return handler


def make_reverse_proxy(backend_count: int | None):
    """Round-robin backend selection over a connectionless counter. Raises
    ``NoBackends`` at once when there is no backend to choose."""
    if backend_count is None or backend_count < 1:
        raise NoBackends(f"reverse proxy configured with {backend_count} backends")
    counter = itertools.count()

    def handler(ctx: HandlerContext, batch) -> list:
        out = []
        dropped = 0
        for desc in batch:
            if desc.meta is None:
                dropped += 1
                out.append(None)
            else:
                desc.meta.backend_choice = next(counter) % backend_count
                out.append(desc)
        ctx.processed += len(out)
        ctx.mutated += len(out) - dropped
        ctx.dropped += dropped
        return out

    handler.mutates = ()
    handler.kind = "revproxy"
    return handler


def make_url_rewriter(prefix_map: dict[str, str] | None = None):
    """Prefix-based path redirection; no matching prefix means identity."""
    prefixes = sorted((prefix_map or {}).items(), key=lambda kv: -len(kv[0]))

    def handler(ctx: HandlerContext, batch) -> list:
        out = []
        mutated = dropped = 0
        for desc in batch:
            meta = desc.meta
            if meta is None:
                dropped += 1
                out.append(None)
                continue
            for old, new in prefixes:
                if meta.path.startswith(old):
                    meta.path = new + meta.path[len(old):]
                    mutated += 1
                    break
            out.append(desc)
        ctx.processed += len(out)
        ctx.mutated += mutated
        ctx.dropped += dropped
        return out

    handler.mutates = ()
    handler.kind = "urlrewrite"
    return handler


def make_prime_burner(limit: int = 50000):
    """CPU-intensive function: count primes up to ``limit`` per descriptor."""
    if limit < 1:
        raise ValueError("limit must be >= 1")

    def handler(ctx: HandlerContext, batch) -> list:
        for _desc in batch:
            ctx.extra["last_prime_count"] = atkin_prime_count(limit)
        ctx.processed += len(batch)
        return list(batch)

    handler.mutates = ()
    handler.kind = "primeburn"
    return handler


def atkin_sieve(limit: int) -> bytearray:
    """Primality flags for 0..limit by the sieve of Atkin.

    The three quadratic forms mark candidates by solution-count parity, then
    multiples of squares are struck out.
    """
    sieve = bytearray(limit + 1)
    if limit >= 2:
        sieve[2] = 1
    if limit >= 3:
        sieve[3] = 1
    x = 1
    while x * x <= limit:
        xx = x * x
        y = 1
        while y * y <= limit:
            yy = y * y
            n = 4 * xx + yy
            if n <= limit and n % 12 in (1, 5):
                sieve[n] ^= 1
            n = 3 * xx + yy
            if n <= limit and n % 12 == 7:
                sieve[n] ^= 1
            if x > y:
                n = 3 * xx - yy
                if n <= limit and n % 12 == 11:
                    sieve[n] ^= 1
            y += 1
        x += 1
    r = 5
    while r * r <= limit:
        if sieve[r]:
            step = r * r
            for m in range(step, limit + 1, step):
                sieve[m] = 0
        r += 1
    return sieve


def atkin_prime_count(limit: int) -> int:
    """Count primes <= limit."""
    if limit < 2:
        return 0
    return sum(atkin_sieve(limit))


def _pairs(kind: str, param: str | None) -> dict[str, str]:
    """The ``old=new`` pairs of a comma-separated handler parameter."""
    mapping = {}
    if param:
        for pair in param.split(","):
            old, _, new = pair.partition("=")
            if not new:
                raise ValueError(f"{kind} expects old=new pairs, got {pair!r}")
            mapping[old.strip()] = new.strip()
    return mapping


# handler factories addressable from a chain spec, each called with the
# spec's parameter string ("primeburn:50000", "urlrewrite:/old=/new", ...)
# and the plane's upstream count, which revproxy takes when it has no
# parameter
HANDLER_FACTORIES = {
    "l3route": lambda param, _: make_l3_router(_pairs("l3route", param)),
    "l2fwd": lambda param, _: make_l2_forwarder(param) if param else make_l2_forwarder(),
    "urlrewrite": lambda param, _: make_url_rewriter(_pairs("urlrewrite", param)),
    "primeburn": lambda param, _: make_prime_burner(int(param)) if param else make_prime_burner(),
    "revproxy": lambda param, backends: make_reverse_proxy(int(param) if param else backends),
}


def build_handler(name: str, param: str | None, backend_count: int | None = None):
    if name not in HANDLER_FACTORIES:
        raise KeyError(f"unknown handler {name!r}")
    return HANDLER_FACTORIES[name](param, backend_count)
