"""Chain functions: packet-header rewriters, proxy-side metadata functions,
and the CPU burner used in scalability runs.

A handler is ``handler(ctx, desc) -> desc | None``; ``None`` means drop. Each
handler touches only frames it currently owns, and only the byte ranges it
declares through its ``mutates`` attribute, so transport tests can check that
bodies ride through chains untouched.

A handler may also have a burst form, ``handler.burst(ctx, batch)``, which
returns a list that lines up with ``batch``: the descriptor to hand on, or
``None`` for each one refused. The chain runtime calls it once per burst,
as DPDK and VPP run a stage over a whole vector of packets, and calls any
handler without one once per descriptor. ``l3route`` and ``l2fwd`` are
written once, in burst form; their per-descriptor call runs the burst form
over a burst of one. They reach their frames through ``ctx.views(batch)``,
which makes the pool's ownership and bounds checks for the whole burst in
one loop and gives ``None`` for a frame that fails them, so such a
descriptor is refused without touching the rest of its burst.
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

    def views(self, batch) -> list:
        """A writable window onto each descriptor's bytes in its frame, for a
        whole burst, checked in one loop; ``None`` for each descriptor whose
        frame fails the pool's ownership or bounds checks."""
        return self.pool.frame_views(batch)


def _per_descriptor(burst):
    """The per-descriptor call of a handler written in burst form."""

    def handler(ctx: HandlerContext, desc):
        return burst(ctx, (desc,))[0]

    handler.burst = burst
    return handler


def make_l3_router(route_map: dict[str, str] | None = None):
    """Rewrite the destination IP of an Ethernet-framed IPv4 packet.

    Addresses not in the map pass through unchanged. Packets too short for
    an IPv4 header are dropped as malformed.
    """
    table = {ip_to_bytes(k): ip_to_bytes(v) for k, v in (route_map or {}).items()}
    lookup = table.get
    min_len = ETH_HEADER_LEN + IPV4_HEADER_LEN
    lo, hi = IPV4_DST_OFFSET, IPV4_DST_OFFSET + 4

    def burst(ctx: HandlerContext, batch) -> list:
        out = []
        append = out.append
        mutated = dropped = 0
        for desc, view in zip(batch, ctx.views(batch)):
            if desc.length < min_len:
                dropped += 1
                append(None)
            elif view is None:
                append(None)
            else:
                new_dst = lookup(bytes(view[lo:hi]))
                if new_dst is not None:
                    view[lo:hi] = new_dst
                    mutated += 1
                append(desc)
        ctx.processed += len(out)
        ctx.mutated += mutated
        ctx.dropped += dropped
        return out

    handler = _per_descriptor(burst)
    handler.mutates = ((IPV4_DST_OFFSET, IPV4_DST_OFFSET + 4),)
    handler.kind = "l3route"
    return handler


def make_l2_forwarder(dst_mac: str = "02:00:00:00:00:02"):
    """Rewrite the destination MAC so the packet heads for the next hop."""
    mac = mac_to_bytes(dst_mac)
    lo, hi = ETH_DST_OFFSET, ETH_DST_OFFSET + 6

    def burst(ctx: HandlerContext, batch) -> list:
        out = []
        append = out.append
        mutated = dropped = 0
        for desc, view in zip(batch, ctx.views(batch)):
            if desc.length < ETH_HEADER_LEN:
                dropped += 1
                append(None)
            elif view is None:
                append(None)
            else:
                view[lo:hi] = mac
                mutated += 1
                append(desc)
        ctx.processed += len(out)
        ctx.mutated += mutated
        ctx.dropped += dropped
        return out

    handler = _per_descriptor(burst)
    handler.mutates = ((ETH_DST_OFFSET, ETH_DST_OFFSET + 6),)
    handler.kind = "l2fwd"
    return handler


def make_reverse_proxy(backend_count: int):
    """Round-robin backend selection over a connectionless counter."""
    counter = itertools.count()

    def handler(ctx: HandlerContext, desc):
        ctx.processed += 1
        if desc.meta is None:
            ctx.dropped += 1
            return None
        if backend_count < 1:
            raise NoBackends("reverse proxy configured with zero backends")
        desc.meta.backend_choice = next(counter) % backend_count
        ctx.mutated += 1
        return desc

    handler.mutates = ()
    handler.kind = "revproxy"
    return handler


def make_url_rewriter(prefix_map: dict[str, str] | None = None):
    """Prefix-based path redirection; no matching prefix means identity."""
    prefixes = sorted((prefix_map or {}).items(), key=lambda kv: -len(kv[0]))

    def handler(ctx: HandlerContext, desc):
        ctx.processed += 1
        if desc.meta is None:
            ctx.dropped += 1
            return None
        for old, new in prefixes:
            if desc.meta.path.startswith(old):
                desc.meta.path = new + desc.meta.path[len(old):]
                ctx.mutated += 1
                break
        return desc

    handler.mutates = ()
    handler.kind = "urlrewrite"
    return handler


def make_prime_burner(limit: int = 50000):
    """CPU-intensive function: count primes up to ``limit`` per descriptor."""
    if limit < 1:
        raise ValueError("limit must be >= 1")

    def handler(ctx: HandlerContext, desc):
        ctx.processed += 1
        ctx.extra["last_prime_count"] = atkin_prime_count(limit)
        return desc

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


# handler factories addressable from a chain spec; parameter strings are
# factory specific ("primeburn:50000", "urlrewrite:/old=/new", ...)
def _l3route_from_param(param: str | None):
    mapping = {}
    if param:
        for pair in param.split(","):
            old, _, new = pair.partition("=")
            if not new:
                raise ValueError(f"l3route expects old=new pairs, got {pair!r}")
            mapping[old.strip()] = new.strip()
    return make_l3_router(mapping)


def _urlrewrite_from_param(param: str | None):
    mapping = {}
    if param:
        for pair in param.split(","):
            old, _, new = pair.partition("=")
            if not new:
                raise ValueError(f"urlrewrite expects old=new pairs, got {pair!r}")
            mapping[old.strip()] = new.strip()
    return make_url_rewriter(mapping)


HANDLER_FACTORIES = {
    "l3route": _l3route_from_param,
    "l2fwd": lambda param: make_l2_forwarder(param) if param else make_l2_forwarder(),
    "urlrewrite": _urlrewrite_from_param,
    "primeburn": lambda param: make_prime_burner(int(param)) if param else make_prime_burner(),
    # revproxy needs the upstream count, supplied by the plane builder
    "revproxy": lambda param: make_reverse_proxy(int(param)) if param else None,
}


def build_handler(name: str, param: str | None, backend_count: int | None = None):
    if name not in HANDLER_FACTORIES:
        raise KeyError(f"unknown handler {name!r}")
    if name == "revproxy" and param is None:
        if backend_count is None:
            raise ValueError("revproxy needs a backend count")
        return make_reverse_proxy(backend_count)
    return HANDLER_FACTORIES[name](param)
