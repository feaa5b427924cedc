import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shmchain.descriptors import HttpExchangeMeta, PacketDescriptor
from shmchain.errors import DoubleFree, NoBackends
from shmchain.handlers import (
    HandlerContext,
    atkin_prime_count,
    build_handler,
    make_l2_forwarder,
    make_l3_router,
    make_prime_burner,
    make_reverse_proxy,
    make_url_rewriter,
)
from shmchain.packet_plane import PacketPlane
from shmchain.pool import PoolConfig, PoolRegistry
from shmchain.runtime import Mode


def trial_division_count(limit: int) -> int:
    """Independent oracle: count primes <= limit by trial division."""
    count = 0
    for n in range(2, limit + 1):
        d = 2
        is_prime = True
        while d * d <= n:
            if n % d == 0:
                is_prime = False
                break
            d += 1
        if is_prime:
            count += 1
    return count


def make_packet_desc(pool, payload: bytes, trace=0):
    ref = pool.alloc_frame()
    pool.write_frame(ref, 0, payload)
    return PacketDescriptor(ref, 0, len(payload), "in", trace)


def make_meta_desc(pool, path="/x", method="GET"):
    ref = pool.alloc_frame()
    meta = HttpExchangeMeta(method, path, "HTTP/1.1", [], None, 0)
    return PacketDescriptor(ref, 0, 0, "in", 0, meta=meta)


def sample_packet(dst_ip=b"\x0a\x00\x00\x05", size=64) -> bytes:
    pkt = bytearray(size)
    pkt[12:14] = b"\x08\x00"
    pkt[30:34] = dst_ip
    return bytes(pkt)


class TestL3Router:
    def test_rewrites_mapped_destination(self, pool):
        ctx = HandlerContext(pool, "r1")
        handler = make_l3_router({"10.0.0.5": "10.0.1.5"})
        desc = make_packet_desc(pool, sample_packet())
        out = handler(ctx, desc)
        assert out is desc
        assert pool.read_frame(desc.frame, 30, 4) == b"\x0a\x00\x01\x05"
        assert ctx.mutated == 1

    def test_short_packet_dropped_as_malformed(self, pool):
        ctx = HandlerContext(pool, "r1")
        handler = make_l3_router({})
        desc = make_packet_desc(pool, b"\x00" * 20)
        assert handler(ctx, desc) is None
        assert ctx.dropped == 1

    def test_bytes_outside_declared_range_untouched(self, pool):
        ctx = HandlerContext(pool, "r1")
        handler = make_l3_router({"10.0.0.5": "10.0.1.5"})
        payload = sample_packet(size=128)
        desc = make_packet_desc(pool, payload)
        handler(ctx, desc)
        after = pool.read_frame(desc.frame, 0, 128)
        (lo, hi), = handler.mutates
        assert after[:lo] == payload[:lo]
        assert after[hi:] == payload[hi:]

    def test_unmapped_destination_passes_through(self, pool):
        ctx = HandlerContext(pool, "r1")
        handler = make_l3_router({"10.9.9.9": "10.0.1.5"})
        payload = sample_packet()
        desc = make_packet_desc(pool, payload)
        handler(ctx, desc)
        assert pool.read_frame(desc.frame, 0, 64) == payload
        assert ctx.mutated == 0


class TestL2Forwarder:
    def test_rewrites_destination_mac(self, pool):
        ctx = HandlerContext(pool, "f1")
        handler = make_l2_forwarder("02:11:22:33:44:55")
        desc = make_packet_desc(pool, sample_packet())
        handler(ctx, desc)
        assert pool.read_frame(desc.frame, 0, 6) == bytes.fromhex("021122334455")

    def test_short_frame_dropped(self, pool):
        ctx = HandlerContext(pool, "f1")
        handler = make_l2_forwarder()
        desc = make_packet_desc(pool, b"\x00" * 8)
        assert handler(ctx, desc) is None


class TestReverseProxy:
    def test_round_robin_two_backends(self, pool):
        ctx = HandlerContext(pool, "lb")
        handler = make_reverse_proxy(2)
        choices = []
        for _ in range(4):
            desc = make_meta_desc(pool)
            handler(ctx, desc)
            choices.append(desc.meta.backend_choice)
        assert choices == [0, 1, 0, 1]

    def test_single_backend_always_zero(self, pool):
        ctx = HandlerContext(pool, "lb")
        handler = make_reverse_proxy(1)
        for _ in range(3):
            desc = make_meta_desc(pool)
            handler(ctx, desc)
            assert desc.meta.backend_choice == 0

    def test_zero_backends_raises(self, pool):
        ctx = HandlerContext(pool, "lb")
        handler = make_reverse_proxy(0)
        with pytest.raises(NoBackends):
            handler(ctx, make_meta_desc(pool))

    def test_missing_meta_dropped(self, pool):
        ctx = HandlerContext(pool, "lb")
        handler = make_reverse_proxy(2)
        desc = make_packet_desc(pool, b"\x00" * 64)
        assert handler(ctx, desc) is None


class TestUrlRewriter:
    def test_prefix_rewrite(self, pool):
        ctx = HandlerContext(pool, "rw")
        handler = make_url_rewriter({"/old": "/new"})
        desc = make_meta_desc(pool, path="/old/page.html")
        handler(ctx, desc)
        assert desc.meta.path == "/new/page.html"

    def test_no_match_is_identity(self, pool):
        ctx = HandlerContext(pool, "rw")
        handler = make_url_rewriter({"/old": "/new"})
        desc = make_meta_desc(pool, path="/other")
        handler(ctx, desc)
        assert desc.meta.path == "/other"

    def test_longest_prefix_wins(self, pool):
        ctx = HandlerContext(pool, "rw")
        handler = make_url_rewriter({"/a": "/x", "/a/b": "/y"})
        desc = make_meta_desc(pool, path="/a/b/c")
        handler(ctx, desc)
        assert desc.meta.path == "/y/c"


class TestPrimeSieve:
    def test_no_primes_below_two(self):
        assert atkin_prime_count(1) == 0

    def test_small_value(self):
        assert atkin_prime_count(10) == trial_division_count(10) == 4

    def test_ten_thousand(self):
        assert atkin_prime_count(10000) == 1229

    def test_exhaustive_against_oracle_to_5000(self):
        # one sieve; per-n flags against the oracle make every prefix count match
        from shmchain.handlers import atkin_sieve
        flags = atkin_sieve(5000)
        count = 0
        for n in range(2, 5001):
            d = 2
            is_prime = True
            while d * d <= n:
                if n % d == 0:
                    is_prime = False
                    break
                d += 1
            count += is_prime
            assert flags[n] == (1 if is_prime else 0), n
        assert atkin_prime_count(5000) == count == 669

    def test_burner_handler_runs(self, pool):
        ctx = HandlerContext(pool, "burn")
        handler = make_prime_burner(1000)
        desc = make_meta_desc(pool)
        assert handler(ctx, desc) is desc
        assert ctx.extra["last_prime_count"] == 168


def test_build_handler_registry(pool):
    handler = build_handler("l3route", "10.0.0.5=10.0.1.5")
    assert handler.kind == "l3route"
    handler = build_handler("primeburn", "100")
    assert handler.kind == "primeburn"
    handler = build_handler("revproxy", None, backend_count=3)
    assert handler.kind == "revproxy"
    with pytest.raises(KeyError):
        build_handler("nope", None)


MAPPED, ROUTED_TO, UNMAPPED = (bytes([10, 0, 0, 5]), bytes([10, 0, 1, 5]),
                               bytes([10, 9, 9, 9]))
NEXT_HOP = bytes.fromhex("021122334455")
HANDLER_PARAMS = {"l3route": "10.0.0.5=10.0.1.5", "l2fwd": "02:11:22:33:44:55"}

# (length, destination IP, frame freed behind the chain's back)
bursts = st.lists(st.tuples(st.sampled_from([0, 8, 13, 14, 20, 33, 34, 64, 80]),
                            st.sampled_from([MAPPED, UNMAPPED]), st.booleans()),
                  min_size=1, max_size=24)


def run_function(registry, name, handler, items):
    """Run one chain function over one burst through the runtime, as a
    polling step does. Returns what the step left behind."""
    pool = registry.create(PoolConfig(name, 64, 2048))
    plane = PacketPlane(pool, Mode.POLLING)
    reg = plane.register("f", handler)
    batch = []
    for trace, (length, dst, _stale) in enumerate(items):
        ref = pool.alloc_frame()  # frame ``trace``
        pool.write_frame(ref, 0, sample_packet(dst, size=80)[:length])
        batch.append(PacketDescriptor(ref, 0, length, "in", trace))
    for desc, (_length, _dst, stale) in zip(batch, items):
        if stale:
            pool.free_frame(desc.frame)
    survivors = [desc.trace_id for desc in plane._run_handlers(reg, batch)]
    ctx = reg.context
    return {
        "region": bytes(pool._view),
        "survivors": survivors,
        "counters": (ctx.processed, ctx.mutated, ctx.dropped),
        "drops": dict(plane.drops),
        "fault": type(plane._fault),
        "free": pool.free_count,
    }


@pytest.mark.parametrize("kind", sorted(HANDLER_PARAMS))
@given(items=bursts)
@settings(max_examples=40, deadline=None)
def test_burst_form_matches_per_descriptor_form(kind, items):
    """Over random bursts of short and full frames, mapped and unmapped
    destinations and frames freed behind the chain's back, running a
    handler once per burst and once per descriptor leaves the same frame
    bytes, survivors, counters, drop reasons and ownership fault, and both
    agree with what the handler's definition says."""
    registry = PoolRegistry()
    try:
        handler = build_handler(kind, HANDLER_PARAMS[kind])
        assert handler.burst is not None

        def per_descriptor(ctx, desc):  # no burst form: called per descriptor
            return handler(ctx, desc)

        burst = run_function(registry, "burst", handler, items)
        single = run_function(registry, "single", per_descriptor, items)
    finally:
        registry.clear()
    assert burst == single

    min_len = 34 if kind == "l3route" else 14
    passed = [t for t, (length, _dst, stale) in enumerate(items)
              if length >= min_len and not stale]
    mutated = [t for t in passed if kind == "l2fwd" or items[t][1] == MAPPED]
    short = sum(length < min_len for length, _dst, _stale in items)
    assert burst["survivors"] == passed
    assert burst["counters"] == (len(items), len(mutated), short)
    refused = len(items) - len(passed)
    assert burst["drops"] == ({"handler": refused} if refused else {})
    stale = any(stale for _length, _dst, stale in items)
    assert burst["fault"] is (DoubleFree if stale else type(None))
    assert burst["free"] == 64 - len(passed)
    for t in passed:
        length = items[t][0]
        want = bytearray(sample_packet(items[t][1], size=80)[:length])
        if kind == "l2fwd":
            want[0:6] = NEXT_HOP
        elif t in mutated:
            want[30:34] = ROUTED_TO
        assert burst["region"][t * 2048:t * 2048 + length] == want


@pytest.mark.parametrize("broken", ["raises", "misaligned"])
def test_broken_burst_form_drops_its_whole_burst(pool, broken):
    """A burst form that raises, or returns a list that does not line up
    with its burst, has every descriptor of the burst dropped as
    ``handler``, and each frame goes back to the pool once."""
    plane = PacketPlane(pool, Mode.POLLING)

    def handler(ctx, desc):
        return desc

    def burst(ctx, batch):
        if broken == "raises":
            raise RuntimeError("burst form failed")
        return list(batch[:-1])

    handler.burst = burst
    reg = plane.register("f", handler)
    batch = [make_packet_desc(pool, sample_packet(), trace) for trace in range(5)]
    assert plane._run_handlers(reg, batch) == []
    assert plane.drops == {"handler": 5}
    assert plane._fault is None
    assert pool.free_count == pool.config.frame_count
