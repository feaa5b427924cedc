import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shmchain.chainspec import (
    ChainSpec,
    build_planes,
    FunctionSpec,
    PlaneSpec,
    PoolSpec,
    parse_spec,
    render_spec,
)
from shmchain.classifier import BifurcationRule, PlaneTarget
from shmchain.errors import (
    CycleDetected,
    NoBackends,
    SpecSyntaxError,
    UnresolvedReference,
)

VALID = """\
[pool.packet]
prefix = mn0
frame_count = 512
frame_size = 2048

[plane.fast]
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
rule.20 = TCP *:* *:80 -> l4l7
"""


def test_parse_valid_two_nf_chain():
    spec = parse_spec(VALID)
    plane = spec.planes["fast"]
    assert plane.entry == "r1"
    assert plane.routes == (("r1", "f1"), ("f1", "EGRESS"))
    assert spec.pools["packet"].frame_count == 512
    assert spec.rules[0].target is PlaneTarget.L2L3


def test_route_to_undeclared_function():
    text = VALID.replace("route.r1 = f1", "route.r1 = nf9")
    with pytest.raises(UnresolvedReference):
        parse_spec(text)


def test_routes_without_functions():
    text = """\
[pool.p]
prefix = x

[plane.a]
kind = packet
pool = p
mode = polling
entry = nf1
route.nf1 = EGRESS
"""
    with pytest.raises(UnresolvedReference):
        parse_spec(text)


def test_cycle_detected():
    text = VALID.replace("route.f1 = EGRESS", "route.f1 = r1")
    with pytest.raises(CycleDetected):
        parse_spec(text)


def test_syntax_error_carries_line_number():
    bad = "[pool.p]\nprefix = x\nnot a kv line\n"
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(bad)
    assert err.value.line == 3


def test_unknown_handler_rejected():
    text = VALID.replace("function.f1 = l2fwd", "function.f1 = wizard")
    with pytest.raises(UnresolvedReference):
        parse_spec(text)


def test_two_modes_rejected():
    text = VALID.replace("mode = polling", "mode = polling\nmode = event")
    with pytest.raises(SpecSyntaxError):
        parse_spec(text)


def test_proxy_plane_needs_upstreams():
    text = """\
[pool.p]
prefix = x

[plane.px]
kind = proxy
pool = p
mode = event
function.lb = revproxy
entry = lb
route.lb = EGRESS
"""
    with pytest.raises(UnresolvedReference):
        parse_spec(text)


def test_revproxy_with_zero_backends_fails_when_the_plane_is_built(registry):
    """``revproxy:0`` is refused by ``build_planes``, before the plane can
    start and answer every request 503."""
    text = """\
[pool.p]
prefix = spec-lb0

[plane.px]
kind = proxy
pool = p
mode = event
upstreams = 127.0.0.1:9
function.lb = revproxy:0
entry = lb
route.lb = EGRESS
"""
    with pytest.raises(NoBackends):
        build_planes(parse_spec(text), registry=registry)


def test_render_parse_round_trip_fixed():
    spec = parse_spec(VALID)
    again = parse_spec(render_spec(spec))
    assert again == spec


_names = st.sampled_from(["a", "b", "c", "fn1", "fn2", "r9"])


@st.composite
def chain_specs(draw):
    n_fns = draw(st.integers(1, 4))
    names = [f"fn{i}" for i in range(n_fns)]
    functions = tuple(
        FunctionSpec(name, draw(st.sampled_from(["l2fwd", "primeburn"])),
                     draw(st.one_of(st.none(), st.sampled_from(["64", "100"]))))
        for name in names)
    routes = tuple((a, b) for a, b in zip(names, names[1:])) + ((names[-1], "EGRESS"),)
    plane = PlaneSpec("p0", "packet", "pool0", draw(st.sampled_from(["polling", "event"])),
                      functions, names[0], routes,
                      filters=tuple(
                          (names[0], names[1] if n_fns > 1 else "EGRESS",
                           draw(st.sampled_from(["allow", "deny"])))
                          for _ in range(draw(st.integers(0, 1)))))
    pool = PoolSpec("pool0", draw(st.sampled_from(["mn0", "mn1"])),
                    draw(st.sampled_from([256, 512])), 2048)
    rules = tuple(
        BifurcationRule(priority=p, target=draw(st.sampled_from(list(PlaneTarget))),
                        protocol=draw(st.sampled_from([None, "UDP", "TCP"])),
                        dst_port=draw(st.sampled_from([None, 80, 9000])))
        for p in draw(st.sets(st.integers(1, 40), max_size=3)))
    return ChainSpec(pools={"pool0": pool}, planes={"p0": plane},
                     rules=tuple(sorted(rules, key=lambda r: r.priority)))


@given(chain_specs())
@settings(max_examples=60, deadline=None)
def test_render_parse_round_trip_property(spec):
    assert parse_spec(render_spec(spec)) == spec
