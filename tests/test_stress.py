"""Reduced-scale runs of the randomized stress drivers; the acceptance suite
runs the same drivers at full scale."""

from stresslib import (
    stress_event_channel,
    stress_event_pingpong,
    stress_pool_ownership,
    stress_ring_spsc,
)


def test_ring_spsc_stress_small():
    stats = stress_ring_spsc(30000)
    assert stats["items"] == 30000


def test_event_channel_stress_small():
    stats = stress_event_channel(10000, senders=2)
    assert stats["items"] == 20000
    assert stats["wakeups"] <= stats["items"]


def test_event_pingpong_stress():
    stats = stress_event_pingpong(20000)
    assert stats["round_trips"] == 20000


def test_pool_ownership_stress_small():
    stats = stress_pool_ownership(n_threads=4, cycles_per_thread=4000)
    assert stats["ops"] == 32000
