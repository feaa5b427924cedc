import os

import pytest

from shmchain import probes


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_ring_probe_pins_its_producer_then_restores_affinity(monkeypatch):
    """The ring probe's producer spins on a CPU of its own during the send
    loop, away from the consumer, and the caller gets its CPU set back."""
    before = os.sched_getaffinity(0)
    seen = []
    send_loop = probes._paced_send_loop

    def spy(n, pace_s, send_one):
        seen.append(os.sched_getaffinity(0))
        return send_loop(n, pace_s, send_one)

    monkeypatch.setattr(probes, "_paced_send_loop", spy)
    stats = probes.ring_hop_probe(60, warmup=10)
    assert seen == [{min(before)}]
    assert os.sched_getaffinity(0) == before
    assert stats.samples == 50
