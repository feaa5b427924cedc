import os

import pytest

from shmchain import probes


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
@pytest.mark.parametrize("probe", [probes.ring_hop_probe, probes.event_hop_probe],
                         ids=["ring", "event"])
def test_probe_pins_its_producer_then_restores_affinity(monkeypatch, probe):
    """Each probe's producer sends from a CPU of its own during the send
    loop, away from the consumer, and the caller gets its CPU set back."""
    before = os.sched_getaffinity(0)
    seen = []
    send_loop = probes._paced_send_loop

    def spy(n, pace_s, send_one):
        seen.append(os.sched_getaffinity(0))
        return send_loop(n, pace_s, send_one)

    monkeypatch.setattr(probes, "_paced_send_loop", spy)
    stats = probe(60, warmup=10)
    assert seen == [{min(before)}]
    assert os.sched_getaffinity(0) == before
    assert stats.samples == 50
