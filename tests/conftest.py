import itertools
import os

import pytest

from shmchain.pool import PoolConfig, PoolRegistry

_prefix_counter = itertools.count()


@pytest.fixture(autouse=True)
def whole_cpu_set():
    """Fail a test that leaves the calling thread on fewer CPUs than it found
    it on, and give the thread its set back: later tests need it whole, as
    the transport probes choose their CPUs from the caller's set."""
    cpus = os.sched_getaffinity(0)
    yield
    left = os.sched_getaffinity(0)
    if not cpus <= left:
        os.sched_setaffinity(0, cpus)
        pytest.fail(f"the test left the calling thread on CPUs {sorted(left)}, "
                    f"not {sorted(cpus)}")


@pytest.fixture
def registry(tmp_path):
    reg = PoolRegistry(registry_dir=tmp_path)
    yield reg
    reg.clear()


@pytest.fixture
def pool(registry):
    return registry.create(PoolConfig(f"test-{next(_prefix_counter)}", 64, 2048))


@pytest.fixture
def big_pool(registry):
    return registry.create(PoolConfig(f"big-{next(_prefix_counter)}", 2048, 2048))
