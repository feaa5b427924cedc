"""Helpers that step a started plane by hand and count what a step costs,
shared by the runtime tests and ``tools/step_cost.py``."""

import sys


def halt_stages(plane):
    """Stop a started plane's threads but leave it running, so that the
    caller steps its chain by hand."""
    plane._stop.set()
    for thread in plane._threads.values():
        thread.join(timeout=5)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not stop")


def python_calls(run) -> int:
    """Python function calls ``run()`` makes, itself included, counted as
    ``sys.setprofile`` "call" events."""
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls
