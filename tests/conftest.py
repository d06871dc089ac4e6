"""Shared test hooks.

One cross-cutting invariant: no test may leak a live ``multiprocessing``
child.  Python's exit-time multiprocessing cleanup ``terminate()``s
leaked daemon children and then ``join()``s them with *no timeout*, so
a single leaked worker once hung the entire pytest run at interpreter
shutdown.  Fail the offending test by name instead, and reap the
stragglers so one leak can't cascade.
"""

import multiprocessing

import pytest
from hypothesis import settings

# Property tests are part of the tier-1 gate, so they must say the same
# thing on every run: examples are derived from each test's source
# (``derandomize``) and nothing is replayed from — or saved to — a
# ``.hypothesis/examples`` directory left behind by some earlier run.
# Randomized exploration belongs to the seeded fuzzers in
# ``repro.testing``, whose failures come back as replayable seeds.
settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _no_leaked_child_processes():
    yield
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.terminate()
        proc.join(timeout=10)
        if proc.is_alive():  # pragma: no cover - last resort
            proc.kill()
            proc.join(timeout=10)
    assert not leaked, (
        "test leaked live child processes: " + ", ".join(p.name for p in leaked)
    )
