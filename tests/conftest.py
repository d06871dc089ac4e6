"""Shared test hooks."""

from hypothesis import settings

# Property tests are part of the tier-1 gate, so they must say the same
# thing on every run: examples are derived from each test's source
# (``derandomize``) and nothing is replayed from — or saved to — a
# ``.hypothesis/examples`` directory left behind by some earlier run.
# Randomized exploration belongs to the seeded fuzzers in
# ``repro.testing``, whose failures come back as replayable seeds.
settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")
