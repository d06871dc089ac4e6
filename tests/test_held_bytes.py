"""Held bytes next to modelled bytes: the structures whose claim is bits
per key hold, as live Python objects, what their model charges.

``size_bits()`` / ``memory_bytes()`` is the model every memory figure
reports.  ``repro.bench.held_bytes`` is what the object keeps allocated
once built (tracemalloc, temporaries collected).  The bound is 1.5x the
model plus a constant for the object headers and views of a small
filter: the next KiB above the worst case measured (6,366 bytes, a
4k-key SuRF-Base as built).
"""

import pytest

from repro.bench import held_bytes
from repro.filters.bloom import BloomFilter
from repro.fst import FST
from repro.surf import SuRF, surf_base, surf_hash, surf_mixed, surf_real
from repro.workloads import random_u64_keys

SLACK = 1.5
OVERHEAD = 7 * 1024

SURFS = {
    "base": surf_base,
    "hash": lambda keys: surf_hash(keys, hash_bits=4),
    "real": lambda keys: surf_real(keys, real_bits=4),
    "mixed": lambda keys: surf_mixed(keys, hash_bits=2, real_bits=2),
}


@pytest.fixture(scope="module", params=[4_096, 40_960], ids=["4k", "40k"])
def keys(request):
    return sorted(random_u64_keys(request.param, seed=91))


def assert_holds_its_model(make, modelled: int) -> None:
    held = held_bytes(make)
    assert held <= SLACK * modelled + OVERHEAD, (held, modelled)


@pytest.mark.parametrize("mode", sorted(SURFS))
def test_a_surf_holds_its_model(keys, mode):
    """Built and loaded: the build's key-order suffix column and the
    trie's leaf -> key positions are gone once the filter exists."""
    make = SURFS[mode]
    built = make(keys)
    assert_holds_its_model(lambda: make(keys), built.memory_bytes())
    blob = built.to_bytes()
    assert_holds_its_model(lambda: SuRF.from_bytes(blob), built.memory_bytes())


def test_a_bloom_filter_holds_its_model(keys):
    built = BloomFilter(keys, bits_per_key=10)
    assert_holds_its_model(lambda: BloomFilter(keys, bits_per_key=10), built.memory_bytes())
    blob = built.to_bytes()
    assert_holds_its_model(lambda: BloomFilter.from_bytes(blob), built.memory_bytes())


def test_a_keys_only_fst_holds_its_model_plus_positions(keys):
    """The model leaves values out; the default values, the key
    positions in leaf order, are charged at 32 bits a key."""
    fst = FST(keys)
    assert fst.get(keys[-1]) == len(keys) - 1
    assert type(fst.values[0]) is int
    assert_holds_its_model(lambda: FST(keys), fst.memory_bytes() + 4 * len(keys))
