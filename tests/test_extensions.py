"""Tests for the paper's extension features (Sections 4.5 and 5.2.2):
SuRF tombstone deletion, the modifiable HybridSuRF, and the merge-cold
strategy — plus the measurement harness utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hybrid import hybrid_btree
from repro.surf import HybridSuRF, surf_base, surf_real
from repro.workloads import random_u64_keys


KEYS = sorted(random_u64_keys(2000, seed=140))


class TestSurfTombstones:
    def test_delete_then_lookup_negative(self):
        surf = surf_real(KEYS, real_bits=8)
        assert surf.lookup(KEYS[10])
        assert surf.delete(KEYS[10])
        assert not surf.lookup(KEYS[10])

    def test_other_keys_unaffected(self):
        surf = surf_base(KEYS)
        surf.delete(KEYS[10])
        for k in KEYS[:10] + KEYS[11:30]:
            assert surf.lookup(k)

    def test_delete_absent_rejected_when_provable(self):
        surf = surf_base(KEYS)
        assert not surf.delete(b"\x00\x00")  # provably absent

    def test_tombstones_cost_one_bit_per_key(self):
        surf = surf_base(KEYS)
        before = surf.size_bits()
        surf.delete(KEYS[0])
        assert surf.size_bits() - before == len(surf._tombstones) * 8
        assert len(surf._tombstones) == (len(KEYS) + 7) // 8

    def test_no_tombstone_cost_until_first_delete(self):
        surf = surf_base(KEYS)
        base = surf.size_bits()
        surf.lookup(KEYS[0])
        assert surf.size_bits() == base


class TestHybridSuRF:
    def test_insert_then_lookup(self):
        filt = HybridSuRF(KEYS[:1000], real_bits=4)
        new_key = KEYS[1500]
        assert not any(k == new_key for k in KEYS[:1000])
        filt.insert(new_key)
        assert filt.lookup(new_key)

    def test_no_false_negatives_across_merges(self):
        filt = HybridSuRF(KEYS[:500], real_bits=4, min_merge_size=32)
        for k in KEYS[500:1200]:
            filt.insert(k)
        assert filt.merge_count >= 1
        for k in KEYS[:1200]:
            assert filt.lookup(k), k

    def test_range_spans_stages(self):
        filt = HybridSuRF(KEYS[:1000], real_bits=4, min_merge_size=1 << 30)
        filt.insert(KEYS[1500])  # stays in the dynamic stage
        assert filt.lookup_range(KEYS[1500], KEYS[1500] + b"\x00\x01")
        assert filt.lookup_range(KEYS[10], KEYS[12])

    def test_delete_dynamic_and_static(self):
        filt = HybridSuRF(KEYS[:100], real_bits=4, min_merge_size=1 << 30)
        filt.insert(KEYS[500])
        assert filt.delete(KEYS[500])  # dynamic-stage delete
        assert not filt.lookup(KEYS[500])
        assert filt.delete(KEYS[5])  # static-stage tombstone
        assert not filt.lookup(KEYS[5])

    def test_insert_of_a_static_key_changes_nothing(self):
        filt = HybridSuRF([b"%05d" % i for i in range(0, 1000, 2)])
        assert filt.insert(b"00006") is False
        assert len(filt) == 500
        # The key deletes as if the insert had never happened: the
        # §4.5 tombstone, once.
        assert filt.delete(b"00006") is True
        assert filt.lookup(b"00006") is False
        assert len(filt) == 499
        assert filt.delete(b"00006") is False

    def test_deleted_static_key_stays_dead_after_merge(self):
        filt = HybridSuRF(KEYS[:100], real_bits=4, min_merge_size=1 << 30)
        filt.delete(KEYS[5])
        filt.insert(KEYS[500])
        filt.merge()
        assert not filt.lookup(KEYS[5])
        assert filt.lookup(KEYS[500])

    def test_memory_excludes_storage_keys(self):
        filt = HybridSuRF(KEYS, real_bits=4)
        raw = sum(len(k) for k in KEYS)
        assert filt.memory_bytes() < raw  # filter, not a key store

    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 120)),
            min_size=5,
            max_size=80,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_one_sided_error_property(self, ops):
        from repro.workloads import encode_u64

        filt = HybridSuRF(min_merge_size=16, real_bits=4)
        live: set[bytes] = set()
        for op, raw in ops:
            key = encode_u64(raw)
            if op == "insert":
                filt.insert(key)
                live.add(key)
            elif key in live:
                filt.delete(key)
                live.discard(key)
        for key in live:
            assert filt.lookup(key)  # never a false negative for live keys


class TestMergeCold:
    def _loaded(self, strategy):
        index = hybrid_btree(merge_strategy=strategy, min_merge_size=64)
        keys = KEYS[:800]
        hot = keys[:20]
        for i, k in enumerate(keys):
            index.insert(k, i)
            for h in hot:  # heat up the hot set continuously
                index.get(h)
        return index, hot

    def test_cold_keeps_hot_keys_dynamic(self):
        index, hot = self._loaded("cold")
        index.get(hot[0])
        index.get(hot[0])
        index.merge()
        # The hot keys read since the last merge stay in the dynamic stage.
        dynamic_keys = {k for k, _ in index.dynamic.items()}
        assert dynamic_keys, "merge-cold retained nothing"
        assert dynamic_keys <= set(hot) | set()

    def test_all_strategy_empties_dynamic(self):
        index, _ = self._loaded("all")
        index.merge()
        assert len(index.dynamic) == 0

    def test_correctness_equal_between_strategies(self):
        for strategy in ("all", "cold"):
            index = hybrid_btree(merge_strategy=strategy, min_merge_size=32)
            for i, k in enumerate(KEYS[:500]):
                index.insert(k, i)
                index.get(KEYS[i // 2])
            for i, k in enumerate(KEYS[:500]):
                assert index.get(k) == i, strategy
            assert [k for k, _ in index.items()] == KEYS[:500]

    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            hybrid_btree(merge_strategy="lukewarm")


class TestHarnessUtilities:
    def test_scaled_and_factor(self, monkeypatch):
        from repro.bench import harness

        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert harness.scaled(100) == 100
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert harness.scaled(100) == 1000
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(KeyError):
            harness.scale_factor()

    def test_measure_ops(self):
        from repro.bench.harness import measure_ops

        m = measure_ops(lambda: sum(range(1000)), 1000, repeats=2)
        assert m.ops_per_sec > 0
        assert m.n_ops == 1000

    def test_format_table_alignment(self):
        from repro.bench.harness import format_table

        text = format_table("T", ["a", "bb"], [[1, 22.5], ["xyz", 3]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title, rule, header, two rows

    def test_equi_cost(self):
        from repro.bench.harness import equi_cost

        assert equi_cost(1000.0, 500) == pytest.approx(0.5)

    def test_counters_lifecycle(self):
        from repro.bench.counters import COUNTERS

        COUNTERS.start()
        COUNTERS.node_visit(512)
        COUNTERS.node_visit(64, lines_touched=1)
        COUNTERS.key_compares(3)
        profile = COUNTERS.stop()
        assert profile.node_visits == 2
        assert profile.cache_lines == 8 + 1
        assert profile.compares == 3
        # Disabled counters are no-ops.
        COUNTERS.node_visit(512)
        assert COUNTERS.profile.node_visits == profile.node_visits

    def test_profile_merge(self):
        from repro.bench.counters import AccessProfile

        merged = AccessProfile(1, 2, 3, 4).merged(AccessProfile(10, 20, 30, 40))
        assert (merged.node_visits, merged.compares) == (11, 44)
