"""The differential fuzz harness testing itself.

Three things must hold or the harness is worthless: (1) every structure
passes a clean run, (2) an injected bug is *caught* and shrunk to a
small repro, (3) runs are deterministic enough to replay from a seed.
"""

import json

import pytest

from repro.fst import FST
from repro.fst import fst as fst_module
from repro.testing import (
    FilterOracle,
    Op,
    SortedOracle,
    all_structures,
    fuzz_structure,
    generate_ops,
    make_adapter,
    ops_from_json,
    ops_to_json,
    run_sequence,
    shrink,
)
from repro.testing.__main__ import main
from repro.testing.adapters import COUNT_CLAMP, SKIPPED
from repro.workloads import random_u64_keys

REPRESENTATIVE = [
    "btree",
    "art",
    "compact_btree",
    "compressed_btree",
    "fst",
    "surf_base",
    "bloom",
    "hybrid_btree",
    "hope_btree",
]


class TestCleanRuns:
    @pytest.mark.parametrize("name", REPRESENTATIVE)
    def test_structure_matches_oracle(self, name):
        ops = generate_ops(seed=11, n_ops=700, keyspace="mixed")
        result = fuzz_structure(name, ops, lambda: make_adapter(name))
        assert result.ok, result.failure.describe()
        assert result.applied > 0

    def test_registry_covers_every_family(self):
        names = set(all_structures())
        assert len(names) >= 12  # the ISSUE floor
        for family in ("btree", "compact_", "surf_", "hybrid_", "hope_", "bloom"):
            assert any(family in n for n in names), f"no {family} structure"

    @pytest.mark.parametrize("keyspace", ["int64", "email", "url"])
    def test_keyspaces_run_clean(self, keyspace):
        ops = generate_ops(seed=12, n_ops=400, keyspace=keyspace)
        for name in ("skiplist", "compact_art", "surf_real"):
            result = fuzz_structure(name, ops, lambda: make_adapter(name))
            assert result.ok, f"{name}/{keyspace}: {result.failure.describe()}"


class TestSerializeOp:
    def test_fst_reads_run_on_the_loaded_trie(self):
        keys = sorted(random_u64_keys(400, seed=48))
        oracle = SortedOracle()
        oracle.put_many((k, i) for i, k in enumerate(keys))
        adapter = make_adapter("fst")
        adapter.apply(Op("put_many", keys=tuple(keys), values=tuple(range(len(keys)))))
        adapter.apply(Op("merge"))
        built = adapter.index
        assert adapter.apply(Op("serialize")) is None
        loaded = adapter.index
        assert isinstance(loaded, FST) and loaded is not built
        assert loaded.to_bytes() == built.to_bytes()
        for key in keys[::37] + [b"\x00absent", keys[5] + b"\x00"]:
            assert adapter.apply(Op("get", key=key)) == oracle.get(key)
        for low in (b"", keys[17], keys[200] + b"\x00", b"\xff" * 9):
            assert adapter.apply(Op("scan", key=low, count=9)) == oracle.scan(low, 9)
        for low, high in ((keys[10], keys[300]), (b"", b"\xff" * 9), (keys[50], keys[50])):
            expected = min(oracle.range_count(low, high), COUNT_CLAMP)
            assert adapter.apply(Op("count", key=low, high=high)) == expected
        assert adapter.index is loaded  # no rebuild behind the reads

    @pytest.mark.parametrize("name", ["surf_base", "surf_hash", "surf_real", "surf_mixed", "bloom"])
    def test_filters_answer_from_the_loaded_blob(self, name):
        keys = sorted(random_u64_keys(300, seed=49))
        adapter = make_adapter(name)
        adapter.apply(Op("put_many", keys=tuple(keys), values=tuple(range(len(keys)))))
        adapter.apply(Op("merge"))
        built = adapter.filter
        probes = keys[::7] + [b"\x00absent", keys[5] + b"\x00", b"\xff" * 9]
        expected = [bool(built.may_contain(key)) for key in probes]
        assert adapter.apply(Op("serialize")) is None
        loaded = adapter.filter
        assert type(loaded) is type(built) and loaded is not built
        assert loaded.to_bytes() == built.to_bytes()
        assert [adapter.apply(Op("get", key=key)) for key in probes] == expected
        assert all(adapter.apply(Op("contains", key=key)) for key in keys)
        assert adapter.filter is loaded  # no rebuild behind the reads

    # Every in-memory structure except the FST and the filters above.
    @pytest.mark.parametrize("name", [
        "btree", "skiplist", "art", "masstree", "prefix_btree", "hot", "ttree", "gapped",
        "compact_btree", "compact_skiplist", "compact_art", "compact_masstree",
        "compressed_btree", "hybrid_btree", "hybrid_skiplist", "hybrid_art",
        "hybrid_masstree", "hybrid_compressed_btree", "hybrid_gapped",
        "hope_btree", "hope_art",
    ])
    def test_trees_without_a_wire_format_skip_it(self, name):
        adapter = make_adapter(name)
        adapter.apply(Op("insert", key=b"k", value=1))
        assert adapter.apply(Op("serialize")) is SKIPPED
        assert adapter.apply(Op("get", key=b"k")) == 1

    def test_prefix_bloom_has_no_wire_format(self):
        adapter = make_adapter("prefix_bloom")
        adapter.apply(Op("insert", key=b"abcdef", value=1))
        assert adapter.apply(Op("serialize")) is SKIPPED
        assert adapter.apply(Op("get", key=b"abcdef")) is True


class TestSabotage:
    """Break a kernel, expect a small shrunk repro — the acceptance
    criterion of the harness."""

    def test_broken_rank_kernel_is_caught_and_shrunk(self, monkeypatch):
        """The rank function seek, count_range and leaf_rank call (the
        point walk inlines its own rank)."""
        original = fst_module.rank1

        def corrupted(*args):
            n = original(*args)
            return n + 1 if args[-1] >= 192 else n

        monkeypatch.setattr(fst_module, "rank1", corrupted)
        ops = generate_ops(seed=0, n_ops=1500, keyspace="mixed")
        result = fuzz_structure("fst", ops, lambda: make_adapter("fst"))
        assert not result.ok, "corrupted rank kernel went undetected"
        assert result.shrunk_ops is not None
        assert 1 <= len(result.shrunk_ops) <= 20
        # The shrunk sequence still reproduces under a fresh adapter.
        failure, _stats = run_sequence(make_adapter("fst"), result.shrunk_ops)
        assert failure is not None

    def test_shrinker_reaches_known_minimum(self):
        """A structure answering wrongly for exactly one poisoned key
        must shrink to the single op that exposes it."""
        from repro.testing.adapters import DynamicAdapter
        from repro.trees import BPlusTree

        poison = b"\x00\x00\x00\x00\x00\x00\x00\x2a"

        class PoisonedBTree(BPlusTree):
            def get(self, key):
                if key == poison:
                    return 999_999
                return super().get(key)

        ops = generate_ops(seed=3, n_ops=300, keyspace="int64", universe_size=64)
        from repro.testing.ops import Op

        ops = list(ops) + [Op("get", key=poison)]
        factory = lambda: DynamicAdapter("poisoned", PoisonedBTree)
        failure, _ = run_sequence(factory(), ops)
        assert failure is not None
        shrunk = shrink(factory, ops)
        assert len(shrunk) == 1
        assert shrunk[0].op == "get" and shrunk[0].key == poison


class TestDeterminism:
    def test_same_seed_same_ops(self):
        a = generate_ops(seed=99, n_ops=500, keyspace="email")
        b = generate_ops(seed=99, n_ops=500, keyspace="email")
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_ops(seed=1, n_ops=200, keyspace="int64")
        b = generate_ops(seed=2, n_ops=200, keyspace="int64")
        assert a != b

    def test_ops_json_roundtrip(self):
        ops = generate_ops(seed=5, n_ops=150, keyspace="url")
        text = ops_to_json(ops, structure="btree", seed=5)
        restored, meta = ops_from_json(text)
        assert restored == ops
        assert meta["structure"] == "btree"
        json.loads(text)  # stays plain JSON


class TestOracles:
    def test_sorted_oracle_basics(self):
        o = SortedOracle()
        assert o.insert(b"b", 1) and not o.insert(b"b", 2)
        assert o.insert(b"a", 0)
        assert o.get(b"b") == 1
        assert list(o.scan(b"a", 2)) == [(b"a", 0), (b"b", 1)]
        assert o.range_count(b"a", b"b") == 1
        assert o.delete(b"a") and not o.delete(b"a")

    def test_filter_oracle_one_sided(self):
        f = FilterOracle(SortedOracle())
        f.oracle.insert(b"k", 1)
        assert f.check_point(b"k", True) == "ok"
        assert f.check_point(b"k", False) == "false_negative"
        assert f.check_point(b"absent", True) == "fp"
        assert f.check_point(b"absent", False) == "ok"
        assert f.check_count(b"a", b"z", 0) == "false_negative"
        assert f.check_count(b"a", b"z", 1) == "ok"
        assert f.check_count(b"a", b"z", 3) == "fp"  # within slack, counted
        assert f.check_count(b"a", b"z", 9) == "over_count"


class TestCli:
    def test_fuzz_cli_smoke(self, tmp_path, capsys):
        rc = main(
            [
                "fuzz",
                "--seed",
                "7",
                "--ops",
                "250",
                "--structures",
                "btree,surf_base",
                "--out-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out

    def test_list_cli(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "btree" in out and "surf_base" in out

    def test_failing_run_writes_repro(self, tmp_path, capsys, monkeypatch):
        original = fst_module.rank1
        monkeypatch.setattr(
            fst_module,
            "rank1",
            lambda *args: original(*args) + (1 if args[-1] >= 192 else 0),
        )
        rc = main(
            [
                "fuzz",
                "--seed",
                "0",
                "--ops",
                "1200",
                "--structures",
                "fst",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 1
        repros = list(tmp_path.glob("repro-*.json"))
        assert repros, "no repro script written on failure"
        ops, meta = ops_from_json(repros[0].read_text())
        assert meta["structure"] == "fst"
        assert len(ops) <= 20
