"""Tests for the `python -m repro` command-line interface."""

import pytest

from repro.__main__ import EXPERIMENTS, main


class TestCli:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "FST" in out and "SuRF" in out and "HOPE" in out

    def test_experiments_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPERIMENTS:
            assert exp_id in out

    def test_unknown_bench_rejected(self, capsys):
        assert main(["bench", "fig99"]) == 2

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "demo" in capsys.readouterr().out

    def test_every_experiment_file_exists(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1] / "benchmarks"
        for filename in EXPERIMENTS.values():
            assert (root / filename).exists(), filename


class TestLazyCore:
    def test_serving_imports_no_thesis_structures(self):
        """``repro.core`` (HOPE, the hybrid and compact indexes) loads on
        first use: starting a server imports none of it."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys, repro.server; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('repro.core', 'repro.hope', 'repro.dbms', 'repro.hybrid'))))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env).stdout
        assert out.strip() == "[]"

    def test_core_still_reachable(self):
        import repro
        from repro.core import FST, surf_real

        assert repro.core.FST is FST and repro.core.surf_real is surf_real
        with pytest.raises(AttributeError):
            repro.not_a_module
