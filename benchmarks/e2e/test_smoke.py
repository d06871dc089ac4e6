"""Smoke test of the ledger benchmark: schema and correctness, no bounds.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload — the gated ones of ``BENCHMARK.json`` and the
ungated ``repl_a`` — at 1/20 length and size and checks that each name
in ``BENCHMARK.json`` is printed, well-formed and numeric, and that an
injected wrong expectation makes the command fail.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, os.pardir, os.pardir))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
GATED = [w["name"] for w in SPEC["workloads"]]
WORKLOADS = GATED + ["repl_a"]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_are_well_formed_and_unique():
    names = [e["name"] for e in SPEC["end_to_end"] + SPEC["per_layer"]] + GATED
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in {e["name"] for e in SPEC["end_to_end"]}
    assert SPEC["paths"] == ["benchmarks/e2e"]


def check_metrics(result: dict, entries: list[dict]) -> None:
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {e["name"] for e in entries}
    for entry in entries:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    proc = run("--workload", workload, "--smoke", "--seed", "5", "--trace", "0")
    check_metrics(result_line(proc), SPEC["end_to_end"])
    for entry in SPEC["end_to_end"]:
        assert entry["name"] in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer(workload):
    proc = run("--workload", workload, "--smoke", "--seed", "5", "--trace", "1")
    check_metrics(result_line(proc), SPEC["per_layer"])
    assert "traced ledger" in proc.stdout and "unattributed" in proc.stdout


def test_smoke_all_workloads_in_one_command():
    summary = result_line(run("--smoke"))
    assert summary["correct"] is True
    assert set(summary["workloads"]) == set(WORKLOADS)


@pytest.mark.parametrize("workload", ["lib_read", "wire_a"])
def test_self_test_makes_the_command_fail(workload):
    proc = run("--workload", workload, "--smoke", "--self-test")
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
