"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the seed-commit reference matches the program, that an altered
reference digest is counted as a failure, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from workloads import Checker

TINY = 3


def _result(metrics: dict, section: str, checker: Checker) -> dict:
    units = run.load_units(section)
    result = json.loads(run.result_line(metrics, units, checker))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name, unit in units.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
    return result


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_metrics_are_named_with_units(name):
    checker = Checker(workloads.load_reference())
    metrics = run.end_to_end(name, 7, 0.2, checker, {}, limit=TINY)
    result = _result(metrics, "end_to_end", checker)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_are_named_and_counts_repeat():
    runs = []
    for _ in range(2):
        checker = Checker(workloads.load_reference())
        metrics = run.per_layer(7, checker, {}, limit=TINY)
        assert _result(metrics, "per_layer", checker)["correct"]
        runs.append(metrics)
    counts = [n for n in runs[0] if n.endswith((".calls", ".calls_per_tableau", "_yield"))]
    assert counts
    for name in counts:
        assert runs[0][name] == runs[1][name], name
    assert runs[0]["stat.ktableaux.standard_sequences.calls_per_tableau"] == 5.0


def test_altered_reference_digest_counts_as_failure():
    reference = workloads.load_reference()
    for key in [k for k in reference if k.startswith("stat ")]:
        digest, tableaux = reference[key]
        reference[key] = ["0" * len(digest), tableaux]
    checker = Checker(reference)
    metrics = run.end_to_end("stat", 7, 0.2, checker, {}, limit=TINY)
    result = _result(metrics, "end_to_end", checker)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
