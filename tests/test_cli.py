import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from kcharge import cli

EX42_TEXT = "k=4\n8_2\n5_3 7_4\n4_4 6_0\n1_0 2_1 3_2 5_3 7_4 9_0\n"
EX52_TEXT = (
    "k=4\n"
    "7_0\n"
    "6_1\n"
    "5_2 6_3\n"
    "3_3 4_4 7_0\n"
    "2_4 3_0 5_1 5_2 6_3\n"
    "1_0 1_1 2_2 3_3 4_4 4_0 5_1 5_2 6_3\n"
)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, stdin=None, env=None):
    # The child imports kcharge from this checkout's src/, also under a
    # bare `pytest` that sets no PYTHONPATH.
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "kcharge", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
        timeout=120,
    )


def test_enumerate_weight_321():
    result = run_cli("enumerate", "--k", "3", "--weight", "3,2,1")
    assert result.returncode == 0
    assert "count: 2" in result.stdout


def test_enumerate_standard_weight():
    result = run_cli("enumerate", "--k", "2", "--weight", "1,1,1,1")
    assert result.returncode == 0
    assert "count: 4" in result.stdout


def test_enumerate_single():
    result = run_cli("enumerate", "--k", "5", "--weight", "1")
    assert result.returncode == 0
    assert "count: 1" in result.stdout
    assert "1_0" in result.stdout


def test_enumerate_json_matches_text_count():
    text = run_cli("enumerate", "--k", "2", "--weight", "2,1")
    blob = run_cli("enumerate", "--k", "2", "--weight", "2,1", "--format", "json")
    payload = json.loads(blob.stdout)
    assert f"count: {payload['count']}" in text.stdout
    assert len(payload["tableaux"]) == payload["count"]


def test_enumerate_oracle_strategy_is_identical():
    fast = run_cli("enumerate", "--k", "3", "--weight", "2,2,1")
    oracle = run_cli("enumerate", "--k", "3", "--weight", "2,2,1", "--strategy", "oracle")
    assert fast.stdout == oracle.stdout


def test_enumerate_rejects_oversized_weight_part():
    result = run_cli("enumerate", "--k", "2", "--weight", "3,1")
    assert result.returncode == 2
    assert "error" in result.stderr


def test_enumerate_rejects_malformed_weight():
    result = run_cli("enumerate", "--k", "2", "--weight", "a,b")
    assert result.returncode == 2


def test_stat_standard_tableau(tmp_path):
    path = tmp_path / "tab.txt"
    path.write_text(EX42_TEXT)
    result = run_cli("stat", str(path))
    assert result.returncode == 0
    assert "k-cocharge: lp=13 morse=13" in result.stdout
    assert "k-charge: lp=21 morse=21" in result.stdout


def test_stat_semistandard_tableau_from_stdin():
    result = run_cli("stat", "-", stdin=EX52_TEXT)
    assert result.returncode == 0
    assert "k-charge: lp=12 morse=12" in result.stdout
    assert "k-cocharge: lp=16 morse=16" in result.stdout
    assert "36 - 8" in result.stdout


def test_stat_json_matches_text_numbers(tmp_path):
    path = tmp_path / "tab.txt"
    path.write_text(EX42_TEXT)
    as_json = json.loads(run_cli("stat", str(path), "--format", "json").stdout)
    assert as_json["k_charge"] == {"lp": 21, "morse": 21}
    assert as_json["k_cocharge"] == {"lp": 13, "morse": 13}
    assert as_json["sequences"][0]["L"] == [0, 0, 0, 1, 1, 2, 2, 4, 3]
    assert as_json["sequences"][0]["J"] == [0, 1, 2, 2, 2, 3, 3, 3, 4]
    text = run_cli("stat", str(path)).stdout
    for value in ("13", "21", "36", "2"):
        assert value in text


def test_stat_weight_one():
    result = run_cli("stat", "-", stdin="k=3\n1_0\n")
    assert result.returncode == 0
    assert "k-charge: lp=0 morse=0" in result.stdout


def test_stat_accepts_json_input():
    blob = json.dumps({"k": 4, "shape": [6, 2, 2, 1], "rows": [[1, 2, 3, 5, 7, 9], [4, 6], [5, 7], [8]]})
    result = run_cli("stat", "-", stdin=blob)
    assert result.returncode == 0
    assert "k-charge: lp=21 morse=21" in result.stdout


def test_stat_parse_failure_exits_2():
    result = run_cli("stat", "-", stdin="no header\n1 2\n")
    assert result.returncode == 2
    assert "error" in result.stderr


@pytest.mark.parametrize(
    "blob", ['{"k": 3.7, "rows": [[1.9, 2]]}', '{"k": true, "rows": [[1]]}']
)
def test_stat_rejects_non_integer_json_fields(blob):
    result = run_cli("stat", "-", stdin=blob)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert result.stdout == ""


@pytest.mark.filterwarnings("error::ResourceWarning")
def test_stat_closes_its_input_file(tmp_path, capsys):
    path = tmp_path / "tab.json"
    path.write_text(json.dumps({"k": 3, "rows": [[1]]}))
    # A leaked handle warns from its finalizer, where an "error" filter's
    # exception would be swallowed, so the warnings are recorded instead.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert cli.main(["stat", str(path)]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert "k-charge: lp=0 morse=0" in capsys.readouterr().out


def test_stat_invalid_tableau_exits_3():
    # (3,1) has a hook-4 cell, so it is not a 4-core
    result = run_cli("stat", "-", stdin="k=3\n2\n1 1 2\n")
    assert result.returncode == 3
    assert "invalid tableau" in result.stderr


def test_table_weight_321():
    result = run_cli("table", "--k", "3", "--weight", "3,2,1")
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["(5,2,1): 1", "(6,3): t"]


def test_table_classical_shape_filter():
    result = run_cli("table", "--classical", "--weight", "1,1,1", "--shape", "2,1")
    assert result.returncode == 0
    assert result.stdout.strip() == "(2,1): t + t^2"


def test_table_large_k_equals_classical():
    affine = run_cli("table", "--k", "9", "--weight", "2,1")
    classical = run_cli("table", "--classical", "--weight", "2,1")
    assert affine.stdout == classical.stdout
    assert affine.returncode == classical.returncode == 0


def test_table_requires_k_or_classical():
    result = run_cli("table", "--weight", "2,1")
    assert result.returncode == 2


def test_table_json():
    result = run_cli("table", "--k", "3", "--weight", "3,2,1", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["table"] == {"(5,2,1)": {"0": 1}, "(6,3)": {"1": 1}}


def test_verify_small_bounds_pass():
    result = run_cli("verify", "--max-k", "2", "--max-weight", "4")
    assert result.returncode == 0
    assert "result: PASS" in result.stdout
    assert "tableaux checked: 18" in result.stdout


def test_verify_empty_bounds_vacuous_pass():
    result = run_cli("verify", "--max-k", "3", "--max-weight", "0")
    assert result.returncode == 0
    assert "tableaux checked: 0" in result.stdout


def test_verify_json_and_threads_env():
    env = dict(os.environ)
    env["KCHARGE_THREADS"] = "2"
    threaded = run_cli("verify", "--max-k", "2", "--max-weight", "4", "--format", "json", env=env)
    plain = run_cli("verify", "--max-k", "2", "--max-weight", "4", "--format", "json")
    assert threaded.returncode == plain.returncode == 0
    assert threaded.stdout == plain.stdout
    payload = json.loads(plain.stdout)
    assert payload["pass"] is True


def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "out.txt"
    result = run_cli("table", "--k", "3", "--weight", "3,2,1", "--output", str(out))
    assert result.returncode == 0
    assert result.stdout == ""
    assert out.read_text().splitlines() == ["(5,2,1): 1", "(6,3): t"]


@pytest.mark.parametrize(
    "args",
    [
        ("enumerate", "--k", "3", "--weight", "2,2,1"),
        ("table", "--k", "4", "--weight", "2,2"),
        ("stat", "-"),
    ],
)
def test_byte_identical_reruns(args):
    stdin = EX42_TEXT if args[0] == "stat" else None
    first = run_cli(*args, stdin=stdin)
    second = run_cli(*args, stdin=stdin)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode
