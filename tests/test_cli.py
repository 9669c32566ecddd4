import gc
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from kcharge import cli
from kcharge.ktableaux import (
    _enumerate_oracle,
    enumerate_k_tableaux,
    parse_json,
    parse_text,
    to_json,
    to_text,
)
from kcharge.sweeps import SweepFailure, SweepReport

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


def run_python(*args, stdin=None, env=None):
    # The child imports kcharge from this checkout's src/, also under a
    # bare `pytest` that sets no PYTHONPATH.
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
        timeout=120,
    )


def run_cli(*args, stdin=None, env=None):
    return run_python("-m", "kcharge", *args, stdin=stdin, env=env)


def test_cli_import_leaves_multiprocessing_unloaded():
    # Only a parallel verify sweep needs multiprocessing, so only it imports
    # it; nothing in kcharge logs, so nothing imports logging.
    proc = run_python(
        "-c",
        "import sys, kcharge.cli; print([m in sys.modules for m in ('multiprocessing', 'logging')])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False]\n"


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


def test_enumerate_lists_the_oracle_tableaux(capsys):
    assert cli.main(["enumerate", "--k", "3", "--weight", "2,2,1"]) == 0
    *blocks, count = capsys.readouterr().out.split("\n\n")
    listed = [parse_text(block) for block in blocks]
    oracle = _enumerate_oracle(3, (2, 2, 1))
    assert len(set(listed)) == len(listed) == len(oracle)
    assert set(listed) == set(oracle)
    assert count == f"count: {len(oracle)}\n"


def test_enumerate_has_no_strategy_option(capsys):
    argv = ["enumerate", "--k", "3", "--weight", "2,2,1", "--strategy", "oracle"]
    assert _exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --strategy oracle" in err


def test_enumerate_rejects_oversized_weight_part():
    result = run_cli("enumerate", "--k", "2", "--weight", "3,1")
    assert result.returncode == 2
    assert "error" in result.stderr


def test_enumerate_rejects_malformed_weight():
    result = run_cli("enumerate", "--k", "2", "--weight", "a,b")
    assert result.returncode == 2


def test_unwritable_output_exits_2(tmp_path):
    target = tmp_path / "missing" / "x"
    result = run_cli("enumerate", "--k", "2", "--weight", "1", "--output", str(target))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


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


def test_stat_order_columns_fit_two_digit_residues(tmp_path, capsys):
    # At k=10 an order holding residue 10 is 42 characters, one more than
    # 4k+1; both order columns are as wide as the longest order shown.
    path = tmp_path / "tab.txt"
    path.write_text("k=10\n1_0 2_1\n")
    assert cli.main(["stat", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == (
        f"    i res |  dL   L {'low order':>42}   M  dM |  dI   I {'high order':>42}   J  dJ"
    )
    assert lines[4] == (
        "    2   1 |   0   0 2 > 3 > 4 > 5 > 6 > 7 > 8 > 9 > 10 > 0 > 1   0   0 |"
        "   0   1 10 > 9 > 8 > 7 > 6 > 5 > 4 > 3 > 2 > 1 > 0   1   0"
    )


def test_stat_text_of_one_cell_does_not_grow_with_k(tmp_path, capsys):
    # No order is shown, so the order columns are as wide as their header.
    path = tmp_path / "tab.txt"
    path.write_text("k=400000\n1_0\n")
    assert cli.main(["stat", str(path)]) == 0
    out = capsys.readouterr().out
    assert "k-charge: lp=0 morse=0" in out
    assert len(out.encode()) < 1024


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


@pytest.mark.parametrize(
    "stdin", ["k=3\n1 1000000000\n", '{"k": 3, "rows": [[1, 1000000000]]}']
)
def test_stat_huge_letter_exits_3_at_once(stdin):
    result = run_cli("stat", "-", stdin=stdin)
    assert result.returncode == 3
    assert result.stderr == "invalid tableau: letter 2 is missing\n"
    assert result.stdout == ""


@pytest.mark.parametrize("stdin", ["k=3\n1_0 2_1 2_2\n", '{"k": 3, "rows": [[1, 2, 2]]}'])
def test_stat_composition_weight_exits_3(stdin):
    # `enumerate --k 3 --weight 1,2` prints this valid k-tableau, but its
    # statistics need a partition weight: invalid data, not a usage error.
    result = run_cli("stat", "-", stdin=stdin)
    assert result.returncode == 3
    assert result.stderr == "invalid tableau: weight (1, 2) is not a partition\n"
    assert result.stdout == ""


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
    # Neither option, then both: --classical must not silently drop --k.
    for options in ((), ("--k", "2", "--classical")):
        result = run_cli("table", *options, "--weight", "2,1")
        assert result.returncode == 2
        assert result.stderr == "error: table needs exactly one of --k and --classical\n"
        assert result.stdout == ""


def test_table_takes_formulation_only_with_k():
    # The classical table has one charge: --formulation must not be ignored.
    for formulation in ("lp", "morse"):
        result = run_cli("table", "--classical", "--formulation", formulation, "--weight", "2,1")
        assert result.returncode == 2
        assert result.stderr == "error: table takes --formulation only with --k\n"
        assert result.stdout == ""


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


def test_verify_pins_identity_count(monkeypatch, capsys):
    # A dropped or merged identity check changes the count; 5/7 is the
    # benchmark's verify input.
    monkeypatch.delenv("KCHARGE_THREADS", raising=False)
    pinned = (("4", "6", 307, 7708), ("5", "7", 1211, 33786))
    for max_k, max_weight, tableaux, identities in pinned:
        assert cli.main(["verify", "--max-k", max_k, "--max-weight", max_weight]) == 0
        assert capsys.readouterr().out == (
            f"tableaux checked: {tableaux}\nidentities checked: {identities}\nresult: PASS\n"
        )


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects an option value
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--k", "3", "--weight", "2,1", "--shape", " 2_1"],
        ["table", "--k", "3", "--weight", "2,1", "--shape", "+3"],
        ["enumerate", "--k", "3", "--weight", "2,1 "],
        ["enumerate", "--k", "3", "--weight", "\u0662,1"],
        ["enumerate", "--k", "+3", "--weight", "2,1"],
        ["enumerate", "--k", "3_0", "--weight", "2,1"],
        ["table", "--k", " 3", "--weight", "2,1"],
        ["verify", "--max-k", "\u0662", "--max-weight", "2"],
        ["verify", "--max-k", "2", "--max-weight", "+2"],
        ["stat", "-"],
    ],
)
def test_integers_take_only_ascii_digits(monkeypatch, capsys, argv):
    # int() would read every one of these; stat reads "k=+3" from stdin.
    monkeypatch.setattr(sys, "stdin", io.StringIO("k=+3\n1_0\n"))
    monkeypatch.delenv("KCHARGE_THREADS", raising=False)
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


@pytest.mark.parametrize("value", ["abc", "-3", "0", "2.5", "+2", "1_0"])
def test_verify_rejects_bad_threads_env(monkeypatch, capsys, value):
    monkeypatch.setenv("KCHARGE_THREADS", value)
    assert cli.main(["verify", "--max-k", "2", "--max-weight", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: KCHARGE_THREADS must be a positive integer, got {value!r}\n"


def test_verify_workers_capped_at_cpu_count(monkeypatch, capsys):
    # The recorder stands in for the pool and starts no process.
    import multiprocessing

    started = []
    chunksizes = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=None):
            chunksizes.append(chunksize)
            return list(map(fn, tasks))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setenv("KCHARGE_THREADS", "1000")
    for cpus, expected in ((2, [2]), (1, []), (None, [])):
        started.clear()
        chunksizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert cli.main(["verify", "--max-k", "2", "--max-weight", "4"]) == 0
        assert "result: PASS" in capsys.readouterr().out
        assert started == expected
        # A pool is handed one (k, weight) task at a time.
        assert chunksizes == [1] * len(expected)


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


README_STAT = "k=3\n3_2\n2_3 3_0\n1_0 1_1 2_2 2_3 3_0\n"
README_STAT_TEXT = """\
k=3 shape=(5,2,1) weight=(2,2,2)
sequence 1:
    i res |  dL   L     low order   M  dM |  dI   I    high order   J  dJ
    1   1 |   0   0             -   0   0 |   0   0             -   0   0
    2   3 |   0   0 0 > 1 > 2 > 3   0   0 |   0   0 2 > 1 > 0 > 3   0   0
    3   2 |   1   2 0 > 1 > 2 > 3   1   1 |   0   0 1 > 0 > 3 > 2   0   0
  sums: L=2 M+d=2 I=0 J+d=0
sequence 2:
    i res |  dL   L     low order   M  dM |  dI   I    high order   J  dJ
    1   0 |   0   0             -   0   0 |   0   0             -   0   0
    2   2 |   0   0 3 > 0 > 1 > 2   0   0 |   0   1 3 > 2 > 1 > 0   1   0
    3   0 |   0   0 1 > 2 > 3 > 0   0   0 |   0   1 2 > 1 > 0 > 3   1   0
  sums: L=0 M+d=0 I=2 J+d=2
k-cocharge: lp=2 morse=2
k-charge: lp=2 morse=2
n(weight) - interior = 6 - 2 = 4
"""
README_STAT_JSON = """\
{
  "k": 3,
  "shape": [
    5,
    2,
    1
  ],
  "weight": [
    2,
    2,
    2
  ],
  "n_weight": 6,
  "interior": 2,
  "k_charge": {
    "lp": 2,
    "morse": 2
  },
  "k_cocharge": {
    "lp": 2,
    "morse": 2
  },
  "sequences": [
    {
      "letters": [
        1,
        2,
        3
      ],
      "residues": [
        1,
        3,
        2
      ],
      "L": [
        0,
        0,
        2
      ],
      "M": [
        0,
        0,
        1
      ],
      "I": [
        0,
        0,
        0
      ],
      "J": [
        0,
        0,
        0
      ],
      "diag_prev_low": [
        0,
        0,
        1
      ],
      "diag_prev_high": [
        0,
        0,
        0
      ],
      "diag_add_low": [
        0,
        0,
        1
      ],
      "diag_add_high": [
        0,
        0,
        0
      ],
      "low_orders": [
        null,
        "0 > 1 > 2 > 3",
        "0 > 1 > 2 > 3"
      ],
      "high_orders": [
        null,
        "2 > 1 > 0 > 3",
        "1 > 0 > 3 > 2"
      ]
    },
    {
      "letters": [
        1,
        2,
        3
      ],
      "residues": [
        0,
        2,
        0
      ],
      "L": [
        0,
        0,
        0
      ],
      "M": [
        0,
        0,
        0
      ],
      "I": [
        0,
        1,
        1
      ],
      "J": [
        0,
        1,
        1
      ],
      "diag_prev_low": [
        0,
        0,
        0
      ],
      "diag_prev_high": [
        0,
        0,
        0
      ],
      "diag_add_low": [
        0,
        0,
        0
      ],
      "diag_add_high": [
        0,
        0,
        0
      ],
      "low_orders": [
        null,
        "3 > 0 > 1 > 2",
        "1 > 2 > 3 > 0"
      ],
      "high_orders": [
        null,
        "3 > 2 > 1 > 0",
        "2 > 1 > 0 > 3"
      ]
    }
  ]
}
"""
TABLE_K4_211_JSON = """\
{
  "weight": [
    2,
    1,
    1
  ],
  "classical": false,
  "k": 4,
  "table": {
    "(4)": {
      "3": 1
    },
    "(3,1)": {
      "1": 1,
      "2": 1
    },
    "(2,2)": {
      "1": 1
    },
    "(2,1,1)": {
      "0": 1
    }
  }
}
"""


@pytest.mark.parametrize(
    "argv,stdin,expected",
    [
        (["stat", "-"], README_STAT, README_STAT_TEXT),
        (["stat", "-", "--format", "json"], README_STAT, README_STAT_JSON),
        (["table", "--k", "4", "--weight", "2,1,1", "--format", "json"], "", TABLE_K4_211_JSON),
        (
            ["table", "--classical", "--weight", "2,1,1"],
            "",
            "(4): t^3\n(3,1): t + t^2\n(2,2): t\n(2,1,1): 1\n",
        ),
        (
            ["table", "--k", "3", "--weight", "3,2,1", "--formulation", "lp"],
            "",
            "(5,2,1): 1\n(6,3): t\n",
        ),
    ],
    ids=["stat-readme", "stat-readme-json", "table-json", "table-classical", "table-lp"],
)
def test_golden_stdout(monkeypatch, capsys, argv, stdin, expected):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_stat_malformed_json_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"k": 3, "rows": [[1, 2]'))
    assert cli.main(["stat", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad JSON: ")


def test_stat_json_array_is_not_an_object(monkeypatch, capsys):
    # An array is read as JSON too, not as a text tableau without a header.
    monkeypatch.setattr(sys, "stdin", io.StringIO(" [1]\n"))
    assert cli.main(["stat", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected a JSON object, got list\n"


def test_enumerate_rejects_a_zero_weight_part(capsys):
    assert cli.main(["enumerate", "--k", "3", "--weight", "0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: weight parts must be positive, got '0,1'\n"


@pytest.mark.parametrize(
    "argv,stdin,message",
    [
        (
            ["enumerate", "--k", "3", "--weight", "2,1", "--shape", "1,2"],
            "",
            "shape must be weakly decreasing, got '1,2'",
        ),
        (
            ["table", "--k", "3", "--weight", "2,1", "--shape", "1,2"],
            "",
            "shape must be weakly decreasing, got '1,2'",
        ),
        (
            ["table", "--classical", "--weight", "2,1", "--shape", "1,2"],
            "",
            "shape must be weakly decreasing, got '1,2'",
        ),
        (
            ["stat", "-"],
            '{"k":2,"rows":[[1,1],[]]}',
            "row lengths (bottom row first) must be positive, got (2, 0)",
        ),
        (
            ["stat", "-"],
            "k=2\n2_2 3_0\n1_0\n",
            "row lengths (bottom row first) must be weakly decreasing, got (1, 2)",
        ),
    ],
)
def test_shape_errors_name_what_the_user_wrote(monkeypatch, capsys, argv, stdin, message):
    # The --shape argument is quoted as given, and a tableau's row lengths
    # are named bottom row first, not as internal partition parts.
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_failure_output_lists_ten_counterexamples(monkeypatch, capsys, fmt):
    # The sweep is stubbed: a real failing range would change its output
    # once the formulations are mended.
    failures = [
        SweepFailure(f"identity {i}", f"detail {i}", f"k=3\n{i}_0\n") for i in range(12)
    ]
    monkeypatch.setattr(
        cli,
        "run_statistics_sweep",
        lambda max_k, max_weight, processes: SweepReport(40, 500, list(failures)),
    )
    monkeypatch.delenv("KCHARGE_THREADS", raising=False)
    assert cli.main(["verify", "--max-k", "3", "--max-weight", "4", "--format", fmt]) == 1
    out = capsys.readouterr().out
    if fmt == "json":
        payload = json.loads(out)
        assert payload["tableaux_checked"] == 40
        assert payload["identities_checked"] == 500
        assert payload["pass"] is False
        assert payload["failures"] == [
            {"identity": f.identity, "detail": f.detail, "context": f.context}
            for f in failures[:10]
        ]
        return
    lines = out.splitlines()
    assert lines[:3] == ["tableaux checked: 40", "identities checked: 500", "result: FAIL"]
    assert len([ln for ln in lines if ln.startswith("counterexample [")]) == 10
    expected = []
    for i in range(10):
        expected += [f"counterexample [identity {i}] detail {i}", "k=3", f"{i}_0"]
    assert lines[3:] == expected
    assert out.endswith("\n")


# What the JSON writer must write as `json.dumps` does: huge and negative
# ints, quotes, backslashes, newlines, control and non-ASCII characters,
# and nested dicts, lists and tuples with empty ones at every depth.
json_strings = st.text() | st.sampled_from(
    ['"', "\\", "\n", "\x00\x1f\x7f", "é ø", "\u2028", "😀", 'a"\\b\n\tc']
)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-(2**100), 2**100, 10**40, -1, 0])
    | json_strings
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(json_strings, inner, max_size=5),
    max_leaves=30,
)


@given(json_values)
@example({"": [], "a": {}, "b": [[], {}, [[]]], "c": ({"d": ()},)})
@example(["x\ny", None, True, False, -7, "\"\\"])
def test_json_text_is_json_dumps_indent_2(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_json_text_writes_every_stat_payload_of_a_weight():
    # A weight of the benchmark's kind: long standard sequences, several
    # sequences per tableau.
    tableaux = enumerate_k_tableaux(4, (4, 2, 2, 2, 2, 1, 1))
    assert len(tableaux) == 73
    for tab in tableaux:
        payload = cli._stat_payload(tab)
        assert cli._json_text(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--k", "4", "--weight", "3,2,1,1"],
        ["table", "--k", "4", "--weight", "2,2,1,1"],
        ["table", "--classical", "--weight", "3,2,1"],
        ["verify", "--max-k", "6", "--max-weight", "9"],
    ],
    ids=["enumerate", "table", "table-classical", "verify-fail"],
)
def test_json_output_is_json_dumps_indent_2(monkeypatch, capsys, argv):
    monkeypatch.delenv("KCHARGE_THREADS", raising=False)
    code = cli.main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code == (1 if argv[0] == "verify" else 0)
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    if argv[0] == "verify":
        # Each failure's context is a tableau's text form, newlines and all.
        assert payload["failures"] and all("\n" in f["context"] for f in payload["failures"])


def test_text_and_json_forms_round_trip_on_random_tableaux(monkeypatch, capsys, random_tableaux):
    for _, tab in random_tableaux:
        text, blob = to_text(tab), to_json(tab)
        assert parse_text(text) == tab
        assert parse_json(blob) == tab
        outputs = []
        for stdin in (text, blob):
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            assert cli.main(["stat", "-", "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0] == cli._json_text(json.loads(outputs[0])) + "\n"
