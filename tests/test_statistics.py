import json
import multiprocessing
import os
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import kcharge
from kcharge import cli, cores, ktableaux, statistics, sweeps
from kcharge.cores import Cell, Partition, n_stat, partitions
from kcharge.ktableaux import KTableau, StandardSequence, enumerate_k_tableaux, standard_sequences
from kcharge.statistics import (
    ResidueOrder,
    SequenceReport,
    TPolynomial,
    charge_table,
    k_charge,
    k_cocharge,
    kostka_foulkes_table,
    sequence_reports,
)
from reference import (
    _walk_literal,
    cells_of,
    diag,
    diagonal,
    entry,
    enumerate_cores,
    greater,
    high_order,
    highest_addable,
    highest_occurrence,
    is_n_core,
    k_interior,
    low_order,
    lowest_addable,
    lowest_occurrence,
    residue,
    restrict_leq,
    restrict_sequence,
)

cells = st.builds(Cell, st.integers(1, 40), st.integers(1, 40))


def test_diag_known_values():
    assert diag(Cell(2, 1), Cell(1, 3), 4) == 0
    assert diag(Cell(4, 1), Cell(1, 5), 4) == 1
    assert diag(Cell(3, 3), Cell(3, 3), 4) == 0


@pytest.mark.parametrize("k", [0, -1, -7])
def test_diag_rejects_k_below_one(k):
    # k = 0 would count modulo 1 and k = -1 divide by zero.
    with pytest.raises(ValueError, match=f"k must be positive, got {k}"):
        diag(Cell(1, 1), Cell(1, 4), k)


@given(cells, cells, st.integers(1, 8))
def test_diag_matches_brute_count(c1, c2, k):
    n = k + 1
    lower = min(c1, c2, key=lambda c: (c.row, diagonal(c)))
    lo, hi = sorted((diagonal(c1), diagonal(c2)))
    brute = sum(1 for d in range(lo + 1, hi) if d % n == diagonal(lower) % n)
    assert diag(c1, c2, k) == brute


@given(cells, cells, st.integers(1, 8))
def test_diag_is_symmetric_and_non_negative(c1, c2, k):
    assert diag(c1, c2, k) == diag(c2, c1, k) >= 0


@given(cells, cells, st.integers(1, 8))
def test_diag_row_tie_break_is_immaterial(c1, c2, k):
    # counting either endpoint's residue class over the open interval gives
    # the same answer, so the lower-cell rule never changes the value
    n = k + 1
    lo, hi = sorted((diagonal(c1), diagonal(c2)))
    gap = hi - lo
    assert diag(c1, c2, k) == (max(gap - 1, 0)) // n


def test_addable_cells_of_scattered_sets(tab_semistandard_13):
    seqs = standard_sequences(tab_semistandard_13)
    upto_5_second = restrict_sequence(seqs[1], 5)
    assert lowest_addable(upto_5_second) == Cell(1, 8)
    assert low_order(upto_5_second, 4).pivot == 2
    upto_5_first = restrict_sequence(seqs[0], 5)
    assert low_order(upto_5_first, 4).pivot == 3


def test_addable_cells_of_partition_shapes():
    shape = Partition([4, 1, 1])
    assert lowest_addable(shape.cells()) == Cell(1, 5)
    assert highest_addable(shape.cells()) == Cell(4, 1)
    assert high_order(shape.cells(), 4).pivot == 2
    with pytest.raises(ValueError):
        lowest_addable([Cell(2, 1)])
    with pytest.raises(ValueError):
        highest_addable([])


def test_residue_orders_from_restrictions(tab_standard_9):
    low2 = low_order(restrict_leq(tab_standard_9, 2).shape.cells(), 4)
    assert str(low2) == "2 > 3 > 4 > 0 > 1"
    low9 = low_order(restrict_leq(tab_standard_9, 9).shape.cells(), 4)
    assert str(low9) == "1 > 2 > 3 > 4 > 0"
    high2 = high_order(restrict_leq(tab_standard_9, 2).shape.cells(), 4)
    assert str(high2) == "4 > 3 > 2 > 1 > 0"
    high9 = high_order(restrict_leq(tab_standard_9, 9).shape.cells(), 4)
    assert str(high9) == "1 > 0 > 4 > 3 > 2"


@given(st.integers(2, 9), st.integers(0, 8), st.sampled_from(["low", "high"]))
def test_residue_order_is_total(modulus, pivot, direction):
    order = ResidueOrder(modulus, pivot % modulus, direction)
    ranked = order.descending()
    assert sorted(ranked) == list(range(modulus))
    assert ranked[0] == pivot % modulus
    for a in range(modulus):
        for b in range(modulus):
            assert greater(order, a, b) == (a != b and not greater(order, b, a))


def test_low_order_walks_upward():
    order = ResidueOrder(5, 2, "low")
    assert order.descending() == (2, 3, 4, 0, 1)
    order = ResidueOrder(5, 2, "high")
    assert order.descending() == (2, 1, 0, 4, 3)


def test_descending_is_the_order_by_rank():
    # The rotation against its definition, the residues sorted by rank: a
    # residue's distance from the pivot going up the low order, or down
    # the high order.
    for modulus in range(2, 13):
        for pivot in range(modulus):
            for direction, sign in (("low", 1), ("high", -1)):
                order = ResidueOrder(modulus, pivot, direction)
                ranked = sorted(range(modulus), key=lambda r: sign * (r - pivot) % modulus)
                assert order.descending() == tuple(ranked)


@pytest.mark.parametrize(
    "args,message",
    [
        ((0, 0, "low"), "modulus must be an integer of at least 2, got 0"),
        ((1, 0, "high"), "modulus must be an integer of at least 2, got 1"),
        ((True, 0, "low"), "modulus must be an integer of at least 2, got True"),
        ((5.0, 0, "low"), "modulus must be an integer of at least 2, got 5.0"),
        ((5, 9, "low"), "pivot must be an integer in 0..4, got 9"),
        ((5, 5, "high"), "pivot must be an integer in 0..4, got 5"),
        ((5, -1, "low"), "pivot must be an integer in 0..4, got -1"),
        ((5, "2", "low"), "pivot must be an integer in 0..4, got '2'"),
        ((5, False, "low"), "pivot must be an integer in 0..4, got False"),
        ((5, 2, "sideways"), "direction must be \"low\" or \"high\", got 'sideways'"),
        ((5, 2, None), "direction must be \"low\" or \"high\", got None"),
    ],
)
def test_residue_order_rejects_bad_fields(args, message):
    with pytest.raises(ValueError) as excinfo:
        ResidueOrder(*args)
    assert str(excinfo.value) == message


def test_residue_order_accepts_every_pivot_of_its_modulus():
    for direction in ("low", "high"):
        assert [str(ResidueOrder(2, p, direction)) for p in (0, 1)] == ["0 > 1", "1 > 0"]


def test_index_vectors_standard(tab_standard_9):
    report = sequence_reports(tab_standard_9)[0]
    assert report.L == (0, 0, 0, 1, 1, 2, 2, 4, 3)
    assert report.M == (0, 0, 0, 1, 1, 2, 2, 3, 3)
    assert report.I == (0, 1, 2, 2, 2, 3, 3, 3, 5)
    assert report.J == (0, 1, 2, 2, 2, 3, 3, 3, 4)
    assert report.diag_add_low == (0, 0, 0, 0, 0, 0, 0, 1, 0)
    assert report.diag_add_high == (0, 0, 0, 0, 0, 0, 0, 0, 1)


def test_index_vectors_semistandard(tab_semistandard_13):
    reports = sequence_reports(tab_semistandard_13)
    assert [sum(r.I) for r in reports] == [5, 7]
    assert reports[0].J == (0, 0, 0, 1, 1, 1, 1)
    assert reports[0].diag_add_high == (0, 0, 0, 1, 0, 0, 0)
    assert [sum(r.J) + sum(r.diag_add_high) for r in reports] == [5, 7]
    assert [sum(r.L) for r in reports] == [12, 4]


def test_single_letter_vectors():
    tab = enumerate_k_tableaux(4, (1,))[0]
    report = sequence_reports(tab)[0]
    assert (report.L, report.M, report.I, report.J) == ((0,),) * 4
    # No letter, no step: every column is empty.
    empty = ktableaux.StandardSequence(())
    assert statistics._walk(empty, 4) == SequenceReport(*((),) * 12)


def test_cocharge_both_formulations(tab_standard_9, tab_semistandard_13):
    assert k_cocharge(tab_standard_9, "lp") == 13
    assert k_cocharge(tab_standard_9, "morse") == 13
    assert k_cocharge(tab_semistandard_13, "lp") == 16
    assert k_cocharge(tab_semistandard_13, "morse") == 16


def test_charge_both_formulations(tab_standard_9, tab_semistandard_13):
    assert k_charge(tab_standard_9, "lp") == 21
    assert k_charge(tab_standard_9, "morse") == 21
    assert k_charge(tab_semistandard_13, "lp") == 12
    assert k_charge(tab_semistandard_13, "morse") == 12
    with pytest.raises(ValueError):
        k_charge(tab_standard_9, "other")


def test_readme_quick_start_runs(tab_standard_9, capsys):
    # The README's library example states the golden statistics above on
    # the same standard tableau; it runs as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert namespace["tab"] == tab_standard_9
    assert k_cocharge(namespace["tab"]) == 13 and k_charge(namespace["tab"]) == 21
    sequences = standard_sequences(tab_standard_9)
    assert capsys.readouterr().out == "".join(f"{seq.residues()}\n" for seq in sequences)


def test_weight_one_tableau_has_zero_statistics():
    tab = enumerate_k_tableaux(3, (1,))[0]
    for formulation in ("lp", "morse"):
        assert k_charge(tab, formulation) == 0
        assert k_cocharge(tab, formulation) == 0


def test_duality_on_examples(tab_standard_9, tab_semistandard_13):
    for tab, mu in ((tab_standard_9, (1,) * 9), (tab_semistandard_13, (2, 2, 2, 2, 2, 2, 1))):
        interior = len(k_interior(tab.shape, tab.k))
        assert k_charge(tab) + k_cocharge(tab) == n_stat(Partition(mu)) - interior


@pytest.mark.parametrize("k,max_size", [(1, 5), (2, 5), (3, 5)])
def test_formulations_agree_and_duality_holds(k, max_size):
    for size in range(1, max_size + 1):
        for mu in partitions(size, max_part=k):
            for tab in enumerate_k_tableaux(k, mu):
                charge = k_charge(tab, "morse")
                cocharge = k_cocharge(tab, "morse")
                assert charge == k_charge(tab, "lp")
                assert cocharge == k_cocharge(tab, "lp")
                assert charge >= 0 and cocharge >= 0
                assert charge + cocharge == n_stat(mu) - len(k_interior(tab.shape, k))


def test_standard_formulation_equivalence_to_seven_letters():
    for k in (1, 2, 3, 4):
        for m in range(1, 8):
            for tab in enumerate_k_tableaux(k, (1,) * m):
                report = sequence_reports(tab)[0]
                assert sum(report.L) == sum(report.M) + sum(report.diag_add_low)
                assert sum(report.I) == sum(report.J) + sum(report.diag_add_high)


def test_standard_duality_constant():
    for mu_len in range(1, 7):
        mu = Partition([1] * mu_len)
        for tab in enumerate_k_tableaux(3, mu):
            report = sequence_reports(tab)[0]
            low_side = sum(report.M) + sum(report.diag_add_low)
            high_side = sum(report.J) + sum(report.diag_add_high)
            interior = len(k_interior(tab.shape, 3))
            assert high_side == mu_len * (mu_len - 1) // 2 - interior - low_side


def test_sequence_reports(tab_semistandard_13):
    reports = sequence_reports(tab_semistandard_13)
    assert len(reports) == 2
    assert reports[0].charge_lp() == 5
    assert reports[1].charge_lp() == 7
    assert reports[0].charge_morse() == 5
    assert reports[1].charge_morse() == 7
    assert reports[0].cocharge_lp() == reports[0].cocharge_morse() == 12
    assert reports[1].cocharge_lp() == reports[1].cocharge_morse() == 4
    assert str(ResidueOrder(5, reports[0].high_pivots[1], "high")) == "3 > 2 > 1 > 0 > 4"
    assert reports[0].low_pivots[0] is None


def test_package_exports_resolve():
    # A stale entry would break `from kcharge import *`.
    assert len(set(kcharge.__all__)) == len(kcharge.__all__)
    assert [name for name in kcharge.__all__ if not hasattr(kcharge, name)] == []


# Names that left the library because no command used them.  The oracles
# and the names only they or the tests called are literal references in
# tests/reference.py (the methods there as functions of a tableau, a
# sequence, a cell, a shape or an order); `letter`, `cells`, `residues_of`
# and `reading_word` are read off the tableau's rows, shape and residue
# index; `parse_partition`, `to_json`, `monomial` and `from_json_dict`
# were deleted, as no command reads or builds what they did.
TESTS_ONLY = {
    cores: (
        "hook_length",
        "is_n_core",
        "k_interior",
        "addable_corners",
        "removable_corners",
        "parse_partition",
        "enumerate_cores",
        "k_bounded_hooks",
        "residue",
    ),
    Cell: ("diagonal",),
    Partition: ("contains",),
    ResidueOrder: ("rank", "greater"),
    ktableaux: (
        "_enumerate_oracle",
        "restrict_sequence",
        "lowest_occurrence",
        "highest_occurrence",
        "to_json",
    ),
    statistics: (
        "_walk_literal",
        "diag",
        "lowest_addable",
        "highest_addable",
        "low_order",
        "high_order",
        "enumerate_ssyt",
    ),
    KTableau: ("letter", "cells", "residues_of", "reading_word", "restrict_leq", "cells_of"),
    StandardSequence: ("entry",),
    TPolynomial: ("monomial", "from_json_dict"),
}


def test_tests_only_definitions_are_not_library_names():
    exposed = [
        name
        for owner, names in TESTS_ONLY.items()
        for name in names
        if name in kcharge.__all__ or hasattr(kcharge, name) or hasattr(owner, name)
    ]
    assert exposed == []


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda tab, seq: restrict_leq(tab, 1.5), "letter must be an integer, got 1.5"),
        (lambda tab, seq: restrict_leq(tab, True), "letter must be an integer, got True"),
        (lambda tab, seq: restrict_leq(tab, 2.0), "letter must be an integer, got 2.0"),
        (lambda tab, seq: cells_of(tab, True), "letter must be an integer, got True"),
        (lambda tab, seq: entry(seq, True), "letter must be an integer, got True"),
        (lambda tab, seq: entry(seq, 2.0), "letter must be an integer, got 2.0"),
        (lambda tab, seq: restrict_sequence(seq, True), "letter must be an integer, got True"),
        (
            lambda tab, seq: lowest_occurrence(seq, True),
            "letter must be an integer, got True",
        ),
        (lambda tab, seq: highest_occurrence(seq, True), "letter must be an integer, got True"),
        (lambda tab, seq: diag(Cell(1, 1), Cell(1, 9), 2.5), "k must be an integer, got 2.5"),
        (lambda tab, seq: diag(Cell(1, 1), Cell(1, 9), True), "k must be an integer, got True"),
        (
            lambda tab, seq: enumerate_cores(2.5, 2),
            "core modulus must be an integer, got 2.5",
        ),
        (lambda tab, seq: enumerate_cores(3, 1.5), "bound must be an integer, got 1.5"),
        (lambda tab, seq: list(partitions(2.5)), "n must be an integer, got 2.5"),
        (lambda tab, seq: list(partitions(True)), "n must be an integer, got True"),
        (lambda tab, seq: list(partitions(3, 1.5)), "max_part must be an integer, got 1.5"),
        (
            lambda tab, seq: cores.add_residue_class(Partition([2]), 3.0, 2),
            "residue modulus must be an integer, got 3.0",
        ),
        (
            lambda tab, seq: cores.add_residue_class(Partition([2]), 3, True),
            "residue must be an integer, got True",
        ),
        (lambda tab, seq: low_order([Cell(1, 1)], True), "k must be an integer, got True"),
        (lambda tab, seq: high_order([Cell(1, 1)], True), "k must be an integer, got True"),
        (lambda tab, seq: low_order([Cell(1, 1)], 2.5), "k must be an integer, got 2.5"),
        (lambda tab, seq: high_order([Cell(1, 1)], 0), "k must be positive, got 0"),
    ],
    ids=[
        "restrict_leq-float",
        "restrict_leq-bool",
        "restrict_leq-integral-float",
        "cells_of-bool",
        "entry-bool",
        "entry-integral-float",
        "restrict_sequence-bool",
        "lowest_occurrence-bool",
        "highest_occurrence-bool",
        "diag-float-k",
        "diag-bool-k",
        "enumerate_cores-float-modulus",
        "enumerate_cores-float-bound",
        "partitions-float-n",
        "partitions-bool-n",
        "partitions-float-max_part",
        "add_residue_class-float-modulus",
        "add_residue_class-bool-residue",
        "low_order-bool-k",
        "high_order-bool-k",
        "low_order-float-k",
        "high_order-zero-k",
    ],
)
def test_integer_arguments_are_taken_strictly(tab_standard_9, call, message):
    # Each used to read a bool or a float as the integer it equals, to
    # compute with the float, or to raise TypeError.
    seq = standard_sequences(tab_standard_9)[0]
    with pytest.raises(ValueError) as exc:
        call(tab_standard_9, seq)
    assert str(exc.value) == message


def test_sequence_report_is_an_immutable_hashable_record():
    tab = KTableau(2, [[1, 2]])
    (report,) = sequence_reports(tab)
    (again,) = sequence_reports(KTableau(2, [[1, 2]]))
    assert report == again and hash(report) == hash(again)
    fields = {name: getattr(report, name) for name in SequenceReport._fields}
    assert SequenceReport(**fields) == report
    with pytest.raises(AttributeError):
        report.L = (0, 1)
    with pytest.raises(AttributeError):
        report.extra = 1
    assert repr(report) == (
        "SequenceReport(letters=(1, 2), residues=(0, 1), L=(0, 0), M=(0, 0), "
        "I=(0, 1), J=(0, 1), diag_prev_low=(0, 0), diag_prev_high=(0, 0), "
        "diag_add_low=(0, 0), diag_add_high=(0, 0), "
        "low_pivots=(None, 2), high_pivots=(None, 2))"
    )


def test_charge_table_weight_321():
    table = charge_table(3, (3, 2, 1))
    assert {str(s): str(p) for s, p in table.items()} == {
        "(5,2,1)": "1",
        "(6,3)": "t",
    }


def test_charge_table_single_box():
    table = charge_table(2, (1,))
    assert {str(s): str(p) for s, p in table.items()} == {"(1)": "1"}


def test_charge_table_formulations_match():
    assert charge_table(3, (2, 2, 1)) == charge_table(3, (2, 2, 1), formulation="lp")


def test_large_k_table_equals_classical():
    assert charge_table(9, (2, 1)) == kostka_foulkes_table((2, 1))


def test_tpolynomial_str():
    assert str(TPolynomial()) == "0"
    assert str(TPolynomial({0: 1})) == "1"
    assert str(TPolynomial({1: 1})) == "t"
    assert str(TPolynomial({1: 1, 2: 1})) == "t + t^2"
    assert str(TPolynomial({0: 3, 2: 2})) == "3 + 2*t^2"


def test_tpolynomial_arithmetic():
    p = TPolynomial({2: 1}) + TPolynomial({2: 1}) + TPolynomial({0: 1})
    assert p == TPolynomial({0: 1, 2: 2})
    assert p.coefficient(2) == 2
    assert p.coefficient(5) == 0
    assert TPolynomial({3: 1}) + TPolynomial({3: -1}) == TPolynomial()
    assert not TPolynomial({2: 0})
    with pytest.raises(ValueError):
        TPolynomial({-1: 2})


@pytest.mark.parametrize("other", [3, 0, None, {1: 1}, "t"])
def test_tpolynomial_adds_only_tpolynomials(other):
    p = TPolynomial({1: 1})
    with pytest.raises(TypeError):
        p + other
    with pytest.raises(TypeError):
        other + p


def test_tpolynomial_sum_does_not_revalidate(monkeypatch):
    # Each shape's polynomial is built once from its charge counts, so each
    # (shape, exponent) term costs two checks and the tableaux cost none.
    calls = []
    original = statistics._strict_int

    def counting(value, what):
        calls.append(what)
        return original(value, what)

    monkeypatch.setattr(statistics, "_strict_int", counting)
    table = charge_table(4, (1,) * 8)
    tableaux = sum(c for poly in table.values() for _, c in poly.items())
    assert tableaux == len(enumerate_k_tableaux(4, (1,) * 8)) == 218
    terms = sum(len(poly.items()) for poly in table.values())
    assert len(calls) == 2 * terms == 248


def test_tpolynomial_json_round_trip():
    p = TPolynomial({0: 1, 4: 7})
    assert p.to_json_dict() == {"0": 1, "4": 7}
    data = json.loads(json.dumps(p.to_json_dict()))
    assert TPolynomial({int(e): c for e, c in data.items()}) == p


def test_tpolynomial_rejects_non_integer_terms():
    with pytest.raises(ValueError, match="exponent must be an integer"):
        TPolynomial({"1": 2.9})
    with pytest.raises(ValueError, match="coefficient must be an integer"):
        TPolynomial({1: 2.9})


def test_sequence_reports_equal_literal_definitions():
    cases = [(4, (2, 2, 2, 1, 1))] + [
        (k, mu) for k in range(1, 5) for size in range(1, 8) for mu in partitions(size, max_part=k)
    ]
    checked = 0
    for k, mu in cases:
        for tab in enumerate_k_tableaux(k, mu):
            literal = [_walk_literal(seq, k) for seq in standard_sequences(tab)]
            assert sequence_reports(tab) == literal, tab
            checked += 1
    assert checked > 600


def test_literal_walk_equals_the_step_rule_on_random_tableaux(random_tableaux):
    # Beyond the exhaustive range of the test above: k up to 16 and up to
    # 40 cells.
    checked = 0
    for k, tab in random_tableaux:
        for seq in standard_sequences(tab):
            assert _walk_literal(seq, k) == statistics._walk(seq, k), tab
            checked += 1
    assert checked == 685


def test_no_walk_builds_a_residue_order(monkeypatch, tab_semistandard_13):
    # The record keeps each letter's pivots; only `stat` renders orders.
    built = []
    original = ResidueOrder.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ResidueOrder, "__init__", counting)
    seq = max(standard_sequences(tab_semistandard_13), key=len)
    first = statistics._walk(seq, tab_semistandard_13.k)
    assert statistics._walk(seq, tab_semistandard_13.k) == first
    assert sequence_reports(tab_semistandard_13)
    assert built == []
    assert len(first.low_pivots) == len(seq) > 2
    assert None not in first.low_pivots[1:] + first.high_pivots[1:]


def test_stat_builds_only_the_residue_orders_it_shows(monkeypatch, tmp_path, capsys):
    built = []
    original = ResidueOrder.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ResidueOrder, "__init__", counting)
    cli._kept_order_text.cache_clear()
    # One letter shows no order, whatever the modulus.
    path = tmp_path / "one_cell.txt"
    path.write_text("k=400000\n1_0\n")
    assert cli.main(["stat", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["sequences"][0]["low_orders"] == [None]
    assert built == []
    # Letter 2 shows one low and one high order.
    path.write_text("k=2\n1_0 2_1\n")
    assert cli.main(["stat", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2 > 0 > 1" in out and "2 > 1 > 0" in out
    assert built == [(3, 2, "low"), (3, 2, "high")]
    # Orders repeat within and across sequences and reports; each distinct
    # one shown is built once per process.
    tab = ktableaux.parse_text("k=3\n3_2\n2_3 3_0\n1_0 1_1 2_2 2_3 3_0\n")
    del built[:]
    payload = cli._stat_payload(tab)
    made = list(built)
    shown = {
        (direction, order)
        for seq in payload["sequences"]
        for direction in ("low", "high")
        for order in seq[f"{direction}_orders"]
        if order
    }
    # Every letter but 1 shows two orders: 8 here, 6 of them distinct.
    assert len(shown) == 6
    assert len(made) == len(set(made)) == len(shown)
    assert {(d, str(ResidueOrder(m, p, d))) for m, p, d in made} == shown
    del built[:]
    assert cli._stat_payload(tab) == payload
    assert built == []


@pytest.mark.parametrize("formulation", ["lp", "morse"])
def test_letter_one_off_the_bottom_row_raises(formulation):
    tab = KTableau(2, [[2], [1]])
    for statistic in (k_charge, k_cocharge):
        with pytest.raises(ValueError, match="no bottom-row cell"):
            statistic(tab, formulation)


def test_one_sequence_split_per_tableau(monkeypatch, tab_semistandard_13, tab_standard_9):
    calls = []
    original = ktableaux.standard_sequences

    def counting(tab):
        calls.append(tab)
        return original(tab)

    for module in (ktableaux, statistics, sweeps):
        monkeypatch.setattr(module, "standard_sequences", counting)
    for tab in (tab_semistandard_13, tab_standard_9):
        calls.clear()
        cli._stat_payload(tab)
        assert calls == [tab]
        calls.clear()
        checked, failures = sweeps.check_tableau_identities(tab)
        assert checked and not failures
        assert calls == [tab]


def test_restriction_that_is_not_a_core_is_reported():
    # (3,1) has a hook of length 4 at (1,1); the restriction to letter 1,
    # (2), is a 4-core.
    tab = KTableau(3, [[1, 1, 2], [2]])
    checked, failures = sweeps.check_tableau_identities(tab)
    restriction = [f for f in failures if f.identity == "restriction is a core"]
    assert [f.detail for f in restriction] == ["restriction to 2 has shape (3,1)"]
    assert restriction[0].context == ktableaux.to_text(tab)


def test_passing_identities_render_no_text(monkeypatch):
    # The counterexample text is rendered only for a failing identity, and
    # the large-k identity reads the classical charge and cocharge from one
    # run of the trusted charge loop, once the cell counts equal the
    # weight, without `classical_charge`'s checks.  Each name is patched
    # wherever a module could call it; sweeps imports only the loop.
    tab = enumerate_k_tableaux(9, (2, 1))[0]
    calls = {"to_text": 0, "classical_charge": 0, "_charge": 0}

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(sweeps, "to_text", counting("to_text", sweeps.to_text))
    for name in ("classical_charge", "_charge"):
        wrapper = counting(name, getattr(statistics, name))
        for module in (statistics, sweeps):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    checked, failures = sweeps.check_tableau_identities(tab)
    assert checked and not failures
    assert calls == {"to_text": 0, "classical_charge": 0, "_charge": 1}


# Small fillings, not all of them k-tableaux: (k, rows, the checker's
# failures on them as (identity, detail)).
PINNED_FAILURE_DETAILS = [
    (
        3,
        [[1, 1, 2], [2]],
        [
            ("charge + cocharge = n(weight) - interior", "1 + 1 != 2 - 1"),
            ("restriction is a core", "restriction to 2 has shape (3,1)"),
        ],
    ),
    (
        2,
        [[1, 2], [3]],
        [
            ("charge + cocharge = n(weight) - interior", "2 + 1 != 3 - 1"),
            ("restriction is a core", "restriction to 3 has shape (2,1)"),
            ("standard duality with explicit constant", "2 != 3*2/2 - 1 - 1"),
        ],
    ),
    (
        3,
        [[1, 1, 2, 3], [2, 3]],
        [
            ("charge + cocharge = n(weight) - interior", "3 + 3 != 6 - 2"),
            ("restriction is a core", "restriction to 2 has shape (3,1)"),
            ("restriction is a core", "restriction to 3 has shape (4,2)"),
        ],
    ),
    (
        1,
        [[1, 2], [3], [1]],
        [
            ("charge formulations agree", "lp=4 morse=3"),
            ("charge + cocharge = n(weight) - interior", "3 + 1 != 3 - 2"),
            ("restriction is a core", "restriction to 1 has shape (1,1)"),
            ("restriction is a core", "restriction to 3 has shape (2,1,1)"),
            (
                "entry occupies one residue, distinct rows and columns",
                "letter 1 cells [Cell(row=1, col=1), Cell(row=3, col=1)]",
            ),
            (
                "letter 1 fills the bottom row start",
                "letter-1 cells [Cell(row=1, col=1), Cell(row=3, col=1)]",
            ),
            ("standard duality with explicit constant", "3 != 3*2/2 - 2 - 1"),
            ("diagonal count through the restriction", "letter 2: 2 != 1"),
        ],
    ),
    (
        # Letter 3 sits on diagonals 2 and -2 of residue 0 but not on 0.
        1,
        [[1, 2, 3], [2], [3]],
        [
            ("restriction is a core", "restriction to 3 has shape (3,1,1)"),
            (
                "diagonal filling between extremes",
                "letter 3 misses a residue-0 diagonal in [0]",
            ),
            ("diagonal count through the restriction", "letter 3: 2 != 3"),
        ],
    ),
    (
        # Standard: letters 1 and 3 each fill two cells of one column, and
        # letter 1 sits on diagonals 0 and -4 of residue 0 but not on -2.
        # The letter pass finds both entry failures, which still follow the
        # restriction failures and precede letter 1's.
        1,
        [[1], [3], [2], [3], [1]],
        [
            ("charge formulations agree", "lp=0 morse=2"),
            ("charge + cocharge = n(weight) - interior", "2 + 2 != 3 - 4"),
            ("restriction is a core", "restriction to 1 has shape (1,1)"),
            ("restriction is a core", "restriction to 2 has shape (1,1,1)"),
            ("restriction is a core", "restriction to 3 has shape (1,1,1,1,1)"),
            (
                "entry occupies one residue, distinct rows and columns",
                "letter 1 cells [Cell(row=1, col=1), Cell(row=5, col=1)]",
            ),
            (
                "entry occupies one residue, distinct rows and columns",
                "letter 3 cells [Cell(row=2, col=1), Cell(row=4, col=1)]",
            ),
            (
                "letter 1 fills the bottom row start",
                "letter-1 cells [Cell(row=1, col=1), Cell(row=5, col=1)]",
            ),
            ("standard duality with explicit constant", "2 != 3*2/2 - 4 - 2"),
            (
                "diagonal filling between extremes",
                "letter 1 misses a residue-0 diagonal in [-2]",
            ),
        ],
    ),
]


@pytest.mark.parametrize("k,rows,expected", PINNED_FAILURE_DETAILS)
def test_failure_details_are_pinned(k, rows, expected):
    # Details are rendered lazily; the text of each failure stays exactly
    # what eager rendering gave, loop variables included.
    tab = KTableau(k, rows)
    checked, failures = sweeps.check_tableau_identities(tab)
    assert [(f.identity, f.detail) for f in failures] == expected
    assert all(f.context == ktableaux.to_text(tab) for f in failures)


def test_lp_sign_identities_fail_on_a_negative_l_entry():
    # Not a k-tableau: letter 1 spans two cells.  The step rule gives
    # L = [0, -1, -1] and I = [0, 1, 1], so the lp cocharge is -2; the morse
    # vectors are non-negative by construction and cannot show it.
    tab = KTableau(1, [[1, 3, 1, 2]])
    (seq,) = standard_sequences(tab)
    assert statistics._walk(seq, tab.k).L == (0, -1, -1)
    checked, failures = sweeps.check_tableau_identities(tab)
    assert checked == _identity_count(tab)
    assert [(f.identity, f.detail) for f in failures][:5] == [
        ("cocharge formulations agree", "lp=-2 morse=2"),
        ("charge formulations agree", "lp=2 morse=4"),
        ("charge + cocharge = n(weight) - interior", "4 + 2 != 3 - 3"),
        ("lp cocharge is non-negative", "cocharge=-2"),
        ("lp non-negative entry by entry", "L [0, -1, -1] / I [0, 1, 1]"),
    ]
    assert "lp charge is non-negative" not in {f.identity for f in failures}


def test_passing_tableau_renders_no_detail(monkeypatch, tab_standard_9):
    def refuse(self):
        raise AssertionError("detail rendered for a passing identity")

    monkeypatch.setattr(cores.Partition, "__str__", refuse)
    monkeypatch.setattr(cores.Cell, "__repr__", refuse)
    checked, failures = sweeps.check_tableau_identities(tab_standard_9)
    assert checked and failures == []


RESTRICTION = "restriction is a core"
MEETING = "diagonal count through the restriction"


def _rebuilt_prefix_rules(tab):
    """The per-letter restriction and meeting rules with every prefix rebuilt
    from all of its letters: (identity, holds, detail) in checking order."""
    n = tab.k + 1
    out = []
    for i in range(1, tab.n_letters + 1):
        counts = tuple(c for c in (sum(x <= i for x in row) for row in tab.rows) if c)
        shape = Partition(counts)
        holds = is_n_core(shape, n)
        out.append((RESTRICTION, holds, f"restriction to {i} has shape {shape}"))
    weight = tab.weight
    if weight and all(part == 1 for part in weight):
        seq = standard_sequences(tab)[0]
        report = statistics._walk(seq, tab.k)
        for i in range(1, len(weight) + 1):
            res = residue(highest_occurrence(seq, i), n)
            meeting = {
                diagonal(c)
                for j in range(1, i + 1)
                for c in cells_of(tab, j)
                if diagonal(c) % n == res
            }
            count = len(cells_of(tab, i)) + report.diag_add_high[i - 1] + report.diag_add_low[i - 1]
            out.append((MEETING, count == len(meeting), f"letter {i}: {count} != {len(meeting)}"))
    return out


def _identity_count(tab):
    """How many identities check_tableau_identities evaluates on tab."""
    seqs = standard_sequences(tab)
    lam, weight = tab.shape, tab.weight
    standard = weight and all(part == 1 for part in weight)
    large = tab.k > (lam[0] if lam else 0) + len(lam) - 2
    return (
        5  # the totals
        + len(seqs)  # lp non-negative entry by entry
        + tab.n_letters  # restriction is a core
        + 1  # sequences partition the cells
        + sum(len(seq) for seq in seqs)  # one residue per entry
        + 1  # letter 1
        + (1 + 2 * len(weight) if standard else 0)  # duality; two per letter
        + (2 if large else 0)  # large k
    )


def _error(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def _matches_rebuilt_prefix_rules(tab):
    """Whether the sweep's checks on tab equal the rebuilt rules (True), or
    it raised as the rebuilt rules or the statistics raise (False)."""
    try:
        checked, failures = sweeps.check_tableau_identities(tab)
    except ValueError as exc:
        raised = {
            _error(lambda: statistics.sequence_reports(tab)),
            _error(lambda: _rebuilt_prefix_rules(tab)),
        }
        assert str(exc) in raised, (tab, exc)
        return False
    prefix = [
        (f.identity, f.detail, f.context)
        for f in failures
        if f.identity in (RESTRICTION, MEETING)
    ]
    text = ktableaux.to_text(tab)
    assert prefix == [(i, d, text) for i, holds, d in _rebuilt_prefix_rules(tab) if not holds], tab
    assert checked == _identity_count(tab), tab
    return True


def test_prefix_checks_equal_rebuilt_prefixes_on_every_small_tableau():
    tabs = [
        tab
        for k in range(1, 5)
        for size in range(1, 8)
        for mu in partitions(size, max_part=k)
        for tab in enumerate_k_tableaux(k, mu)
    ]
    assert all(_matches_rebuilt_prefix_rules(tab) for tab in tabs)


def _random_filling(rng, shapes):
    """A filling of a random shape: standard or with letters 1..4, rows
    sorted or not, so valid and invalid k-tableaux both occur."""
    shape = rng.choice(shapes)
    if rng.random() < 0.5:
        letters = list(range(1, shape.size() + 1))
        rng.shuffle(letters)
    else:
        top = rng.randint(1, 4)
        letters = [rng.randint(1, top) for _ in range(shape.size())]
    rows, start = [], 0
    for part in shape:
        row = letters[start : start + part]
        start += part
        rows.append(sorted(row) if rng.random() < 0.7 else row)
    return KTableau(rng.randint(1, 4), rows)


def test_prefix_checks_equal_rebuilt_prefixes_on_random_fillings():
    rng = random.Random(90521)
    shapes = [lam for size in range(1, 9) for lam in partitions(size)]
    outcomes = []
    for _ in range(3000):
        tab = _random_filling(rng, shapes)
        if _error(lambda: standard_sequences(tab)) is None:
            outcomes.append((_matches_rebuilt_prefix_rules(tab), bool(ktableaux.validate(tab))))
    # Both paths are exercised, on valid and invalid k-tableaux.
    assert outcomes.count((False, False)) > 500
    assert outcomes.count((True, False)) > 500
    assert outcomes.count((True, True)) > 100


def test_results_equal_with_a_cold_and_a_warm_hook_cache():
    tabs = [
        tab
        for k in range(1, 4)
        for size in range(1, 7)
        for mu in partitions(size, max_part=k)
        for tab in enumerate_k_tableaux(k, mu)
    ]
    tabs.append(KTableau(3, [[1, 1, 2, 3], [2, 3]]))

    def result(tab):
        return sweeps.check_tableau_identities(tab), ktableaux.validate(tab), cli._stat_payload(tab)

    cold = []
    for tab in tabs:
        cores._hook_facts.cache_clear()
        cold.append(result(tab))
    # Once after a clear, filling the cache, and once with it warm.
    cores._hook_facts.cache_clear()
    assert [result(tab) for tab in tabs] == cold
    assert [result(tab) for tab in tabs] == cold
    assert cores._hook_facts.cache_info().hits > 0


def test_statistics_task_frees_each_tableau_once_checked(monkeypatch):
    # The task keeps only the tableaux still to check, and checks them in
    # canonical order, so failures keep their order.
    lists = []
    left = []

    def enumerate_and_keep(k, weight):
        found = enumerate_k_tableaux(k, weight)
        lists.append(found)
        return found

    def check(tab, facts=None):
        left.append((tab, len(lists[0])))
        return original(tab, facts)

    original = sweeps.check_tableau_identities
    monkeypatch.setattr(sweeps, "enumerate_k_tableaux", enumerate_and_keep)
    monkeypatch.setattr(sweeps, "check_tableau_identities", check)
    report = sweeps._statistics_task((3, (1, 1, 1, 1, 1)))
    expected = enumerate_k_tableaux(3, (1, 1, 1, 1, 1))
    assert report.ok and report.subjects_checked == len(expected) > 5
    assert [tab for tab, _ in left] == expected
    assert [n for _, n in left] == list(range(len(expected) - 1, -1, -1))


def test_each_task_computes_its_weight_facts_once(monkeypatch):
    # Every tableau of a task has the task's weight once it validates, so
    # the facts are computed once per task, not once per tableau.
    calls = []
    original = sweeps._weight_facts

    def counting(weight):
        calls.append(weight)
        return original(weight)

    monkeypatch.setattr(sweeps, "_weight_facts", counting)
    report = sweeps.run_statistics_sweep(5, 7)
    assert (report.subjects_checked, report.identities_checked) == (1211, 33786)
    tasks = sweeps.weights_up_to(5, 7)
    assert calls == [tuple(mu) for _, mu in tasks]


def test_task_checks_a_tableau_of_another_weight_by_its_own_weight(monkeypatch):
    # A tableau that fails validation may have another weight than the
    # task's, so its identities read the facts of its own weight: its
    # failures are exactly what the one-argument check gives.  This one has
    # weight (3,3,3), and the task's is (3,3,2).
    tab = ktableaux.parse_text(LP_MORSE_DISAGREE[0])
    monkeypatch.setattr(sweeps, "enumerate_k_tableaux", lambda k, weight: [tab])
    report = sweeps._statistics_task((5, (3, 3, 2)))
    checked, failures = sweeps.check_tableau_identities(tab)
    problem = ktableaux.validate(tab, (3, 3, 2)).problem
    assert problem == "letter 3 spans 3 residues, expected 2"
    assert report == sweeps.SweepReport(
        1,
        1 + checked,
        [sweeps.SweepFailure(sweeps.VALIDATES.name, problem, ktableaux.to_text(tab)), *failures],
    )
    # The task's own weight would give another duality constant.
    assert failures != sweeps.check_tableau_identities(tab, sweeps._weight_facts((3, 3, 2)))[1]


def test_validated_path_equals_the_one_argument_check():
    # A task passes its weight's facts only for a tableau that validated
    # with that weight; the checker then splits the sequences without
    # re-checking the weight.  No tableau of PINNED_FAILURE_DETAILS
    # validates, so the known counterexamples supply failures to compare.
    tabs = [
        (tab, mu)
        for k, mu in sweeps.weights_up_to(5, 7)
        for tab in enumerate_k_tableaux(k, mu)
    ]
    tabs += [(tab, tab.weight) for tab in map(ktableaux.parse_text, PER_LETTER_FAILURES)]
    assert all(ktableaux.validate(tab, mu) for tab, mu in tabs)
    failing = 0
    for tab, mu in tabs:
        expected = sweeps.check_tableau_identities(tab)
        assert sweeps.check_tableau_identities(tab, sweeps._weight_facts(tuple(mu))) == expected
        failing += bool(expected[1])
    assert failing == len(PER_LETTER_FAILURES)


@pytest.mark.parametrize(
    "k,weight,rows,problem",
    [
        # Weight (1,2): not a partition.
        (3, (2, 1), [[1, 2, 2]], "letter 1 spans 1 residues, expected 2"),
        # Weight (2,): a partition with a part exceeding k = 1.
        (1, (1,), [[1, 1]], "shape (2) is not a 2-core"),
        # Weight (1,1), but letter 1 lies above the bottom row, so its one
        # sequence has no lowest addable cell to walk from.
        (2, (1, 1), [[2], [1]], "column fails to increase bottom-to-top"),
        # Weight (1,1,1), but its top row decreases, and its restriction to
        # 2 has row counts (1, 2), which are no partition.
        (2, (1, 1, 1), [[1, 3], [2, 1]], "shape (2,2) is not a 3-core"),
    ],
    ids=[
        "not-a-partition",
        "part-exceeds-k",
        "letter-1-off-the-bottom-row",
        "restriction-counts-no-partition",
    ],
)
def test_task_checks_only_validation_on_a_tableau_without_sequences(
    monkeypatch, capsys, k, weight, rows, problem
):
    # A tableau that fails validation and is no k-tableau of any weight, or
    # whose own weight has no standard sequences, counts one identity, its
    # failed validation, and the sweep goes on; `verify` reports it and
    # exits 1.
    bad = KTableau(k, rows)
    original = sweeps.enumerate_k_tableaux
    clean = sweeps.run_statistics_sweep(k, sum(weight))

    def with_bad(task_k, task_weight):
        found = original(task_k, task_weight)
        return found + [bad] if (task_k, task_weight) == (k, weight) else found

    monkeypatch.setattr(sweeps, "enumerate_k_tableaux", with_bad)
    report = sweeps.run_statistics_sweep(k, sum(weight))
    failure = sweeps.SweepFailure(sweeps.VALIDATES.name, problem, ktableaux.to_text(bad))
    assert report == sweeps.SweepReport(
        clean.subjects_checked + 1, clean.identities_checked + 1, [failure]
    )
    monkeypatch.delenv("KCHARGE_THREADS", raising=False)
    assert cli.main(["verify", "--max-k", str(k), "--max-weight", str(sum(weight))]) == 1
    out = capsys.readouterr().out
    assert f"counterexample [{sweeps.VALIDATES.name}] {problem}" in out


def test_large_k_check_names_cell_counts_that_are_no_partition(monkeypatch, capsys):
    # Residue weight (1,1,1) but cell counts (1,2,1), at large k: the
    # one-argument check fails the large-k identity, and the classical one
    # naming the counts, which have no classical charge.  Its first row
    # decreases, so it is no k-tableau: the sweep records its failed
    # validation alone, goes on, and `verify` exits 1.
    bad = KTableau(4, [[2, 1], [3, 2]])
    expected = [
        (sweeps.COCHARGE_AGREE, "lp=1 morse=3"),
        (sweeps.LETTER_1, "letter-1 cells [Cell(row=1, col=2)]"),
        (sweeps.MEETING, "letter 2: 2 != 1"),
        (sweeps.LARGE_K, "cell counts (1, 2, 1) vs weight (1, 1, 1)"),
        (sweeps.CLASSICAL, "cell counts (1, 2, 1) are not a partition"),
    ]
    checked, failures = sweeps.check_tableau_identities(bad)
    assert (checked, [(f.identity, f.detail) for f in failures]) == (
        23,
        [(identity.name, detail) for identity, detail in expected],
    )
    original = sweeps.enumerate_k_tableaux
    clean = sweeps.run_statistics_sweep(4, 3)
    assert clean.ok

    def with_bad(task_k, task_weight):
        found = original(task_k, task_weight)
        return found + [bad] if (task_k, task_weight) == (4, (1, 1, 1)) else found

    monkeypatch.setattr(sweeps, "enumerate_k_tableaux", with_bad)
    report = sweeps.run_statistics_sweep(4, 3)
    problem = "row decreases left-to-right"
    failure = sweeps.SweepFailure(sweeps.VALIDATES.name, problem, ktableaux.to_text(bad))
    assert report == sweeps.SweepReport(
        clean.subjects_checked + 1, clean.identities_checked + 1, [failure]
    )
    monkeypatch.delenv("KCHARGE_THREADS", raising=False)
    assert cli.main(["verify", "--max-k", "4", "--max-weight", "3"]) == 1
    out = capsys.readouterr().out
    assert f"counterexample [{sweeps.VALIDATES.name}] {problem}" in out


@pytest.mark.parametrize("bad", [True, 2.5, "2"])
@pytest.mark.parametrize(
    "sweep,names",
    [
        (sweeps.run_statistics_sweep, ("max-k", "max-weight")),
        (sweeps.weights_up_to, ("max_k", "max_size")),
    ],
    ids=["run_statistics_sweep", "weights_up_to"],
)
def test_sweep_bounds_must_be_integers(sweep, names, bad):
    # int() would read True as 1 and a float or a string would fail later
    # with TypeError; each bound is refused with ValueError instead.
    with pytest.raises(ValueError, match=f"^{names[0]} must be an integer, got {bad!r}$"):
        sweep(bad, 3)
    with pytest.raises(ValueError, match=f"^{names[1]} must be an integer, got {bad!r}$"):
        sweep(2, bad)


@pytest.mark.parametrize(
    "bad,message",
    [
        ("2", "processes must be an integer, got '2'"),
        (2.5, "processes must be an integer, got 2.5"),
        (True, "processes must be an integer, got True"),
        (0, "processes must be positive, got 0"),
        (-3, "processes must be positive, got -3"),
    ],
)
def test_sweep_processes_must_be_a_positive_integer(monkeypatch, bad, message):
    # min() takes any of these without a word, or fails with TypeError;
    # each is refused with ValueError before any task runs.
    def refuse(args):
        raise AssertionError("a task ran")

    monkeypatch.setattr(sweeps, "_statistics_task", refuse)
    with pytest.raises(ValueError) as exc:
        sweeps.run_statistics_sweep(2, 3, processes=bad)
    assert str(exc.value) == message


# lp and morse disagree on 7 tableaux of `kcharge verify --max-k 6
# --max-weight 9` (it passes at 5/8 and 4/9); these are the smallest.  The
# marks are strict, so a fix turns them into failures, to be unmarked.
LP_MORSE_DISAGREE = [
    # k=5, weight (3,3,3): cocharge lp=5, morse=6.
    "k=5\n3_4\n2_5 2_0 3_1 3_2\n1_0 1_1 1_2 2_3 3_4\n",
    # k=4, weight (2,2,2,2,2): cocharge lp=12, morse=11.
    "k=4\n5_1\n4_2\n3_3 4_4\n2_4 3_0 5_1 5_2\n1_0 1_1 2_2 3_3 4_4\n",
    # k=6, weight (3,3,3), a classical tableau: cocharge lp=5, morse=6.
    "k=6\n2_6 2_0 3_1 3_2\n1_0 1_1 1_2 2_3 3_4\n",
]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="lp and morse disagree")
@pytest.mark.parametrize("text", LP_MORSE_DISAGREE)
def test_formulations_agree_on_known_counterexamples(text):
    tab = ktableaux.parse_text(text)
    assert ktableaux.validate(tab)
    assert k_cocharge(tab, "lp") == k_cocharge(tab, "morse")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="morse cocharge is 6 here")
def test_large_k_morse_cocharge_is_classical_on_known_counterexample():
    tab = ktableaux.parse_text(LP_MORSE_DISAGREE[2])
    assert k_cocharge(tab, "lp") == statistics.classical_cocharge(tab.rows) == 5
    assert k_cocharge(tab, "morse") == 5


def _per_letter_mismatches(tab):
    """(sequence number, letter) of every letter i of a standard sequence
    where L_i != M_i + diag_add_low_i or I_i != J_i + diag_add_high_i."""
    return [
        (num, r.letters[i])
        for num, r in enumerate(sequence_reports(tab), start=1)
        for i in range(len(r.letters))
        if r.L[i] != r.M[i] + r.diag_add_low[i] or r.I[i] != r.J[i] + r.diag_add_high[i]
    ]


def test_formulations_agree_letter_by_letter():
    # The totals lp = morse are sums of these per-letter identities; every
    # letter of every standard sequence of every tableau at k <= 5 and
    # |weight| <= 8 (the range `verify --max-k 5 --max-weight 8` passes).
    walked = 0
    for k, mu in sweeps.weights_up_to(5, 8):
        for tab in enumerate_k_tableaux(k, mu):
            assert _per_letter_mismatches(tab) == [], ktableaux.to_text(tab)
            walked += len(standard_sequences(tab))
    assert walked == 5113


# The 7 tableaux of `kcharge verify --max-k 6 --max-weight 9` where lp and
# morse disagree; on each, exactly one letter of one standard sequence
# breaks the per-letter identities (named above each tableau).
PER_LETTER_FAILURES = [
    # sequence 2, letter 3
    "k=5\n3_4\n2_5 2_0 3_1 3_2\n1_0 1_1 1_2 2_3 3_4\n",
    # sequence 2, letter 3
    "k=5\n3_4 3_5\n2_5 2_0\n1_0 1_1 1_2 2_3 3_4 3_5 3_0\n",
    # sequence 2, letter 3
    "k=6\n2_6 2_0 3_1 3_2\n1_0 1_1 1_2 2_3 3_4\n",
    # sequence 2, letter 3
    "k=6\n3_5\n2_6 2_0 3_1 3_2\n1_0 1_1 1_2 2_3\n",
    # sequence 1, letter 5
    "k=6\n3_5\n2_6 4_0 4_1 5_2\n1_0 1_1 2_2 3_3\n",
    # sequence 1, letter 5
    "k=6\n4_5\n2_6 3_0 3_1 5_2\n1_0 1_1 2_2 4_3\n",
    # sequence 1, letter 6
    "k=6\n3_5\n2_6 4_0 5_1 6_2\n1_0 1_1 2_2 3_3\n",
]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="lp and morse disagree")
@pytest.mark.parametrize("text", PER_LETTER_FAILURES)
def test_formulations_agree_letter_by_letter_on_known_counterexamples(text):
    tab = ktableaux.parse_text(text)
    assert ktableaux.validate(tab)
    assert _per_letter_mismatches(tab) == []


def _predicted_failures(tab):
    """The identities that the `stat` payload says the checker must fail,
    in reporting order: the two formulations' totals, the duality and, at
    large k, the classical pair."""
    payload = cli._stat_payload(tab)
    charge, cocharge = payload["k_charge"], payload["k_cocharge"]
    predicted = []
    if cocharge["lp"] != cocharge["morse"]:
        predicted.append("cocharge formulations agree")
    if charge["lp"] != charge["morse"]:
        predicted.append("charge formulations agree")
    if charge["morse"] + cocharge["morse"] != payload["n_weight"] - payload["interior"]:
        predicted.append("charge + cocharge = n(weight) - interior")
    shape = payload["shape"]
    if tab.k > shape[0] + len(shape) - 2 and (charge["morse"], cocharge["morse"]) != (
        statistics.classical_charge(tab.rows),
        statistics.classical_cocharge(tab.rows),
    ):
        predicted.append("large-k charge matches the classical statistic")
    return predicted


def _checker_failures(tab):
    return [failure.identity for failure in sweeps.check_tableau_identities(tab)[1]]


def test_checker_failures_are_the_stat_payload_prediction():
    # Every tableau with k <= 5 and |weight| <= 8, and the 7 known
    # counterexamples at 6/9, where the payload shows lp and morse apart.
    tableaux = 0
    for k, mu in sweeps.weights_up_to(5, 8):
        for tab in enumerate_k_tableaux(k, mu):
            assert _checker_failures(tab) == _predicted_failures(tab), ktableaux.to_text(tab)
            tableaux += 1
    assert tableaux == 2873
    for text in PER_LETTER_FAILURES:
        tab = ktableaux.parse_text(text)
        predicted = _predicted_failures(tab)
        assert predicted and _checker_failures(tab) == predicted, text


def test_checker_failures_are_the_stat_payload_prediction_on_random_tableaux(random_tableaux):
    for _, tab in random_tableaux:
        assert _checker_failures(tab) == _predicted_failures(tab), ktableaux.to_text(tab)


def test_lp_equals_the_classical_pair_on_random_large_k_tableaux(random_tableaux):
    large = [tab for k, tab in random_tableaux if k > tab.shape[0] + len(tab.shape) - 2]
    assert len(large) >= 30
    for tab in large:
        assert (k_charge(tab, "lp"), k_cocharge(tab, "lp")) == (
            statistics.classical_charge(tab.rows),
            statistics.classical_cocharge(tab.rows),
        ), ktableaux.to_text(tab)


# Positions in the `random_tableaux` fixture where lp and morse disagree,
# both at k=5.  51, weight (3,3,3,1^12): lp charge + cocharge is 43 + 52 =
# 95 against n(weight) - interior = 94, and morse charge is 42.  210,
# weight (4,3,3,1^8): morse cocharge is 29 against lp 28, which breaks the
# duality against 52.
RANDOM_LP_MORSE_DISAGREE = (51, 210)


def _assert_formulations_agree_with_duality(k, tab):
    lp = (k_charge(tab, "lp"), k_cocharge(tab, "lp"))
    morse = (k_charge(tab, "morse"), k_cocharge(tab, "morse"))
    dual = n_stat(tab.weight) - len(k_interior(tab.shape, k))
    assert lp == morse and sum(lp) == dual, (lp, morse, dual, ktableaux.to_text(tab))


def test_formulations_agree_with_duality_on_random_tableaux(random_tableaux):
    checked = 0
    for position, (k, tab) in enumerate(random_tableaux):
        if position not in RANDOM_LP_MORSE_DISAGREE:
            _assert_formulations_agree_with_duality(k, tab)
            checked += 1
    assert checked == 298


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="item 2")
@pytest.mark.parametrize("position", RANDOM_LP_MORSE_DISAGREE)
def test_formulations_agree_with_duality_on_random_counterexamples(random_tableaux, position):
    _assert_formulations_agree_with_duality(*random_tableaux[position])


def test_passing_checker_builds_no_record_and_no_residue_order(
    monkeypatch, tab_semistandard_13, tab_standard_9, tab_weight_222
):
    records, orders = [], []
    record = statistics.SequenceReport
    init = ResidueOrder.__init__

    def counting_record(*args, **kwargs):
        records.append(args)
        return record(*args, **kwargs)

    def counting_order(self, *args, **kwargs):
        orders.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(statistics, "SequenceReport", counting_record)
    monkeypatch.setattr(ResidueOrder, "__init__", counting_order)
    for tab in (tab_semistandard_13, tab_standard_9, tab_weight_222):
        checked, failures = sweeps.check_tableau_identities(tab)
        assert checked and not failures
    assert records == [] and orders == []
    # The counters count: the stat record builds both (the orders once per
    # process).
    cli._kept_order_text.cache_clear()
    cli._stat_payload(tab_semistandard_13)
    assert records and orders


# What `check_tableau_identities` reports on each of PER_LETTER_FAILURES:
# (identities checked, [(identity, detail)] in reporting order).  These pin
# the failure path on real k-tableaux; ROADMAP item 2 replaces them with
# passing checks once `morse` is fixed.
CHECKER_ON_KNOWN_COUNTEREXAMPLES = [
    (
        22,
        [
            ("cocharge formulations agree", "lp=5 morse=6"),
            ("charge + cocharge = n(weight) - interior", "3 + 6 != 9 - 1"),
        ],
    ),
    (22, [("charge formulations agree", "lp=4 morse=3")]),
    (
        24,
        [
            ("cocharge formulations agree", "lp=5 morse=6"),
            ("charge + cocharge = n(weight) - interior", "4 + 6 != 9 - 0"),
            (
                "large-k charge matches the classical statistic",
                "k-stats (4, 6) vs classical (4, 5)",
            ),
        ],
    ),
    (
        24,
        [
            ("cocharge formulations agree", "lp=6 morse=7"),
            ("charge + cocharge = n(weight) - interior", "3 + 7 != 9 - 0"),
            (
                "large-k charge matches the classical statistic",
                "k-stats (3, 7) vs classical (3, 6)",
            ),
        ],
    ),
    (
        25,
        [
            ("cocharge formulations agree", "lp=8 morse=9"),
            ("charge + cocharge = n(weight) - interior", "8 + 9 != 16 - 0"),
            (
                "large-k charge matches the classical statistic",
                "k-stats (8, 9) vs classical (8, 8)",
            ),
        ],
    ),
    (
        25,
        [
            ("cocharge formulations agree", "lp=8 morse=9"),
            ("charge + cocharge = n(weight) - interior", "8 + 9 != 16 - 0"),
            (
                "large-k charge matches the classical statistic",
                "k-stats (8, 9) vs classical (8, 8)",
            ),
        ],
    ),
    (
        26,
        [
            ("cocharge formulations agree", "lp=9 morse=10"),
            ("charge + cocharge = n(weight) - interior", "9 + 10 != 18 - 0"),
            (
                "large-k charge matches the classical statistic",
                "k-stats (9, 10) vs classical (9, 9)",
            ),
        ],
    ),
]


@pytest.mark.parametrize(
    "text,expected", list(zip(PER_LETTER_FAILURES, CHECKER_ON_KNOWN_COUNTEREXAMPLES))
)
def test_checker_failures_on_known_counterexamples_are_pinned(text, expected):
    tab = ktableaux.parse_text(text)
    checked, failures = sweeps.check_tableau_identities(tab)
    assert (checked, [(f.identity, f.detail) for f in failures]) == expected
    assert checked == _identity_count(tab)
    assert all(f.context == ktableaux.to_text(tab) for f in failures)


def _clear_kcharge_caches():
    """Clear every cache of the kcharge modules; returns their names."""
    cleared = set()
    for module in (cores, ktableaux, statistics, sweeps, cli):
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
                cleared.add(name)
    return cleared


def test_cache_state_does_not_change_the_checker():
    # Each input is checked on a new tableau with every cache cleared, then
    # again after a sweep has filled the caches.  The restriction of
    # KTableau(1, [[1, 2], [3], [1]]) to 1 has an empty middle row, raw
    # counts (1, 0, 1), whose verdict is the shape (1,1)'s; its letter 1
    # fails the entry verdict and letter 3 of KTableau(1, [[1, 2, 3], [2],
    # [3]]) the filling verdict, both read by class.
    inputs = [(k, rows) for k, rows, _ in PINNED_FAILURE_DETAILS]
    inputs += [(tab.k, tab.rows) for tab in map(ktableaux.parse_text, PER_LETTER_FAILURES)]
    cold = []
    for k, rows in inputs:
        cleared = _clear_kcharge_caches()
        cold.append(sweeps.check_tableau_identities(KTableau(k, rows)))
    assert {
        "_hook_facts",
        "_restriction_is_core",
        "_class_facts",
        "_kept_reading_layout",
        "_cell_row",
    } <= cleared
    sweeps.run_statistics_sweep(4, 6)
    warm = [sweeps.check_tableau_identities(KTableau(k, rows)) for k, rows in reversed(inputs)]
    assert warm[::-1] == cold
    details = [[(f.identity, f.detail) for f in failures] for _, failures in cold]
    assert details[: len(PINNED_FAILURE_DETAILS)] == [e for _, _, e in PINNED_FAILURE_DETAILS]


def test_class_facts_match_a_direct_computation_at_5_7():
    # Every multi-cell class (cells, n) of the benchmark's range, each read
    # once cold and once warm, against the literal definitions.
    classes = set()
    for k, mu in sweeps.weights_up_to(5, 7):
        for tab in enumerate_k_tableaux(k, mu):
            for seq in standard_sequences(tab):
                classes.update((e.cells, k + 1) for e in seq.entries if len(e.cells) > 1)
    assert len({cells for cells, _ in classes}) == 52
    statistics._class_facts.cache_clear()
    for _ in range(2):
        for cells, n in classes:
            seq = StandardSequence((ktableaux.SequenceEntry(1, 0, cells),))
            low, high = lowest_occurrence(seq, 1), highest_occurrence(seq, 1)
            bottom = lowest_addable(cells).col - 1 if any(c.row == 1 for c in cells) else 0
            facts = statistics._class_facts(cells, n)
            assert facts[:3] == (low, high, bottom)
            one_class = (
                len({residue(c, n) for c in cells}) == 1
                and len({c.row for c in cells}) == len(cells)
                and len({c.col for c in cells}) == len(cells)
            )
            diagonals = {diagonal(c) for c in cells}
            lo, hi = sorted((diagonal(low), diagonal(high)))
            between = [d for d in range(lo + 1, hi) if (d - lo) % n == 0]
            missed = between if not diagonals.issuperset(between) else None
            ok, got_diagonals, got_missed = facts[3:]
            assert (ok, got_diagonals) == (one_class, diagonals)
            assert (None if got_missed is None else list(got_missed)) == missed


def test_class_verdicts_read_the_modulus():
    # One cell set on diagonals 0 and 6: between its extremes it misses the
    # residue diagonals at n = 2 and n = 3, and none at n = 6.  Another on
    # diagonals 0 and 3 is one residue class at n = 3 but not at n = 2.  A
    # verdict kept by the cells alone would repeat its first answer.
    statistics._class_facts.cache_clear()
    wide = frozenset({Cell(1, 1), Cell(2, 8)})
    assert [
        (ok, sorted(diagonals), None if missed is None else list(missed))
        for ok, diagonals, missed in (statistics._class_facts(wide, n)[3:] for n in (2, 3, 6))
    ] == [(True, [0, 6], [2, 4]), (True, [0, 6], [3]), (True, [0, 6], None)]
    narrow = frozenset({Cell(1, 1), Cell(2, 5)})
    assert [statistics._class_facts(narrow, n)[3] for n in (3, 2, 3)] == [True, False, True]


def test_parallel_sweep_is_the_serial_report_on_a_failing_range(monkeypatch):
    # 6/9 has 12,981 tableaux and 18 failures in four tasks, which two
    # workers start in the reverse of their canonical order (at 5/9 all
    # three failures are in one task, which cannot show the merge order).
    # The report merges the tasks back in canonical order, so it equals
    # the serial one, failure order included.
    serial = sweeps.run_statistics_sweep(6, 9)
    assert (serial.subjects_checked, len(serial.failures)) == (12981, 18)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert sweeps.run_statistics_sweep(6, 9, processes=2) == serial


def test_parallel_sweep_starts_the_largest_tasks_first(monkeypatch):
    # The recorder stands in for the pool, starts no process and returns
    # the reports in the order it was handed the tasks; each task's report
    # fails once, naming the task, so the merged failures show the order
    # in which the reports were merged.
    handed = []

    class RecordingPool:
        def __init__(self, processes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=None):
            handed.extend(tasks)
            return [fn(task) for task in tasks]

    def tagged(task):
        return sweeps.SweepReport(1, 1, [sweeps.SweepFailure("task", repr(task), "")])

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sweeps, "_statistics_task", tagged)
    report = sweeps.run_statistics_sweep(4, 5, processes=2)
    assert report == sweeps.run_statistics_sweep(4, 5)
    canonical = [(k, tuple(mu)) for k, mu in sweeps.weights_up_to(4, 5)]
    assert [failure.detail for failure in report.failures] == list(map(repr, canonical))
    assert sorted(handed) == sorted(canonical) and handed != canonical
    keys = [(sum(mu), len(mu), k) for k, mu in handed]
    assert keys == sorted(keys, reverse=True)
    assert handed[0] == (4, (1, 1, 1, 1, 1))
