"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact (integer statistics, exact polynomial
coefficients); each criterion also enforces its runtime budget.
Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

import time
from contextlib import contextmanager

from kcharge.cores import Cell, Partition, n_stat, partitions, residue
from kcharge.ktableaux import KTableau, _enumerate_oracle, enumerate_k_tableaux
from kcharge.statistics import (
    charge_table,
    k_charge,
    k_cocharge,
    kostka_foulkes_table,
    sequence_reports,
)
from kcharge.sweeps import run_statistics_sweep
from reference import addable_corners, is_n_core, k_interior, removable_corners

TAB_STANDARD_9 = KTableau(4, [[1, 2, 3, 5, 7, 9], [4, 6], [5, 7], [8]])
TAB_SEMISTANDARD_13 = KTableau(
    4, [[1, 1, 2, 3, 4, 4, 5, 5, 6], [2, 3, 5, 5, 6], [3, 4, 7], [5, 6], [6], [7]]
)


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget_seconds:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds budget {budget_seconds}s"
            )
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} ({name}): FAIL [{elapsed:.2f}s]")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_cocharge_table_golden():
    with criterion(1, "standard cocharge table", 1.0):
        report = sequence_reports(TAB_STANDARD_9)[0]
        assert report.L == (0, 0, 0, 1, 1, 2, 2, 4, 3)
        assert report.M == (0, 0, 0, 1, 1, 2, 2, 3, 3)
        assert report.diag_add_low == (0, 0, 0, 0, 0, 0, 0, 1, 0)
        assert k_cocharge(TAB_STANDARD_9, "lp") == 13
        assert k_cocharge(TAB_STANDARD_9, "morse") == 13


def test_criterion_2_charge_table_golden():
    with criterion(2, "standard charge table", 1.0):
        report = sequence_reports(TAB_STANDARD_9)[0]
        assert report.I == (0, 1, 2, 2, 2, 3, 3, 3, 5)
        assert report.J == (0, 1, 2, 2, 2, 3, 3, 3, 4)
        assert report.diag_add_high == (0, 0, 0, 0, 0, 0, 0, 0, 1)
        assert k_charge(TAB_STANDARD_9, "lp") == 21
        assert k_charge(TAB_STANDARD_9, "morse") == 21


def test_criterion_3_semistandard_golden():
    with criterion(3, "semistandard charge/cocharge", 1.0):
        reports = sequence_reports(TAB_SEMISTANDARD_13)
        assert [sum(r.I) for r in reports] == [5, 7]
        per_seq_morse = [sum(r.J) + sum(r.diag_add_high) for r in reports]
        assert per_seq_morse == [5, 7]
        assert k_charge(TAB_SEMISTANDARD_13, "lp") == 12
        assert k_charge(TAB_SEMISTANDARD_13, "morse") == 12
        assert k_cocharge(TAB_SEMISTANDARD_13, "lp") == 16
        assert k_cocharge(TAB_SEMISTANDARD_13, "morse") == 16
        mu = Partition([2, 2, 2, 2, 2, 2, 1])
        lam = Partition([9, 5, 3, 2, 1, 1])
        assert n_stat(mu) == 36
        assert len(k_interior(lam, 4)) == 8
        assert 12 + 16 == n_stat(mu) - len(k_interior(lam, 4)) == 36 - 8


def test_criterion_4_enumeration_counts():
    with criterion(4, "enumeration counts and fillings", 1.0):
        tabs = enumerate_k_tableaux(3, (3, 2, 1))
        assert [t.rows for t in tabs] == [
            ((1, 1, 1, 2, 2), (2, 2), (3,)),
            ((1, 1, 1, 2, 2, 3), (2, 2, 3)),
        ]
        tabs = enumerate_k_tableaux(2, (1, 1, 1, 1))
        assert [t.rows for t in tabs] == [
            ((1, 2, 3), (3,), (4,)),
            ((1, 3, 4), (2,), (3,)),
            ((1, 2, 3, 4), (3, 4)),
            ((1, 3), (2, 4), (3,), (4,)),
        ]


def test_criterion_5_equivalence_sweep():
    with criterion(5, "formulation equivalence sweep", 300.0):
        report = run_statistics_sweep(max_k=4, max_weight=6)
        assert report.subjects_checked > 0
        assert report.ok, report.failures[:3]


def test_criterion_6_oracle_equivalence():
    with criterion(6, "fast vs brute-force enumeration", 600.0):
        cases = [
            (k, mu)
            for k in (1, 2, 3)
            for size in range(1, 7)
            for mu in partitions(size, max_part=k)
        ]
        cases += [(4, mu) for size in range(1, 6) for mu in partitions(size, max_part=4)]
        for k, mu in cases:
            fast = enumerate_k_tableaux(k, mu)
            oracle = _enumerate_oracle(k, mu)
            # The same tableaux, none twice.
            assert len(set(fast)) == len(fast) == len(oracle), (k, tuple(mu), len(oracle))
            assert set(fast) == set(oracle), (k, tuple(mu))


def test_criterion_7_large_k_degeneration():
    with criterion(7, "large-k Kostka-Foulkes degeneration", 60.0):
        for size in range(1, 6):
            for mu in partitions(size):
                affine = charge_table(size, mu)
                classical = kostka_foulkes_table(mu)
                assert list(affine.keys()) == list(classical.keys()), tuple(mu)
                for shape in affine:
                    assert affine[shape] == classical[shape], (tuple(mu), tuple(shape))
        kf = kostka_foulkes_table((1, 1, 1))
        assert str(kf[Partition([2, 1])]) == "t + t^2"


def test_criterion_8_core_invariants():
    """Over every n-core of at most 12 cells, 2 <= n <= 5, found by the
    brute-force filter `is_n_core` rather than the residue-growth
    enumerator: no addable corner shares a residue with a removable one.
    Among the extremal cells (no cell up and to the right) of one residue,
    when one ends its row so does each north-west of it, and when one tops
    its column so does each south-east of it."""
    with criterion(8, "core corner and extremal invariants", 60.0):
        shapes = [lam for size in range(13) for lam in partitions(size)]
        cores = identities = 0
        for n in range(2, 6):
            for lam in shapes:
                if not is_n_core(lam, n):
                    continue
                cores += 1
                addable = {r for _, r in addable_corners(lam, n)}
                removable = {r for _, r in removable_corners(lam, n)}
                identities += 1
                assert not addable & removable, (n, lam)
                extremal = [
                    c for c in lam.cells() if not lam.contains(Cell(c.row + 1, c.col + 1))
                ]
                conj = lam.conjugate()
                for c in extremal:
                    for c2 in extremal:
                        if c2 == c or residue(c, n) != residue(c2, n):
                            continue
                        identities += 1
                        if c2.row >= c.row and c2.col <= c.col and c.col == lam[c.row - 1]:
                            assert c2.col == lam[c2.row - 1], (n, lam, c, c2)
                        if c2.row <= c.row and c2.col >= c.col and c.row == conj[c.col - 1]:
                            assert c2.row == conj[c2.col - 1], (n, lam, c, c2)
        # One corner identity per core, one per ordered pair of extremal cells
        # of one residue.
        assert (cores, identities) == (124, 742)
