"""Exhaustive verification sweeps over enumerated k-tableaux and cores.

Every identity relating the two charge formulations is checked on every
tableau within the requested bounds; the first counterexample, if any,
is reported with enough context to reproduce it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from operator import add
from typing import Callable

from .cores import (
    Cell,
    Partition,
    _hook_facts,
    addable_corners,
    is_n_core,
    n_stat,
    partitions,
    removable_corners,
    residue,
)
from .ktableaux import (
    KTableau,
    enumerate_k_tableaux,
    standard_sequences,
    to_text,
    validate,
)
from .statistics import _classical_statistics, _walk


@dataclass(frozen=True)
class SweepFailure:
    identity: str
    detail: str
    context: str


@dataclass
class SweepReport:
    subjects_checked: int = 0
    identities_checked: int = 0
    failures: list[SweepFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "SweepReport") -> None:
        self.subjects_checked += other.subjects_checked
        self.identities_checked += other.identities_checked
        self.failures.extend(other.failures)


def weights_up_to(max_k: int, max_size: int) -> list[tuple[int, Partition]]:
    """All (k, weight) pairs with 1 <= k <= max_k and weight a non-empty
    partition of size <= max_size whose parts are at most k."""
    return [
        (k, mu)
        for k in range(1, max_k + 1)
        for size in range(1, max_size + 1)
        for mu in partitions(size, max_part=k)
    ]


def check_tableau_identities(tab: KTableau) -> tuple[int, list[SweepFailure]]:
    """Run every statistics-module identity on one tableau.

    Returns (number of identities checked, failures).  The facts are read
    in fused passes.  One pass over the walks gives the four totals and
    each walk's terms.  The letter pass, over letters 1..n_letters, gives
    each restriction's shape, each letter's cell count and, on a standard
    tableau, both diagonal rules.  The entry pass, over the entries of the
    standard sequences, gives the partition of the cells and each entry's
    residue, rows and columns.  The large-k identity reads the classical
    charge and cocharge from one classical charge computation.

    Failures are reported in a fixed order, whichever pass found them: the
    totals, the terms of each walk, the restrictions by letter, the
    partition of the cells, the entries, letter 1, the standard duality and
    then its two rules letter by letter, and last the two large-k
    identities.  Each failure's detail text is rendered only when that
    identity fails.
    """
    k = tab.k
    n = k + 1
    mu = Partition(tab.weight)
    lam = tab.shape
    checked = 0
    failures: list[SweepFailure] = []

    def fail(identity: str, detail: str) -> None:
        failures.append(SweepFailure(identity, detail, to_text(tab)))

    def expect(identity: str, condition: bool, detail: Callable[[], str]) -> None:
        nonlocal checked
        checked += 1
        if not condition:
            fail(identity, detail())

    seqs = standard_sequences(tab)
    reports = [_walk(seq, k) for seq in seqs]
    # Per walk, the terms M_i + diag_add_low_i and J_i + diag_add_high_i;
    # they sum to the walk's morse cocharge and charge.
    terms = [
        (list(map(add, r.M, r.diag_add_low)), list(map(add, r.J, r.diag_add_high)))
        for r in reports
    ]
    cocharge_lp = sum(sum(r.L) for r in reports)
    charge_lp = sum(sum(r.I) for r in reports)
    cocharge_morse = sum(sum(low) for low, _ in terms)
    charge_morse = sum(sum(high) for _, high in terms)
    # The k-interior's size; its cells are never read.
    interior = lam.size() - _hook_facts(lam, n)[1]

    expect(
        "cocharge formulations agree",
        cocharge_lp == cocharge_morse,
        lambda: f"lp={cocharge_lp} morse={cocharge_morse}",
    )
    expect(
        "charge formulations agree",
        charge_lp == charge_morse,
        lambda: f"lp={charge_lp} morse={charge_morse}",
    )
    expect(
        "charge + cocharge = n(weight) - interior",
        charge_morse + cocharge_morse == n_stat(mu) - interior,
        lambda: f"{charge_morse} + {cocharge_morse} != {n_stat(mu)} - {interior}",
    )
    expect("charge is non-negative", charge_morse >= 0, lambda: f"charge={charge_morse}")
    expect(
        "cocharge is non-negative", cocharge_morse >= 0, lambda: f"cocharge={cocharge_morse}"
    )
    for low, high in terms:
        expect(
            "non-negative term by term",
            min(low, default=0) >= 0 and min(high, default=0) >= 0,
            lambda: f"terms {low} / {high}",
        )

    # The letter pass.  The restriction to letters <= i keeps each row's
    # count of them.  On a standard tableau each letter spans one residue,
    # so its cells are its entry in the one standard sequence: the first
    # and the last in the letter index are its lowest and highest
    # occurrences, and all its diagonals have their residue.
    standard = bool(mu) and all(part == 1 for part in mu)
    if standard:
        d_low, d_high = reports[0].diag_add_low, reports[0].diag_add_high
        # residue -> the diagonals of that residue met by letters <= i.
        meeting: dict[int, set[int]] = {}
    by_letter = tab._letter_index()
    row_counts = [0] * len(tab.rows)
    sizes = []
    not_cores = []
    # (identity, detail) of each failing diagonal rule, letter by letter.
    rule_failures = []
    for i in range(1, tab.n_letters + 1):
        cells = by_letter.get(i, ())
        sizes.append(len(cells))
        for row, _ in cells:
            row_counts[row - 1] += 1
        counts = tuple(filter(None, row_counts))
        if _hook_facts(counts, n)[0] is not None:
            not_cores.append(f"restriction to {i} has shape {Partition(counts)}")
        if standard:
            letter_diags = {col - row for row, col in cells}
            (down_row, down_col), (up_row, up_col) = cells[0], cells[-1]
            res = (up_col - up_row) % n
            met = meeting.setdefault(res, set())
            met |= letter_diags
            # The diagonals of residue res strictly between the extremes'.
            lo, hi = sorted((up_col - up_row, down_col - down_row))
            between = range(lo + n, hi, n)
            if not letter_diags.issuperset(between):
                rule_failures.append(
                    (
                        "diagonal filling between extremes",
                        f"letter {i} misses a residue-{res} diagonal in {list(between)}",
                    )
                )
            count = len(cells) + d_high[i - 1] + d_low[i - 1]
            if count != len(met):
                rule_failures.append(
                    (
                        "diagonal count through the restriction",
                        f"letter {i}: {count} != {len(met)}",
                    )
                )
    checked += len(sizes)
    for detail in not_cores:
        fail("restriction is a core", detail)

    # The entry pass.
    seen: set[Cell] = set()
    covered = 0
    bad_entries = []
    for seq in seqs:
        for e in seq.entries:
            cells = e.cells
            seen |= cells
            covered += len(cells)
            # One cell has one residue, one row and one column.
            if len(cells) > 1:
                rows, cols = zip(*cells)
                if not (
                    len({(col - row) % n for row, col in cells}) == 1
                    and len(set(rows)) == len(rows)
                    and len(set(cols)) == len(cols)
                ):
                    bad_entries.append(f"letter {e.letter} cells {sorted(cells)}")
        checked += len(seq.entries)
    expect(
        "sequences partition the cells",
        covered == len(seen) == lam.size(),
        lambda: f"{covered} cells over sequences vs {lam.size()} in shape",
    )
    for detail in bad_entries:
        fail("entry occupies one residue, distinct rows and columns", detail)

    alpha1 = mu[0] if mu else 0
    letter1 = by_letter.get(1, ())
    # The letter index lists cells bottom row first, left to right.
    expect(
        "letter 1 fills the bottom row start",
        letter1 == tuple((1, j) for j in range(1, alpha1 + 1)),
        lambda: f"letter-1 cells {sorted(letter1)}",
    )

    if standard:
        m = len(mu)
        low_side, high_side = sum(terms[0][0]), sum(terms[0][1])
        expect(
            "standard duality with explicit constant",
            high_side == m * (m - 1) // 2 - interior - low_side,
            lambda: f"{high_side} != {m}*{m - 1}/2 - {interior} - {low_side}",
        )
        checked += 2 * m
        for identity, detail in rule_failures:
            fail(identity, detail)

    if k > (lam[0] if lam else 0) + len(lam) - 2:
        counts = tuple(sizes)
        expect(
            "large k degenerates to a classical tableau",
            counts == tuple(mu),
            lambda: f"cell counts {counts} vs weight {tuple(mu)}",
        )
        classical = _classical_statistics(tab.rows)
        expect(
            "large-k charge matches the classical statistic",
            (charge_morse, cocharge_morse) == classical,
            lambda: f"k-stats ({charge_morse}, {cocharge_morse}) vs classical {classical}",
        )

    return checked, failures


def _statistics_task(args: tuple[int, tuple[int, ...]]) -> SweepReport:
    k, weight = args
    report = SweepReport()
    # Popped one at a time, so each tableau and its indexes are freed once
    # checked, in canonical order.
    tableaux = enumerate_k_tableaux(k, weight)
    tableaux.reverse()
    while tableaux:
        tab = tableaux.pop()
        ok = validate(tab, weight)
        report.identities_checked += 1
        if not ok:
            report.failures.append(
                SweepFailure("enumerated tableau validates", ok.problem or "", to_text(tab))
            )
        checked, failures = check_tableau_identities(tab)
        report.subjects_checked += 1
        report.identities_checked += checked
        report.failures.extend(failures)
    return report


def run_statistics_sweep(max_k: int, max_weight: int, processes: int = 1) -> SweepReport:
    """Check every statistics identity over all k-tableaux with k <= max_k
    and partition weight of size <= max_weight (parts <= k).  At most
    `processes` worker processes run, never more than the CPU count."""
    tasks = [(k, tuple(mu)) for k, mu in weights_up_to(max_k, max_weight)]
    report = SweepReport()
    workers = min(processes, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing  # only a parallel sweep pays for the import

        with multiprocessing.Pool(workers) as pool:
            partials = pool.map(_statistics_task, tasks)
    else:
        partials = map(_statistics_task, tasks)
    for partial in partials:
        report.merge(partial)
    return report


def run_core_sweep(max_n: int, max_cells: int) -> SweepReport:
    """Corner-exclusion and extremal-propagation checks over all n-cores
    with at most max_cells cells, 2 <= n <= max_n.

    Cores come from a brute-force filter over all partitions, independent
    of the residue-growth enumerator.
    """
    report = SweepReport()
    shapes = [
        lam for size in range(max_cells + 1) for lam in partitions(size)
    ]
    for n in range(2, max_n + 1):
        for lam in shapes:
            if not is_n_core(lam, n):
                continue
            report.subjects_checked += 1
            addable = {r for _, r in addable_corners(lam, n)}
            removable = {r for _, r in removable_corners(lam, n)}
            report.identities_checked += 1
            if addable & removable:
                report.failures.append(
                    SweepFailure(
                        "no addable and removable corner share a residue",
                        f"residues {sorted(addable & removable)}",
                        f"n={n} core {lam}",
                    )
                )
            extremal = [
                c for c in lam.cells() if not lam.contains(Cell(c.row + 1, c.col + 1))
            ]
            conj = lam.conjugate()
            for c in extremal:
                for c2 in extremal:
                    if c2 == c or residue(c, n) != residue(c2, n):
                        continue
                    report.identities_checked += 1
                    nw = c2.row >= c.row and c2.col <= c.col
                    se = c2.row <= c.row and c2.col >= c.col
                    if nw and c.col == lam[c.row - 1] and c2.col != lam[c2.row - 1]:
                        report.failures.append(
                            SweepFailure(
                                "extremal propagation along rows",
                                f"{tuple(c)} ends its row but {tuple(c2)} does not",
                                f"n={n} core {lam}",
                            )
                        )
                    if se and c.row == conj[c.col - 1] and c2.row != conj[c2.col - 1]:
                        report.failures.append(
                            SweepFailure(
                                "extremal propagation along columns",
                                f"{tuple(c)} tops its column but {tuple(c2)} does not",
                                f"n={n} core {lam}",
                            )
                        )
    return report
