"""Exhaustive verification sweeps over enumerated k-tableaux and cores.

Every identity relating the two charge formulations is checked on every
tableau within the requested bounds; the first counterexample, if any,
is reported with enough context to reproduce it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add

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
from .statistics import _classical_statistics, _steps


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


@lru_cache(maxsize=1024)
def _weight_facts(
    weight: tuple[int, ...],
) -> tuple[Partition, int, bool, int, tuple[tuple[int, int], ...]]:
    """(mu, n(mu), whether mu is standard, its length, letter 1's cells)
    for a partition weight mu: the facts that `check_tableau_identities`
    reads, shared by every tableau of that weight.  A sweep checks all the
    tableaux of one weight together, and 5/7 has 41 distinct weights among
    its 1,211 tableaux (6/9: 89 among 12,981).  Letter 1 fills the start
    of the bottom row, one cell per residue."""
    mu = Partition._trusted(weight)
    alpha1 = mu[0] if mu else 0
    return (
        mu,
        n_stat(mu),
        alpha1 == 1,  # the parts of a partition are at most its first
        len(mu),
        tuple(zip((1,) * alpha1, range(1, alpha1 + 1))),
    )


def check_tableau_identities(tab: KTableau) -> tuple[int, list[SweepFailure]]:
    """Run every statistics-module identity on one tableau.

    Returns (number of identities checked, failures).  The facts are read
    in fused passes.  Each standard sequence is read as `_walk` reads it,
    as the columns of its steps (`statistics._steps`); they give the four
    totals, each sequence's terms and the diagonal vectors.  The letter
    pass, over letters 1..n_letters, gives each restriction's shape, each
    letter's cell count and, on a standard tableau, both diagonal rules.
    The entry pass, over the entries of the standard sequences, gives the
    partition of the cells and each entry's residue, rows and columns.  The
    large-k identity reads the classical charge and cocharge from one
    classical charge computation.

    Failures are reported in a fixed order, whichever pass found them: the
    totals, the terms of each sequence, the restrictions by letter, the
    partition of the cells, the entries, letter 1, the standard duality and
    then its two rules letter by letter, and last the two large-k
    identities.  Each failure's detail text is rendered only when that
    identity fails.
    """
    k = tab.k
    n = k + 1
    seqs = standard_sequences(tab)
    # `standard_sequences` raises unless the weight is a partition.
    mu, n_weight, standard, m, letter1_expected = _weight_facts(tab.weight)
    lam = tab.shape
    checked = 0
    failures: list[SweepFailure] = []

    def fail(identity: str, detail: str) -> None:
        failures.append(SweepFailure(identity, detail, to_text(tab)))

    cocharge_lp = charge_lp = cocharge_morse = charge_morse = 0
    # Per sequence, the columns that the morse terms are read from.
    walks = []
    for seq in seqs:
        L, M, I, J, _, _, add_low, add_high, _, _ = zip(*_steps(seq, n))
        cocharge_lp += sum(L)
        charge_lp += sum(I)
        cocharge_morse += sum(M) + sum(add_low)
        charge_morse += sum(J) + sum(add_high)
        walks.append((M, J, add_low, add_high))
    # The k-interior's size; its cells are never read.
    interior = lam.size() - _hook_facts(lam, n)[1]

    # Each identity is counted, then tested; its detail is rendered only in
    # the failing branch.
    checked += 1
    if cocharge_lp != cocharge_morse:
        fail("cocharge formulations agree", f"lp={cocharge_lp} morse={cocharge_morse}")
    checked += 1
    if charge_lp != charge_morse:
        fail("charge formulations agree", f"lp={charge_lp} morse={charge_morse}")
    checked += 1
    if charge_morse + cocharge_morse != n_weight - interior:
        fail(
            "charge + cocharge = n(weight) - interior",
            f"{charge_morse} + {cocharge_morse} != {n_weight} - {interior}",
        )
    checked += 1
    if charge_morse < 0:
        fail("charge is non-negative", f"charge={charge_morse}")
    checked += 1
    if cocharge_morse < 0:
        fail("cocharge is non-negative", f"cocharge={cocharge_morse}")
    for M, J, add_low, add_high in walks:
        checked += 1
        if min(map(add, M, add_low)) < 0 or min(map(add, J, add_high)) < 0:
            fail(
                "non-negative term by term",
                f"terms {list(map(add, M, add_low))} / {list(map(add, J, add_high))}",
            )

    # The letter pass.  The restriction to letters <= i keeps each row's
    # count of them.  On a standard tableau each letter spans one residue,
    # so its cells are its entry in the one standard sequence: the first
    # and the last in the letter index are its lowest and highest
    # occurrences, and all its diagonals have their residue.
    if standard:
        # Letter 1 has one cell, so the tableau has one standard sequence.
        _, _, d_low, d_high = walks[0]
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
            up_row, up_col = cells[-1]
            res = (up_col - up_row) % n
            met = meeting.get(res)
            if met is None:
                met = meeting[res] = set()
            if len(cells) == 1:
                # One cell is both extremes, with no diagonal between them.
                met.add(up_col - up_row)
            else:
                letter_diags = {col - row for row, col in cells}
                met |= letter_diags
                down_row, down_col = cells[0]
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
        for letter, _, cells in seq.entries:
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
                    bad_entries.append(f"letter {letter} cells {sorted(cells)}")
        checked += len(seq.entries)
    checked += 1
    if not covered == len(seen) == lam.size():
        fail(
            "sequences partition the cells",
            f"{covered} cells over sequences vs {lam.size()} in shape",
        )
    for detail in bad_entries:
        fail("entry occupies one residue, distinct rows and columns", detail)

    letter1 = by_letter.get(1, ())
    # The letter index lists cells bottom row first, left to right.
    checked += 1
    if letter1 != letter1_expected:
        fail("letter 1 fills the bottom row start", f"letter-1 cells {sorted(letter1)}")

    if standard:
        checked += 1
        if charge_morse != m * (m - 1) // 2 - interior - cocharge_morse:
            fail(
                "standard duality with explicit constant",
                f"{charge_morse} != {m}*{m - 1}/2 - {interior} - {cocharge_morse}",
            )
        checked += 2 * m
        for identity, detail in rule_failures:
            fail(identity, detail)

    if k > (lam[0] if lam else 0) + len(lam) - 2:
        counts = tuple(sizes)
        checked += 1
        if counts != tuple(mu):
            fail(
                "large k degenerates to a classical tableau",
                f"cell counts {counts} vs weight {tuple(mu)}",
            )
        classical = _classical_statistics(tab.rows)
        checked += 1
        if (charge_morse, cocharge_morse) != classical:
            fail(
                "large-k charge matches the classical statistic",
                f"k-stats ({charge_morse}, {cocharge_morse}) vs classical {classical}",
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
            # One task per chunk: the default chunks put the largest tasks
            # together in the last one, which one worker then runs alone.
            partials = pool.map(_statistics_task, tasks, chunksize=1)
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
