"""Exhaustive verification sweeps over enumerated k-tableaux and cores.

Every identity relating the two charge formulations is checked on every
tableau within the requested bounds; the first counterexample, if any,
is reported with enough context to reproduce it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
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
    highest_occurrence,
    lowest_occurrence,
    standard_sequences,
    to_text,
    validate,
)
from .statistics import _walk, classical_charge, classical_cocharge


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

    Returns (number of identities checked, failures).  Each identity's
    detail text is rendered only when that identity fails.  The per-letter
    checks carry their state from letter to letter (each row's count of
    letters so far, each residue's diagonals so far), so every cell is read
    once per rule.
    """
    k = tab.k
    n = k + 1
    mu = Partition(tab.weight)
    lam = tab.shape
    checked = 0
    failures: list[SweepFailure] = []

    def expect(identity: str, condition: bool, detail: Callable[[], str]) -> None:
        nonlocal checked
        checked += 1
        if not condition:
            failures.append(SweepFailure(identity, detail(), to_text(tab)))

    seqs = standard_sequences(tab)
    reports = [_walk(seq, k) for seq in seqs]
    cocharge_lp = sum(r.cocharge_lp() for r in reports)
    cocharge_morse = sum(r.cocharge_morse() for r in reports)
    charge_lp = sum(r.charge_lp() for r in reports)
    charge_morse = sum(r.charge_morse() for r in reports)
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
    for r in reports:
        terms_low = [m + d for m, d in zip(r.M, r.diag_add_low)]
        terms_high = [j + d for j, d in zip(r.J, r.diag_add_high)]
        expect(
            "non-negative term by term",
            all(t >= 0 for t in terms_low) and all(t >= 0 for t in terms_high),
            lambda: f"terms {terms_low} / {terms_high}",
        )

    # The restriction to letters <= i keeps each row's count of them.
    row_counts = [0] * len(tab.rows)
    for i in range(1, tab.n_letters + 1):
        for c in tab.cells_of(i):
            row_counts[c.row - 1] += 1
        counts = tuple(filter(None, row_counts))
        expect(
            "restriction is a core",
            _hook_facts(counts, n)[0] is None,
            lambda: f"restriction to {i} has shape {Partition(counts)}",
        )

    all_cells = [c for seq in seqs for e in seq.entries for c in e.cells]
    expect(
        "sequences partition the cells",
        len(all_cells) == len(set(all_cells)) == lam.size(),
        lambda: f"{len(all_cells)} cells over sequences vs {lam.size()} in shape",
    )
    for seq in seqs:
        for e in seq.entries:
            rows = [c.row for c in e.cells]
            cols = [c.col for c in e.cells]
            expect(
                "entry occupies one residue, distinct rows and columns",
                len({(c.col - c.row) % n for c in e.cells}) == 1
                and len(set(rows)) == len(rows)
                and len(set(cols)) == len(cols),
                lambda: f"letter {e.letter} cells {sorted(e.cells)}",
            )
    alpha1 = mu[0] if mu else 0
    expect(
        "letter 1 fills the bottom row start",
        set(tab.cells_of(1)) == {Cell(1, j) for j in range(1, alpha1 + 1)},
        lambda: f"letter-1 cells {sorted(tab.cells_of(1))}",
    )

    if mu and all(part == 1 for part in mu):
        m = len(mu)
        seq, report = seqs[0], reports[0]
        low_side = report.cocharge_morse()
        high_side = report.charge_morse()
        expect(
            "standard duality with explicit constant",
            high_side == m * (m - 1) // 2 - interior - low_side,
            lambda: f"{high_side} != {m}*{m - 1}/2 - {interior} - {low_side}",
        )
        d_low, d_high = report.diag_add_low, report.diag_add_high
        # residue -> the diagonals of that residue met by letters <= i.
        meeting: dict[int, set[int]] = {}
        for i in range(1, m + 1):
            up, down = highest_occurrence(seq, i), lowest_occurrence(seq, i)
            res = residue(up, n)
            letter_diags = {c.diagonal for c in tab.cells_of(i)}
            for d in letter_diags:
                meeting.setdefault(d % n, set()).add(d)
            between = [
                d
                for d in range(min(up.diagonal, down.diagonal) + 1, max(up.diagonal, down.diagonal))
                if d % n == res
            ]
            expect(
                "diagonal filling between extremes",
                all(d in letter_diags for d in between),
                lambda: f"letter {i} misses a residue-{res} diagonal in {between}",
            )
            met = len(meeting.get(res, ()))
            count = len(tab.cells_of(i)) + d_high[i - 1] + d_low[i - 1]
            expect(
                "diagonal count through the restriction",
                count == met,
                lambda: f"letter {i}: {count} != {met}",
            )

    if k > (lam[0] if lam else 0) + len(lam) - 2:
        counts = tuple(len(tab.cells_of(i)) for i in range(1, tab.n_letters + 1))
        expect(
            "large k degenerates to a classical tableau",
            counts == tuple(mu),
            lambda: f"cell counts {counts} vs weight {tuple(mu)}",
        )
        classical = (classical_charge(tab.rows), classical_cocharge(tab.rows))
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
