"""Exhaustive verification sweeps over enumerated k-tableaux.

Every identity relating the two charge formulations is checked on every
tableau within the requested bounds; the first counterexample, if any,
is reported with enough context to reproduce it.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import lru_cache

from .cores import Cell, Partition, _hook_facts, n_stat, partitions
from .ktableaux import (
    KTableau,
    enumerate_k_tableaux,
    standard_sequences,
    to_text,
    validate,
)
from .statistics import _classical_statistics, _steps


# One failed check: the identity's name, what failed, and the text of the
# tableau it failed on.
SweepFailure = namedtuple("SweepFailure", "identity detail context")


class SweepReport:
    """The counts of a sweep and its failures in order; `merge` adds
    another report's.  Reports compare by their fields."""

    __slots__ = ("subjects_checked", "identities_checked", "failures")

    def __init__(
        self,
        subjects_checked: int = 0,
        identities_checked: int = 0,
        failures: list[SweepFailure] | None = None,
    ) -> None:
        self.subjects_checked = subjects_checked
        self.identities_checked = identities_checked
        self.failures = [] if failures is None else failures

    def __eq__(self, other: object) -> bool:
        if type(other) is not SweepReport:
            return NotImplemented
        return (self.subjects_checked, self.identities_checked, self.failures) == (
            other.subjects_checked,
            other.identities_checked,
            other.failures,
        )

    def __repr__(self) -> str:
        return (
            f"SweepReport(subjects_checked={self.subjects_checked!r}, "
            f"identities_checked={self.identities_checked!r}, failures={self.failures!r})"
        )

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


# An identity of the sweep: its name as FAIL output prints it, what it is
# checked once for, and the position at which a tableau's failures of it
# are reported.
Identity = namedtuple("Identity", "name per position")


# A sweep validates each enumerated tableau before its other identities.
VALIDATES = Identity("enumerated tableau validates", "tableau", -1)
# Every identity `check_tableau_identities` checks, in failure order.  A
# tableau's failures are sorted by position, stably: the two diagonal rules
# share one, so theirs stay letter by letter.  `identities checked` counts
# each identity once per unit of what it is checked for.
IDENTITIES = (
    COCHARGE_AGREE := Identity("cocharge formulations agree", "tableau", 0),
    CHARGE_AGREE := Identity("charge formulations agree", "tableau", 1),
    DUALITY := Identity("charge + cocharge = n(weight) - interior", "tableau", 2),
    LP_CHARGE := Identity("lp charge is non-negative", "tableau", 3),
    LP_COCHARGE := Identity("lp cocharge is non-negative", "tableau", 4),
    LP_ENTRIES := Identity("lp non-negative entry by entry", "standard sequence", 5),
    CORE := Identity("restriction is a core", "letter", 6),
    PARTITION := Identity("sequences partition the cells", "tableau", 7),
    ENTRY := Identity("entry occupies one residue, distinct rows and columns", "entry", 8),
    LETTER_1 := Identity("letter 1 fills the bottom row start", "tableau", 9),
    STANDARD_DUALITY := Identity("standard duality with explicit constant", "standard tableau", 10),
    FILLING := Identity("diagonal filling between extremes", "standard letter", 11),
    MEETING := Identity("diagonal count through the restriction", "standard letter", 11),
    LARGE_K := Identity("large k degenerates to a classical tableau", "large-k tableau", 12),
    CLASSICAL := Identity("large-k charge matches the classical statistic", "large-k tableau", 13),
)
# How many identities are checked once per unit, read once from the
# declaration; a unit that is not listed here fails the import.
_PER_UNIT = dict.fromkeys(
    (
        "tableau",
        "standard sequence",
        "letter",
        "entry",
        "standard tableau",
        "standard letter",
        "large-k tableau",
    ),
    0,
)
for _identity in IDENTITIES:
    _PER_UNIT[_identity.per] += 1
(
    _PER_TABLEAU,
    _PER_SEQUENCE,
    _PER_LETTER,
    _PER_ENTRY,
    _PER_STANDARD_TABLEAU,
    _PER_STANDARD_LETTER,
    _PER_LARGE_K,
) = _PER_UNIT.values()


def check_tableau_identities(tab: KTableau) -> tuple[int, list[SweepFailure]]:
    """Run every identity of `IDENTITIES` on one tableau.

    Returns (number of identities checked, failures in `IDENTITIES` order).
    The facts are read in fused passes.  Each standard sequence is read as
    `_walk` reads it: `statistics._steps` returns its ten columns, which
    give the four totals, each sequence's L and I entries and the diagonal
    vectors.  The letter pass, over letters 1..max, gives each
    restriction's shape, each letter's cell count and, on a standard
    tableau, both diagonal rules.  The entry pass, over the entries of the
    standard sequences, gives the partition of the cells and each entry's
    residue, rows and columns.  The large-k identity reads the classical
    charge and cocharge from one classical charge computation.

    The sign identities read `lp`, the formulation that is not manifestly
    non-negative.  That its totals are non-negative is the theorem; that
    each L and I entry is, is only measured (no negative entry among the
    111,468 standard sequences of `verify --max-k 7 --max-weight 10`).

    A failing check records its identity and its detail, rendered only in
    the failing branch; the failures are put in order at the end.  The
    count of identities checked is the per-unit totals of `IDENTITIES`
    times the units this tableau has.
    """
    k = tab.k
    n = k + 1
    seqs = standard_sequences(tab)
    # `standard_sequences` raises unless the weight is a partition.
    mu, n_weight, standard, m, letter1_expected = _weight_facts(tab.weight)
    lam = tab.shape
    # (identity, detail) of each failure, in the order the passes find them.
    found: list[tuple[Identity, str]] = []

    cocharge_lp = charge_lp = cocharge_morse = charge_morse = 0
    # Per sequence, the lp columns and the diagonal corrections.
    walks = []
    for seq in seqs:
        L, M, I, J, _, _, add_low, add_high, _, _ = _steps(seq, n)
        cocharge_lp += sum(L)
        charge_lp += sum(I)
        cocharge_morse += sum(M) + sum(add_low)
        charge_morse += sum(J) + sum(add_high)
        walks.append((L, I, add_low, add_high))
    # The k-interior's size; its cells are never read.
    interior = lam.size() - _hook_facts(lam, n)[1]

    if cocharge_lp != cocharge_morse:
        found.append((COCHARGE_AGREE, f"lp={cocharge_lp} morse={cocharge_morse}"))
    if charge_lp != charge_morse:
        found.append((CHARGE_AGREE, f"lp={charge_lp} morse={charge_morse}"))
    if charge_morse + cocharge_morse != n_weight - interior:
        found.append((DUALITY, f"{charge_morse} + {cocharge_morse} != {n_weight} - {interior}"))
    if charge_lp < 0:
        found.append((LP_CHARGE, f"charge={charge_lp}"))
    if cocharge_lp < 0:
        found.append((LP_COCHARGE, f"cocharge={cocharge_lp}"))
    for L, I, _, _ in walks:
        if min(L) < 0 or min(I) < 0:
            found.append((LP_ENTRIES, f"L {L} / I {I}"))

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
    letters = range(1, max(by_letter, default=0) + 1)
    row_counts = [0] * len(tab.rows)
    hook_facts = _hook_facts
    for i in letters:
        cells = by_letter.get(i, ())
        for row, _ in cells:
            row_counts[row - 1] += 1
        counts = tuple(filter(None, row_counts))
        if hook_facts(counts, n)[0] is not None:
            found.append((CORE, f"restriction to {i} has shape {Partition(counts)}"))
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
                    detail = f"letter {i} misses a residue-{res} diagonal in {list(between)}"
                    found.append((FILLING, detail))
            count = len(cells) + d_high[i - 1] + d_low[i - 1]
            if count != len(met):
                found.append((MEETING, f"letter {i}: {count} != {len(met)}"))

    # The entry pass.
    seen: set[Cell] = set()
    covered = entries = 0
    for seq in seqs:
        entries += len(seq.entries)
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
                    found.append((ENTRY, f"letter {letter} cells {sorted(cells)}"))
    if not covered == len(seen) == lam.size():
        found.append((PARTITION, f"{covered} cells over sequences vs {lam.size()} in shape"))

    letter1 = by_letter.get(1, ())
    # The letter index lists cells bottom row first, left to right.
    if letter1 != letter1_expected:
        found.append((LETTER_1, f"letter-1 cells {sorted(letter1)}"))

    if standard and charge_morse != m * (m - 1) // 2 - interior - cocharge_morse:
        detail = f"{charge_morse} != {m}*{m - 1}/2 - {interior} - {cocharge_morse}"
        found.append((STANDARD_DUALITY, detail))

    large = k > (lam[0] if lam else 0) + len(lam) - 2
    if large:
        counts = tuple([len(by_letter.get(i, ())) for i in letters])
        if counts != tuple(mu):
            found.append((LARGE_K, f"cell counts {counts} vs weight {tuple(mu)}"))
        classical = _classical_statistics(tab.rows)
        if (charge_morse, cocharge_morse) != classical:
            detail = f"k-stats ({charge_morse}, {cocharge_morse}) vs classical {classical}"
            found.append((CLASSICAL, detail))

    checked = (
        _PER_TABLEAU
        + _PER_SEQUENCE * len(seqs)
        + _PER_LETTER * len(letters)
        + _PER_ENTRY * entries
    )
    if standard:
        checked += _PER_STANDARD_TABLEAU + _PER_STANDARD_LETTER * m
    if large:
        checked += _PER_LARGE_K
    if not found:
        return checked, []
    found.sort(key=lambda failure: failure[0].position)
    context = to_text(tab)
    return checked, [SweepFailure(identity.name, detail, context) for identity, detail in found]


def _statistics_task(args: tuple[int, tuple[int, ...]]) -> SweepReport:
    k, weight = args
    # Popped one at a time, so each tableau and its indexes are freed once
    # checked, in canonical order.
    tableaux = enumerate_k_tableaux(k, weight)
    tableaux.reverse()
    subjects = len(tableaux)
    # Each tableau's validation is one identity.
    identities = subjects
    failed: list[SweepFailure] = []
    while tableaux:
        tab = tableaux.pop()
        ok = validate(tab, weight)
        if not ok:
            failed.append(SweepFailure(VALIDATES.name, ok.problem or "", to_text(tab)))
        checked, failures = check_tableau_identities(tab)
        identities += checked
        failed += failures
    return SweepReport(subjects, identities, failed)


def run_statistics_sweep(max_k: int, max_weight: int, processes: int = 1) -> SweepReport:
    """Check every statistics identity over all k-tableaux with k <= max_k
    and partition weight of size <= max_weight (parts <= k).  Both bounds
    must be positive; a zero bound raises ValueError before any task is
    built, as it would check nothing.  At most `processes` worker processes
    run, never more than the CPU count."""
    if max_k < 1:
        raise ValueError(f"max-k must be positive, got {max_k}")
    if max_weight < 1:
        raise ValueError(f"max-weight must be positive, got {max_weight}")
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
