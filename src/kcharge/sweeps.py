"""Exhaustive verification sweeps over enumerated k-tableaux.

Every identity relating the two charge formulations is checked on every
tableau within the requested bounds.  Every failure is recorded with the
text of its tableau, enough context to reproduce it; `verify` reports the
first 10.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import lru_cache

from .cores import Cell, Partition, _hook_facts, _partition_fault, _strict_int, n_stat, partitions
from .ktableaux import (
    KTableau,
    _sequence_fault,
    _split_sequences,
    enumerate_k_tableaux,
    standard_sequences,
    to_text,
    validate,
)
from .statistics import _charge, _class_facts, _classical_statistics, _steps


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
    partition of size <= max_size whose parts are at most k; a bound that
    is not an integer (a bool, float or string) raises ValueError."""
    max_k = _strict_int(max_k, "max_k")
    max_size = _strict_int(max_size, "max_size")
    return [
        (k, mu)
        for k in range(1, max_k + 1)
        for size in range(1, max_size + 1)
        for mu in partitions(size, max_part=k)
    ]


def _weight_facts(
    weight: tuple[int, ...],
) -> tuple[Partition, int, bool, int, tuple[tuple[int, int], ...]]:
    """(mu, n(mu), whether mu is standard, its length, letter 1's cells)
    for a partition weight mu: the facts that `check_tableau_identities`
    reads, shared by every tableau of that weight.  Letter 1 fills the
    start of the bottom row, one cell per residue."""
    mu = Partition._trusted(weight)
    alpha1 = mu[0] if mu else 0
    return (
        mu,
        n_stat(mu),
        alpha1 == 1,  # the parts of a partition are at most its first
        len(mu),
        tuple(zip((1,) * alpha1, range(1, alpha1 + 1))),
    )


@lru_cache(maxsize=4096)
def _restriction_is_core(row_counts: tuple[int, ...], n: int) -> bool:
    """Whether the restriction of a tableau with these counts per row,
    bottom row first, is an n-core.  A row may count 0 (the tableau's rows
    above the restriction, or a row whose letters all exceed it); the shape
    is the non-zero counts.  The letter pass looks its verdicts up by the
    raw counts, so the zeros are filtered only on a miss.  The counts of a
    sweep's restrictions repeat, so the cache of the 4,096 most recent keys
    decides each about once per process.  Counts that are no partition
    raise, on every call, from `_hook_facts`."""
    return _hook_facts(tuple(filter(None, row_counts)), n)[0] is None


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


def check_tableau_identities(tab: KTableau, facts=None) -> tuple[int, list[SweepFailure]]:
    """Run every identity of `IDENTITIES` on one tableau.

    `facts` is `_weight_facts(weight)` for a weight that `validate(tab,
    weight)` accepted, which a caller that checks many tableaux of one
    weight computes once: the weight is then a partition with parts at
    most k, so the standard sequences are split without checking it again
    (`ktableaux._split_sequences`) and the letters are 1..len(weight).
    Without it, `standard_sequences` checks the weight, raising ValueError
    unless it is such a partition, and the facts are computed here.
    Returns (number of identities checked, failures in `IDENTITIES` order).
    The facts are read in fused passes.  The walk loop reads each standard
    sequence as `_walk` reads it: `statistics._steps` returns its ten
    columns, which give the four totals, and the loop checks that sequence's
    L and I entry by entry.  A standard tableau's one sequence leaves its
    diagonal vectors to the letter pass.  The letter pass, over the letters,
    keeps each row's count of the letters so far and looks up whether that
    restriction is a core by the raw counts, zero rows included
    (`_restriction_is_core`), so the shape is built only for a failure's
    detail; it also gives each letter's cell count.  On a standard tableau
    it is the one pass over the letters' classes: there a letter's cells are
    its one class, its entry in the one standard sequence, and the pass
    checks both diagonal rules and the entry, and adds the class to the
    partition of the cells.  A class of more than one cell gives its entry
    verdict (one residue, distinct rows and columns), its diagonals and the
    residue diagonals it misses between its extremes from one lookup of
    `statistics._class_facts`, keyed by the class and n, the cache that
    `_steps` reads too; a one-cell class passes the entry check without one.
    Only a tableau that is not standard has an entry pass, over the entries
    of its standard sequences, which gives the partition of the cells and
    each multi-cell entry's verdict from the same lookup.  On a large-k
    tableau the identity "large k degenerates to a classical tableau", that
    each letter's cell count is its part of mu, gates the classical one:
    when it holds, the rows' classical weight is mu, so the charge is read
    by `statistics._charge`, which checks nothing, and the cocharge is n(mu)
    minus it.  When it fails, the checked `classical_charge` reads them,
    unless the cell counts are no partition and so have no classical charge,
    which fails the classical identity too.

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
    if facts is None:
        # Raises unless the weight is a partition with parts at most k.
        seqs = standard_sequences(tab)
        mu, n_weight, standard, m, letter1_expected = _weight_facts(tab.weight)
    else:
        # The caller's `validate(tab, mu)` showed that mu is the weight.
        mu, n_weight, standard, m, letter1_expected = facts
        seqs = _split_sequences(tab, mu)
    lam = tab.shape
    # (identity, detail) of each failure, in the order the passes find them.
    found: list[tuple[Identity, str]] = []

    cocharge_lp = charge_lp = cocharge_morse = charge_morse = 0
    for seq in seqs:
        L, M, I, J, _, _, add_low, add_high, _, _ = _steps(seq, n)
        cocharge_lp += sum(L)
        charge_lp += sum(I)
        cocharge_morse += sum(M) + sum(add_low)
        charge_morse += sum(J) + sum(add_high)
        if min(L) < 0 or min(I) < 0:
            found.append((LP_ENTRIES, f"L {L} / I {I}"))
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

    # The letter pass.  The restriction to letters <= i keeps each row's
    # count of them.  On a standard tableau each letter spans one residue,
    # so its cells are its entry in the one standard sequence, whose class
    # gives its entry verdict, its diagonals and the filling verdict
    # (`_class_facts`), and its share of the partition of the cells.
    seen: set[Cell] = set()
    covered = entries = 0
    if standard:
        # Letter 1 has one cell, so the tableau has one standard sequence,
        # whose diagonal corrections the walk loop left in add_low and
        # add_high.
        standard_entries = seqs[0].entries
        entries = m
        # residue -> the diagonals of that residue met by letters <= i.
        meeting: dict[int, set[int]] = {}
    by_letter = tab._letter_index()
    # A partition weight has no zero part: the letters are 1..len(mu).
    letters = range(1, m + 1)
    row_counts = [0] * len(tab.rows)
    is_core = _restriction_is_core
    class_facts = _class_facts
    for i in letters:
        cells = by_letter.get(i, ())
        for row, _ in cells:
            row_counts[row - 1] += 1
        if not is_core(tuple(row_counts), n):
            shape = Partition(filter(None, row_counts))
            found.append((CORE, f"restriction to {i} has shape {shape}"))
        if standard:
            _, res, letter_class = standard_entries[i - 1]
            seen |= letter_class
            covered += len(letter_class)
            met = meeting.get(res)
            if met is None:
                met = meeting[res] = set()
            if len(cells) == 1:
                # One cell is both extremes, with no diagonal between them,
                # and has one residue, one row and one column.
                ((row, col),) = cells
                met.add(col - row)
            else:
                _, _, _, one_class, diagonals, missed = class_facts(letter_class, n)
                if not one_class:
                    found.append((ENTRY, f"letter {i} cells {sorted(letter_class)}"))
                met |= diagonals
                if missed is not None:
                    detail = f"letter {i} misses a residue-{res} diagonal in {list(missed)}"
                    found.append((FILLING, detail))
            count = len(cells) + add_high[i - 1] + add_low[i - 1]
            if count != len(met):
                found.append((MEETING, f"letter {i}: {count} != {len(met)}"))

    # The entry pass, over the sequences of a tableau that is not standard.
    if not standard:
        for seq in seqs:
            entries += len(seq.entries)
            for letter, _, cells in seq.entries:
                seen |= cells
                covered += len(cells)
                # One cell has one residue, one row and one column.
                if len(cells) > 1 and not class_facts(cells, n)[3]:
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
        if counts == mu:
            # The classical weight is mu, a partition, and the letters are
            # 1..m: the trusted loop's precondition.
            charge = _charge(tab.rows, m)
            classical = charge, n_weight - charge
        else:
            found.append((LARGE_K, f"cell counts {counts} vs weight {tuple(mu)}"))
            # Cell counts that are no partition have no classical charge.
            classical = None if _partition_fault(counts) else _classical_statistics(tab.rows)
        if classical is None:
            found.append((CLASSICAL, f"cell counts {counts} are not a partition"))
        elif (charge_morse, cocharge_morse) != classical:
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
    facts = _weight_facts(weight)  # every tableau that validates has this weight
    while tableaux:
        tab = tableaux.pop()
        ok = validate(tab, weight)
        if ok:
            checked, failures = check_tableau_identities(tab, facts)
        else:
            failed.append(SweepFailure(VALIDATES.name, ok.problem or "", to_text(tab)))
            if not validate(tab) or _sequence_fault(tab.weight, k) is not None:
                # The identities are defined only on a k-tableau whose weight
                # has standard sequences: validation is the one checked here.
                continue
            checked, failures = check_tableau_identities(tab)
        identities += checked
        failed += failures
    return SweepReport(subjects, identities, failed)


def run_statistics_sweep(max_k: int, max_weight: int, processes: int = 1) -> SweepReport:
    """Check every statistics identity over all k-tableaux with k <= max_k
    and partition weight of size <= max_weight (parts <= k).  Both bounds
    and `processes` must be positive integers; a bool, float, string or
    zero raises ValueError before any task is built.  At most `processes`
    worker processes run, never more than the CPU count; they take the
    (k, weight) tasks largest first, and the report merges them in
    canonical order, so it is the serial report whatever the count."""
    max_k = _strict_int(max_k, "max-k")
    max_weight = _strict_int(max_weight, "max-weight")
    processes = _strict_int(processes, "processes")
    if max_k < 1:
        raise ValueError(f"max-k must be positive, got {max_k}")
    if max_weight < 1:
        raise ValueError(f"max-weight must be positive, got {max_weight}")
    if processes < 1:
        raise ValueError(f"processes must be positive, got {processes}")
    tasks = [(k, tuple(mu)) for k, mu in weights_up_to(max_k, max_weight)]
    report = SweepReport()
    workers = min(processes, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing  # only a parallel sweep pays for the import

        # The largest tasks start first, so that no worker runs one alone at
        # the end: by |mu|, then the number of parts, then k, all
        # descending, a key known before enumeration.  One task per chunk.
        ordered = sorted(
            tasks, key=lambda task: (sum(task[1]), len(task[1]), task[0]), reverse=True
        )
        with multiprocessing.Pool(workers) as pool:
            done = dict(zip(ordered, pool.map(_statistics_task, ordered, chunksize=1)))
        # Merged in canonical order, so the failure order is the serial one.
        partials = [done[task] for task in tasks]
    else:
        partials = map(_statistics_task, tasks)
    for partial in partials:
        report.merge(partial)
    return report
