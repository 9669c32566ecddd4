"""Literal definitions that the tests check the library against.

Each is written cell by cell from its definition and shares no loop with
the library's integer rules: `cores._hook_facts` (one pass over a shape's
hook lengths, cached), `cores._corner_residues` (the addable corners as
residues of row numbers), `ktableaux.to_text` (a cached layout per shape,
filled with the letters), `ktableaux._enumerate_fast` (the weak-strip
grower, checked against `_enumerate_oracle`), `statistics._steps` (the
one-pass step rule, checked against `_walk_literal`),
`statistics.classical_charge` (per-letter position lists, checked against
`classical_charge_literal`, which rebuilds the word) and
`KTableau._index` (one pass against a kept reading layout per shape,
checked against `literal_index`).  A test that compares the two thus
compares two independent computations.  Residues are (col - row) mod n
(`residue`), bounded hooks are counted one cell at a time with
`hook_length` (`k_bounded_hooks`), and a residue ranks above another when
it comes first in `ResidueOrder.descending()` (`greater`), so none of
them reads `_hook_facts` or the modular ranks that `_steps` inlines.  The
restrictions, occurrences, addable cells, residue orders and `diag` are
the definitions `_walk_literal` reads, `enumerate_cores` the cores that
`_enumerate_oracle` fills (grown with `cores.add_residue_class`, and
checked against a brute-force `is_n_core` filter), and `enumerate_ssyt`
the classical fillings that the Kostka-Foulkes tests count.  None of
these is part of the kcharge API.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from kcharge.cores import (
    Cell,
    Partition,
    _partition_fault,
    _strict_int,
    _strict_k,
    add_residue_class,
    partition_sort_key,
    semistandard_fillings,
)
from kcharge.ktableaux import KTableau, SequenceEntry, StandardSequence, validate
from kcharge.statistics import ResidueOrder, SequenceReport


def residue(cell: Cell, n: int) -> int:
    """The cell's n-residue, (col - row) mod n: constant along diagonals,
    0 on the main diagonal."""
    return (cell.col - cell.row) % n


def diagonal(cell: Cell) -> int:
    """The cell's diagonal index col - row, positive below/right of the
    main diagonal."""
    return cell.col - cell.row


def contains(shape, cell: Cell) -> bool:
    """True iff the cell lies inside the diagram of the shape."""
    return 1 <= cell.row <= len(shape) and 1 <= cell.col <= shape[cell.row - 1]


def hook_length(shape, cell):
    """Arm + leg + 1 of a cell inside the diagram."""
    shape = Partition(shape)
    if not contains(shape, cell):
        raise ValueError(f"cell {tuple(cell)} outside shape {shape}")
    arm = shape[cell.row - 1] - cell.col
    leg = shape.conjugate()[cell.col - 1] - cell.row
    return arm + leg + 1


def is_n_core(shape, n):
    """True iff no cell of the shape has hook length exactly n."""
    if n < 2:
        raise ValueError(f"core modulus must be at least 2, got {n}")
    shape = Partition(shape)
    return all(hook_length(shape, cell) != n for cell in shape.cells())


def k_interior(shape, k):
    """Cells with hook length exceeding k."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    shape = Partition(shape)
    return frozenset(cell for cell in shape.cells() if hook_length(shape, cell) > k)


def k_bounded_hooks(shape, k):
    """The number of cells with hook length at most k, counted one cell at
    a time."""
    shape = Partition(shape)
    return sum(1 for cell in shape.cells() if hook_length(shape, cell) <= k)


def addable_corners(shape, n):
    """(cell, n-residue) of each cell just outside the diagram whose
    addition leaves a partition, in ascending row order.  Row 0 counts as
    filled, so the first row and the new top row always have one."""
    corners = [
        Cell(i, part + 1)
        for i, part in enumerate(shape, start=1)
        if i == 1 or shape[i - 2] > part
    ]
    corners.append(Cell(len(shape) + 1, 1))
    return [(c, residue(c, n)) for c in corners]


def removable_corners(shape, n):
    """(cell, n-residue) of each cell of the diagram whose removal leaves a
    partition, in ascending row order."""
    corners = [
        Cell(i, part)
        for i, part in enumerate(shape, start=1)
        if i == len(shape) or shape[i] < part
    ]
    return [(c, residue(c, n)) for c in corners]


def enumerate_cores(n: int, max_bounded_hooks: int) -> list[Partition]:
    """All n-cores with at most the given number of (n-1)-bounded hooks,
    the cores `_enumerate_oracle` fills.

    Grown breadth-first from the empty core by repeatedly filling all
    addable corners of a single residue (each such step adds exactly one
    bounded hook).  Output is deduplicated and sorted canonically.  Both
    arguments must be integers (bools, floats and strings raise ValueError).
    """
    n = _strict_int(n, "core modulus")
    max_bounded_hooks = _strict_int(max_bounded_hooks, "bound")
    if n < 2:
        raise ValueError(f"core modulus must be at least 2, got {n}")
    if max_bounded_hooks < 0:
        raise ValueError("bound must be non-negative")
    seen = {Partition()}
    frontier = [Partition()]
    for _ in range(max_bounded_hooks):
        grown: list[Partition] = []
        for core in frontier:
            for res in range(n):
                child = add_residue_class(core, n, res)
                if child is not None and child not in seen:
                    seen.add(child)
                    grown.append(child)
        frontier = grown
    return sorted(seen, key=partition_sort_key)


def to_text(tab):
    """The text form of a k-tableau, written cell by cell: the "k=<k>"
    header, then each row, top row first, as "letter_residue" entries,
    each residue that of the entry's 1-based cell (row i, column j)."""
    n = tab.k + 1
    lines = [f"k={tab.k}"]
    for i in range(len(tab.rows), 0, -1):
        row = tab.rows[i - 1]
        lines.append(" ".join(f"{x}_{residue(Cell(i, j), n)}" for j, x in enumerate(row, start=1)))
    return "\n".join(lines) + "\n"


def cells_of(tab: KTableau, letter: int) -> tuple[Cell, ...]:
    """The cells holding the letter, bottom row first and left to right."""
    letter = _strict_int(letter, "letter")
    return tuple(
        Cell(i, j)
        for i, row in enumerate(tab.rows, start=1)
        for j, x in enumerate(row, start=1)
        if x == letter
    )


def literal_index(
    tab: KTableau,
) -> tuple[dict[int, tuple[Cell, ...]], dict[int, dict[int, frozenset[Cell]]], tuple | None]:
    """The tableau's letter index, residue-class index and recorded weight,
    read cell by cell with each residue from `residue`: letter -> its cells
    bottom row first and left to right, letter -> (residue -> the letter's
    cells of it) with residues in order of first cell, and each letter's
    class count when the letters are 1..r with none missing, else None."""
    n = tab.k + 1
    by_letter: dict[int, list[Cell]] = {}
    by_residue: dict[int, dict[int, set[Cell]]] = {}
    for i, row in enumerate(tab.rows, start=1):
        for j, x in enumerate(row, start=1):
            cell = Cell(i, j)
            by_letter.setdefault(x, []).append(cell)
            by_residue.setdefault(x, {}).setdefault(residue(cell, n), set()).add(cell)
    classes = {
        x: {r: frozenset(cs) for r, cs in by_res.items()} for x, by_res in by_residue.items()
    }
    letters = range(1, len(classes) + 1)
    weight = tuple(len(classes[x]) for x in letters) if set(classes) == set(letters) else None
    return {x: tuple(cs) for x, cs in by_letter.items()}, classes, weight


def restrict_leq(tab: KTableau, letter: int) -> KTableau:
    """The sub-tableau on cells with letters <= letter."""
    letter = _strict_int(letter, "letter")
    if not 1 <= letter <= tab.n_letters:
        raise ValueError(f"letter {letter} out of range 1..{tab.n_letters}")
    kept = []
    for row in tab.rows:
        count = sum(1 for x in row if x <= letter)
        if any(x > letter for x in row[:count]):
            raise ValueError(f"letters <= {letter} do not form row prefixes")
        if count:
            kept.append(row[:count])
    return KTableau(tab.k, kept)


def _enumerate_oracle(k: int, weight: Sequence[int]) -> list[KTableau]:
    """The tests' reference for `_enumerate_fast`: brute-forces all
    fillings of all candidate core shapes and filters by `validate`.  Its
    order is not canonical."""
    n = k + 1
    m = sum(weight)
    shapes = [s for s in enumerate_cores(n, m) if k_bounded_hooks(s, k) == m]
    found = []
    for shape in shapes:
        for rows in semistandard_fillings(shape, len(weight)):
            tab = KTableau(k, rows)
            if tab.weight == tuple(weight) and validate(tab, weight).ok:
                found.append(tab)
    return found


def entry(seq: StandardSequence, letter: int) -> SequenceEntry:
    """The sequence's entry of the letter, 1..len(seq)."""
    letter = _strict_int(letter, "letter")
    if not 1 <= letter <= len(seq.entries):
        raise ValueError(f"letter {letter} not in sequence of length {len(seq)}")
    return seq.entries[letter - 1]


def restrict_sequence(seq: StandardSequence, letter: int) -> frozenset[Cell]:
    """Union of the sequence's cells for letters <= letter (a scattered set)."""
    entry(seq, letter)
    return frozenset(
        c for e in seq.entries[:letter] for c in e.cells
    )


def lowest_occurrence(seq: StandardSequence, letter: int) -> Cell:
    """The sequence's letter cell with the smallest row."""
    return min(entry(seq, letter).cells, key=lambda c: (c.row, c.col))


def highest_occurrence(seq: StandardSequence, letter: int) -> Cell:
    """The sequence's letter cell with the largest row."""
    return max(entry(seq, letter).cells, key=lambda c: (c.row, c.col))


def diag(c1: Cell, c2: Cell, k: int) -> int:
    """Diagonals of the lower cell's residue strictly between two cells.

    Diagonal indices are col - row; the lower cell is the one with the
    smaller row (smaller diagonal index on a row tie), and its residue
    mod k+1 selects which diagonals are counted in the open interval.
    That residue is the residue of one end of the interval, so the count
    is (gap - 1) // (k+1) for a gap of at least one diagonal, whichever
    cell is the lower.  k must be an integer of at least 1.
    """
    k = _strict_k(k)
    gap = abs(diagonal(c1) - diagonal(c2))
    return (gap - 1) // (k + 1) if gap else 0


def lowest_addable(cells: Iterable[Cell]) -> Cell:
    """One past the right-most bottom-row cell of the set."""
    top = max((c.col for c in cells if c.row == 1), default=0)
    if not top:
        raise ValueError("cell set has no bottom-row cell")
    return Cell(1, top + 1)


def highest_addable(cells: Iterable[Cell]) -> Cell:
    """The first column, one row above the highest cell of the set."""
    top = max((c.row for c in cells), default=0)
    if not top:
        raise ValueError("cell set is empty")
    return Cell(top + 1, 1)


def low_order(cells: Iterable[Cell], k: int) -> ResidueOrder:
    """The low order pivoted at the residue mod k+1 of the cells' lowest
    addable cell; k is read as `diag` reads it."""
    n = _strict_k(k) + 1
    return ResidueOrder(n, residue(lowest_addable(cells), n), "low")


def high_order(cells: Iterable[Cell], k: int) -> ResidueOrder:
    """The high order pivoted at the residue mod k+1 of the cells' highest
    addable cell; k is read as `diag` reads it."""
    n = _strict_k(k) + 1
    return ResidueOrder(n, residue(highest_addable(cells), n), "high")


def greater(order: ResidueOrder, a: int, b: int) -> bool:
    """True iff residue a ranks above residue b in the order, that is,
    comes first in `order.descending()`."""
    ranked = order.descending()
    return ranked.index(a) < ranked.index(b)


def _walk_literal(seq: StandardSequence, k: int) -> SequenceReport:
    """The record of `statistics._walk` by the literal definitions, the
    oracle that `_steps` is tested against.  Each letter's restriction is
    rebuilt (`restrict_sequence`), and its addable cells and residue orders
    are read off the rebuilt cell set, of which the record keeps the
    pivots."""
    letters, residues = tuple(e.letter for e in seq.entries), seq.residues()
    low_at = [lowest_occurrence(seq, i) for i in letters]
    high_at = [highest_occurrence(seq, i) for i in letters]
    restricted = [restrict_sequence(seq, i) for i in letters]
    L, M, I, J, d_prev_low, d_prev_high = [0], [0], [0], [0], [0], [0]
    low_pivots, high_pivots = [None], [None]
    for i in range(1, len(seq)):
        cur, prev = low_at[i], low_at[i - 1]
        d = diag(cur, prev, k)
        d_prev_low.append(d)
        L.append(L[-1] + 1 + d if prev.row < cur.row else L[-1] - d)
        cur, prev = high_at[i], high_at[i - 1]
        d = diag(cur, prev, k)
        d_prev_high.append(d)
        I.append(I[-1] + 1 + d if cur.col > prev.col else I[-1] - d)
        low, high = low_order(restricted[i], k), high_order(restricted[i], k)
        M.append(M[-1] + greater(low, residues[i], residues[i - 1]))
        J.append(J[-1] + greater(high, residues[i], residues[i - 1]))
        low_pivots.append(low.pivot)
        high_pivots.append(high.pivot)
    d_add_low = [diag(c, lowest_addable(r), k) for c, r in zip(low_at, restricted)]
    d_add_high = [diag(c, highest_addable(r), k) for c, r in zip(high_at, restricted)]
    columns = (L, M, I, J, d_prev_low, d_prev_high, d_add_low, d_add_high, low_pivots, high_pivots)
    return SequenceReport(letters, residues, *map(tuple, columns))


def _tableau_weight(rows: Sequence[Sequence[int]]) -> list[int]:
    """How many times each letter 1..max occurs; letters below 1 raise."""
    top = max((x for row in rows for x in row), default=0)
    counts = [0] * top
    for row in rows:
        for x in row:
            if x < 1:
                raise ValueError(f"letters must be positive, got {x}")
            counts[x - 1] += 1
    return counts


def _standard_subword(word: list[int], top: int) -> list[int]:
    """Positions of one standard subword 1..top, scanning right-to-left
    cyclically from each chosen letter."""
    pos = len(word) - 1
    while word[pos] != 1:
        pos -= 1
    chosen = [pos]
    for target in range(2, top + 1):
        probe = (pos - 1) % len(word)
        while word[probe] != target:
            probe = (probe - 1) % len(word)
        chosen.append(probe)
        pos = probe
    return chosen


def _standard_word_charge(positions: Sequence[int]) -> int:
    """Charge of a standard word given the position of each letter 1..m:
    the running index rises when the next letter sits to the right."""
    total, current = 0, 0
    for prev, cur in zip(positions, positions[1:]):
        if cur > prev:
            current += 1
        total += current
    return total


def classical_charge_literal(rows: Sequence[Sequence[int]]) -> int:
    """The charge of `statistics.classical_charge` by the literal
    extraction, its oracle: the reading word (rows top to bottom, each left
    to right) loses one standard subword at a time, and is rebuilt without
    it before the next is read."""
    counts = _tableau_weight(rows)
    if _partition_fault(counts):
        raise ValueError(f"weight {counts} is not a partition")
    word = [x for row in reversed(list(rows)) for x in row]
    total = 0
    while word:
        chosen = _standard_subword(word, max(word))
        total += _standard_word_charge(chosen)
        keep = set(chosen)
        word = [x for i, x in enumerate(word) if i not in keep]
    return total


def enumerate_ssyt(
    shape: Partition, weight: Sequence[int]
) -> list[tuple[tuple[int, ...], ...]]:
    """All classical semistandard fillings of shape with the exact letter
    multiplicities given by weight (rows bottom-first).  Weight parts must
    be non-negative integers."""
    weight = tuple(_strict_int(a, "weight part") for a in weight)
    if min(weight, default=0) < 0:
        raise ValueError(f"weight parts must be non-negative, got {weight}")
    return list(semistandard_fillings(shape, len(weight), weight))
