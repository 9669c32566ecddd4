"""Partitions, Ferrers geometry, hook lengths, n-cores, and residues.

Cells are addressed as (row, col) with row 1 the *bottom* row of the
diagram and column 1 the leftmost column, so diagrams grow upward.
All values are immutable; every function here is pure.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

# Coordinates must fit comfortably in machine words; sums (polynomial
# coefficients, statistics) are plain Python ints and may grow freely.
MAX_EXTENT = 10**6


class Cell(NamedTuple):
    row: int
    col: int

    @property
    def diagonal(self) -> int:
        """Diagonal index col - row; positive below/right of the main diagonal."""
        return self.col - self.row


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Doubles as a shape (Ferrers diagram) and as a weight vector.  The
    empty partition is ``Partition()``.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive, got {parts}")
        if parts and (parts[0] > MAX_EXTENT or len(parts) > MAX_EXTENT):
            raise ValueError(f"partition extent exceeds {MAX_EXTENT}")
        return super().__new__(cls, parts)

    def size(self) -> int:
        return sum(self)

    def conjugate(self) -> "Partition":
        if not self:
            return Partition()
        cols = [0] * self[0]
        for part in self:
            for j in range(part):
                cols[j] += 1
        return Partition(cols)

    def contains(self, cell: Cell) -> bool:
        return 1 <= cell.row <= len(self) and 1 <= cell.col <= self[cell.row - 1]

    def cells(self) -> Iterator[Cell]:
        """All cells, bottom row first, left to right within a row."""
        for i, part in enumerate(self, start=1):
            for j in range(1, part + 1):
                yield Cell(i, j)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self) + ")"

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


def parse_partition(text: str) -> Partition:
    """Parse the text form "(7,3,2,1,1)"; the empty partition is "()"."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"not a partition literal: {text!r}")
    body = s[1:-1].strip()
    if not body:
        return Partition()
    return Partition(int(p) for p in body.split(","))


def partition_sort_key(shape: Partition) -> tuple:
    """Canonical enumeration order: by size, then lexicographically descending."""
    return (shape.size(), tuple(-p for p in shape))


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n with parts at most max_part, largest part first."""
    if n < 0:
        return
    if n == 0:
        yield Partition()
        return
    first_cap = n if max_part is None else min(max_part, n)
    for first in range(first_cap, 0, -1):
        for rest in partitions(n - first, first):
            yield Partition((first,) + tuple(rest))


def hook_length(shape: Partition, cell: Cell) -> int:
    """Arm + leg + 1 of a cell inside the diagram."""
    if not shape.contains(cell):
        raise ValueError(f"cell {tuple(cell)} outside shape {shape}")
    arm = shape[cell.row - 1] - cell.col
    leg = shape.conjugate()[cell.col - 1] - cell.row
    return arm + leg + 1


def cell_with_hook(shape: Partition, n: int) -> Cell | None:
    """The first cell, bottom row first and left to right within a row,
    whose hook length is exactly n; None if there is none."""
    conj = shape.conjugate()
    for i, part in enumerate(shape, start=1):
        for j in range(1, part + 1):
            if (part - j) + (conj[j - 1] - i) + 1 == n:
                return Cell(i, j)
    return None


def is_n_core(shape: Partition, n: int) -> bool:
    """True iff no cell of the shape has hook length exactly n."""
    if n < 2:
        raise ValueError(f"core modulus must be at least 2, got {n}")
    return cell_with_hook(shape, n) is None


def residue(cell: Cell, n: int) -> int:
    """(col - row) mod n; constant along diagonals, 0 on the main diagonal."""
    if n < 2:
        raise ValueError(f"residue modulus must be at least 2, got {n}")
    return (cell.col - cell.row) % n


def addable_corners(shape: Partition, n: int) -> list[tuple[Cell, int]]:
    """Cells just outside the diagram whose addition leaves a partition.

    Row 0 and column 0 are treated as filled, so (1, shape[0]+1) and
    (len(shape)+1, 1) are always addable.  Returned in ascending row
    order, each with its n-residue.
    """
    corners: list[Cell] = []
    for i, part in enumerate(shape, start=1):
        if i == 1 or shape[i - 2] > part:
            corners.append(Cell(i, part + 1))
    corners.append(Cell(len(shape) + 1, 1))
    return [(c, residue(c, n)) for c in corners]


def removable_corners(shape: Partition, n: int) -> list[tuple[Cell, int]]:
    """Cells of the diagram whose removal leaves a partition, with residues."""
    corners: list[Cell] = []
    for i, part in enumerate(shape, start=1):
        if i == len(shape) or shape[i] < part:
            corners.append(Cell(i, part))
    return [(c, residue(c, n)) for c in corners]


def k_interior(shape: Partition, k: int) -> frozenset[Cell]:
    """Cells with hook length exceeding k."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    conj = shape.conjugate()
    return frozenset(
        Cell(i, j)
        for i, part in enumerate(shape, start=1)
        for j in range(1, part + 1)
        if (part - j) + (conj[j - 1] - i) + 1 > k
    )


def k_bounded_hooks(shape: Partition, k: int) -> int:
    """Number of cells with hook length at most k."""
    return shape.size() - len(k_interior(shape, k))


def n_stat(mu: Partition) -> int:
    """Sum of (i-1) * mu_i over the parts of mu."""
    return sum(i * part for i, part in enumerate(mu))


def add_residue_class(shape: Partition, n: int, res: int) -> Partition | None:
    """Fill every addable corner of the given residue; None if there is none.

    For an n-core this yields an n-core again, with one more (n-1)-bounded
    hook.
    """
    rows = {c.row: c.col for c, r in addable_corners(shape, n) if r == res}
    if not rows:
        return None
    parts = list(shape)
    for row, col in rows.items():
        if row > len(parts):
            parts.append(col)
        else:
            parts[row - 1] = col
    return Partition(parts)


def semistandard_fillings(
    shape: Partition, n_letters: int, content: Sequence[int] | None = None
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All row-weak, column-strict fillings of shape with letters
    1..n_letters, rows bottom-first, in lexicographic order of the cells
    read bottom row first.  With content, letter i is used exactly
    content[i-1] times."""
    cells = list(shape.cells())
    grid = [[0] * part for part in shape]
    # Without a content constraint, no letter can run out.
    remaining = [len(cells)] * n_letters if content is None else list(content)
    pos = 0
    while pos >= 0:
        if pos == len(cells):
            yield tuple(tuple(row) for row in grid)
            pos -= 1
            continue
        i, j = cells[pos]
        row = grid[i - 1]
        x = row[j - 1]
        if x:  # back from the next cell: try the next letter here
            remaining[x - 1] += 1
            x += 1
        else:
            x = max(row[j - 2] if j > 1 else 1, grid[i - 2][j - 1] + 1 if i > 1 else 1)
        while x <= n_letters and not remaining[x - 1]:
            x += 1
        if x <= n_letters:
            row[j - 1] = x
            remaining[x - 1] -= 1
            pos += 1
        else:
            row[j - 1] = 0
            pos -= 1


def enumerate_cores(n: int, max_bounded_hooks: int) -> list[Partition]:
    """All n-cores with at most the given number of (n-1)-bounded hooks.

    Grown breadth-first from the empty core by repeatedly filling all
    addable corners of a single residue (each such step adds exactly one
    bounded hook).  Output is deduplicated and sorted canonically.
    """
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
