"""Literal definitions that the tests check the library against.

Each is written cell by cell from its definition and shares no loop with
the library's integer rules: `cores._hook_facts` (one pass over a shape's
hook lengths, cached), `cores._corner_residues` (the addable corners as
residues of row numbers) and `ktableaux.to_text` (a cached layout per
shape, filled with the letters).  A test that compares the two thus
compares two independent computations.  None of these is part of the
kcharge API.
"""

from kcharge.cores import Cell, Partition, residue


def hook_length(shape, cell):
    """Arm + leg + 1 of a cell inside the diagram."""
    shape = Partition(shape)
    if not shape.contains(cell):
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
