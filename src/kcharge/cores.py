"""Partitions, Ferrers geometry, hook lengths, n-cores, and residues.

Cells are addressed as (row, col) with row 1 the *bottom* row of the
diagram and column 1 the leftmost column, so diagrams grow upward.
All values are immutable; every function here is pure.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

# Coordinates must fit comfortably in machine words; sums (polynomial
# coefficients, statistics) are plain Python ints and may grow freely.
MAX_EXTENT = 10**6


def _strict_int(value: object, what: str) -> int:
    """value as an int, refusing bools and anything that is not an integer
    (floats, strings), which int() would silently coerce."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _strict_k(k: object) -> int:
    """k as an int of at least 1, read through `_strict_int`; every
    function that takes k reads it here, before it uses k + 1."""
    k = _strict_int(k, "k")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return k


def _parse_digits(text: str, what: str) -> int:
    """The integer spelled by text, which must be ASCII digits 0-9 only;
    int() would also take a sign, underscores, surrounding spaces and
    non-ASCII digits."""
    if not (isinstance(text, str) and text.isascii() and text.isdigit()):
        raise ValueError(f"{what} must be written in digits 0-9, got {text!r}")
    return int(text)


def _partition_fault(parts: Sequence[int]) -> str | None:
    """Why these integers are not the parts of a partition ("must be
    weakly decreasing" or "must be positive"), or None if they are.  Each
    caller names the parts in its own terms."""
    if not all(map(operator.ge, parts, parts[1:])):
        return "must be weakly decreasing"
    if parts and parts[-1] < 1:
        return "must be positive"
    return None


# A cell of a diagram, (row, col) with row 1 at the bottom.
Cell = namedtuple("Cell", "row col")


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Doubles as a shape (Ferrers diagram) and as a weight vector.  The
    empty partition is ``Partition()``.  Public construction validates:
    parts must be integers (bools, floats and strings raise ValueError
    rather than being coerced), weakly decreasing and positive.  Shapes
    that this module derives from a partition, such as conjugates and
    grown cores, are partitions by construction and are built through the
    private unchecked `_trusted` instead.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(p if type(p) is int else _strict_int(p, "partition part") for p in parts)
        fault = _partition_fault(parts)
        if fault:
            raise ValueError(f"parts {fault}, got {parts}")
        if parts and (parts[0] > MAX_EXTENT or len(parts) > MAX_EXTENT):
            raise ValueError(f"partition extent exceeds {MAX_EXTENT}")
        return super().__new__(cls, parts)

    @classmethod
    def _trusted(cls, parts: Iterable[int]) -> "Partition":
        """Build without validation; only for parts that are a partition by
        construction."""
        return tuple.__new__(cls, parts)

    def size(self) -> int:
        return sum(self)

    def conjugate(self) -> "Partition":
        if not self:
            return Partition._trusted(())
        cols = [0] * self[0]
        for part in self:
            for j in range(part):
                cols[j] += 1
        return Partition._trusted(cols)

    def cells(self) -> Iterator[Cell]:
        """All cells, bottom row first, left to right within a row."""
        for i, part in enumerate(self, start=1):
            for j in range(1, part + 1):
                yield Cell(i, j)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self) + ")"

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


def partition_sort_key(shape: Partition) -> tuple:
    """Canonical enumeration order: by size, then lexicographically descending."""
    return (shape.size(), tuple(-p for p in shape))


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n with parts at most max_part, largest part first.
    n and max_part must be integers (bools, floats and strings raise
    ValueError), checked once before anything is yielded."""
    n = _strict_int(n, "n")
    return _partitions(n, n if max_part is None else _strict_int(max_part, "max_part"))


def _partitions(n: int, max_part: int) -> Iterator[Partition]:
    """`partitions` on checked ints."""
    if n < 0:
        return
    if n == 0:
        yield Partition._trusted(())
        return
    for first in range(min(max_part, n), 0, -1):
        for rest in _partitions(n - first, first):
            yield Partition._trusted((first,) + rest)


@lru_cache(maxsize=4096)
def _hook_facts(parts: tuple[int, ...], n: int) -> tuple[Cell | None, int]:
    """(the first cell, bottom row first, whose hook length is n, or None;
    the number of hooks below n) of the shape with these parts, from one
    pass over the cells' hook lengths, arm + leg + 1.  Shapes repeat
    across the tableaux of a sweep, so each shape's pass is made once while
    it stays among the 4,096 most recent.  The checked Partition is built
    only on a miss, so parts that are not a partition raise on every call,
    as exceptions are not cached."""
    shape = Partition(parts)
    conj = shape.conjugate()
    first = None
    bounded = 0
    for i, part in enumerate(shape, start=1):
        for j in range(1, part + 1):
            hook = (part - j) + (conj[j - 1] - i) + 1
            if hook < n:
                bounded += 1
            elif hook == n and first is None:
                first = Cell(i, j)
    return first, bounded


def _corner_residues(parts: Sequence[int], n: int) -> Iterator[int | None]:
    """The n-residue of the addable corner of each 0-based row 0..len(parts),
    None for a row that has none; row len(parts) is the new top row.  They
    are yielded one by one, so a caller reads them in a single pass.

    Row i is addable when the row below it is longer (row 0 always is), and
    its corner (i+1, parts[i]+1) has residue (parts[i] - i) % n; the new top
    row's corner (len(parts)+1, 1) has residue -len(parts) % n.  The one
    addable-corner rule of the module, on plain integers.
    """
    if n < 2:
        raise ValueError(f"residue modulus must be at least 2, got {n}")
    below = None
    for i, part in enumerate(parts):
        yield (part - i) % n if below is None or below > part else None
        below = part
    yield -len(parts) % n


def n_stat(mu: Partition) -> int:
    """Sum of (i-1) * mu_i over the parts of mu."""
    return sum(i * part for i, part in enumerate(mu))


def add_residue_class(shape: Partition, n: int, res: int) -> Partition | None:
    """Fill every addable corner of the given residue, in one pass over
    `_corner_residues`; None if there is none.

    For an n-core this yields an n-core again, with one more (n-1)-bounded
    hook.  n and res must be integers (bools, floats and strings raise
    ValueError); exact ints skip `_strict_int`, as in `Partition`.  res
    must lie in 0..n-1, and a shape that is not a `Partition` is checked
    as `Partition` checks it.
    """
    if type(n) is not int:
        n = _strict_int(n, "residue modulus")
    if type(res) is not int:
        res = _strict_int(res, "residue")
    if type(shape) is not Partition:
        shape = Partition(shape)
    # A modulus below 2 is left to `_corner_residues`, which names it.
    if not 0 <= res < n and n >= 2:
        raise ValueError(f"residue must lie in 0..{n - 1}, got {res}")
    grown = list(shape)
    filled = False
    for i, r in enumerate(_corner_residues(shape, n)):
        if r == res:
            filled = True
            if i < len(shape):
                grown[i] += 1
            else:
                grown.append(1)
    return Partition._trusted(grown) if filled else None


def semistandard_fillings(
    shape: Partition, n_letters: int, content: Sequence[int] | None = None
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All row-weak, column-strict fillings of shape with letters
    1..n_letters, rows bottom-first, in lexicographic order of the cells
    read bottom row first.  With content, letter i is used exactly
    content[i-1] times, so there is none unless the content sums to the
    shape's size.

    The shape is read as `Partition` reads it and n_letters must be a
    non-negative integer; a content must hold n_letters non-negative
    integers.  Bools, floats and strings raise ValueError rather than
    being coerced, all checked once before anything is yielded."""
    if type(shape) is not Partition:
        shape = Partition(shape)
    n_letters = _strict_int(n_letters, "n_letters")
    if n_letters < 0:
        raise ValueError(f"n_letters must be non-negative, got {n_letters}")
    if content is None:
        # Without a content constraint, no letter can run out.
        return _semistandard_fillings(shape, n_letters, [shape.size()] * n_letters)
    content = [_strict_int(c, "content entry") for c in content]
    if len(content) != n_letters:
        raise ValueError(f"content must have n_letters={n_letters} entries, got {content}")
    if min(content, default=0) < 0:
        raise ValueError(f"content entries must be non-negative, got {content}")
    if sum(content) != shape.size():
        return iter(())
    return _semistandard_fillings(shape, n_letters, content)


def _semistandard_fillings(
    shape: Partition, n_letters: int, remaining: list[int]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """`semistandard_fillings` on checked arguments; remaining[i-1] is how
    many more times letter i may be used, and is updated in place."""
    cells = list(shape.cells())
    grid = [[0] * part for part in shape]
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
