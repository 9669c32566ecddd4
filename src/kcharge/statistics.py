"""Charge and cocharge statistics on k-tableaux, and their classical limits.

Two equivalent formulations are implemented for each statistic:

* "lp"    - index-vector recursions (L for cocharge, I for charge) with
            signed diagonal-count corrections between consecutive letters;
* "morse" - manifestly non-negative recursions (M, J) driven by cyclic
            residue orders, plus a diagonal count to an addable corner.

Both are read off one step rule per standard sequence (`_steps`), which
returns its ten columns, one per vector: `_walk` freezes them as the
record that `stat` renders, and the identity checker in `sweeps` reads
them as they are.  The tests build the same record from the literal
definitions (the diagonal count, the addable cells, the residue orders and
the rebuilt restrictions) in `tests/reference.py`, as the oracle the step
rule is checked against.

Sums are exact integers throughout; generating functions are sparse
integer polynomials in t.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache

from .cores import (
    Cell,
    Partition,
    _partition_fault,
    _strict_int,
    partition_sort_key,
    partitions,
    semistandard_fillings,
)
from .ktableaux import KTableau, StandardSequence, enumerate_k_tableaux, standard_sequences

FORMULATIONS = ("lp", "morse")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class ResidueOrder(namedtuple("ResidueOrder", "modulus pivot direction")):
    """Cyclic total order on residues {0..modulus-1} pivoted at `pivot`.

    direction "low":  pivot > pivot+1 > ... > modulus-1 > 0 > ... > pivot-1
    direction "high": pivot > pivot-1 > ... > 0 > modulus-1 > ... > pivot+1

    The modulus must be an integer of at least 2, the pivot an integer in
    0..modulus-1 and the direction "low" or "high"; anything else raises
    ValueError naming the field.
    """

    __slots__ = ()

    # The named tuple's `__new__` sets the fields; `__init__` checks them.
    def __init__(self, modulus: int, pivot: int, direction: str) -> None:
        if not _is_int(modulus) or modulus < 2:
            raise ValueError(f"modulus must be an integer of at least 2, got {modulus!r}")
        if not _is_int(pivot) or not 0 <= pivot < modulus:
            raise ValueError(f"pivot must be an integer in 0..{modulus - 1}, got {pivot!r}")
        if direction not in ("low", "high"):
            raise ValueError(f'direction must be "low" or "high", got {direction!r}')

    def descending(self) -> tuple[int, ...]:
        """The residues by rank, highest first: a rotation of 0..modulus-1
        that starts at the pivot, going up in the low order
        (pivot, pivot+1, ...) and down in the high order (pivot, pivot-1,
        ...), mod the modulus."""
        m, p = self.modulus, self.pivot
        if self.direction == "low":
            return (*range(p, m), *range(p))
        return (*range(p, -1, -1), *range(m - 1, p, -1))

    def __str__(self) -> str:
        return " > ".join(str(r) for r in self.descending())


class SequenceReport(
    namedtuple(
        "SequenceReport",
        "letters residues L M I J diag_prev_low diag_prev_high diag_add_low diag_add_high"
        " low_pivots high_pivots",
    )
):
    """The step columns of one standard sequence, one entry per letter.

    These are the public index vectors of both formulations.  L and I are
    the lp formulation's signed cocharge and charge vectors, with
    diag_prev_low and diag_prev_high their diagonal corrections; M and J
    are the morse formulation's non-negative vectors, with diag_add_low
    and diag_add_high their corrections to the lowest and highest addable
    cell.  low_pivots and high_pivots hold the residue mod k+1 at which each
    letter's low and high `ResidueOrder` is pivoted (None for letter 1,
    which has no order); `stat` renders the orders from them.  Each field
    is a tuple with one entry per letter.
    """

    __slots__ = ()

    def cocharge_lp(self) -> int:
        return sum(self.L)

    def cocharge_morse(self) -> int:
        return sum(self.M) + sum(self.diag_add_low)

    def charge_lp(self) -> int:
        return sum(self.I)

    def charge_morse(self) -> int:
        return sum(self.J) + sum(self.diag_add_high)


@lru_cache(maxsize=4096)
def _class_extremes(cells: frozenset[Cell]) -> tuple[Cell, Cell, int]:
    """(lowest cell, highest cell, right-most bottom-row column or 0) of a
    residue class with more than one cell, the facts `_steps` reads of it.

    The classes of a sweep repeat: a cold `verify --max-k 5 --max-weight 7`
    reads 52 distinct multi-cell classes among 1,188 entries, 6/9 reads 110
    among 15,367 and 7/10 160 among 61,427, so the cache of the 4,096 most
    recent classes reads each about once per process."""
    return min(cells), max(cells), max([c for r, c in cells if r == 1], default=0)


def _steps(seq: StandardSequence, n: int) -> tuple[list[int | None], ...]:
    """The step rule of the walk down one standard sequence, modulus n = k+1.

    Returns its ten columns, one entry per letter i in turn,

        (L, M, I, J, diag_prev_low, diag_prev_high,
         diag_add_low, diag_add_high, low_pivots, high_pivots),

    each built in place with one append per letter from a small state
    carried from letter to letter: the right-most bottom-row column c and
    the top row r of the restriction to letters <= i, the previous letter's
    lowest and highest cells and residue, and the running L, M, I and J.  A
    sequence with no entries gives ten empty columns.  A class with more
    than one cell gives its lowest cell, highest cell and right-most
    bottom-row column from one lookup of `_class_extremes`, keyed by the
    class.  A one-cell class (most classes) is read inline: its one cell
    is both extremes, and unpacking it costs less than a lookup.  Every
    line follows one definition:

    * the restriction is never built.  Its lowest addable cell is (1, c+1)
      and its highest addable cell (r+1, 1), on diagonals c and -r;
    * diag_add_low_i / diag_add_high_i: the diagonals of the lower cell's
      residue strictly between the lowest (highest) cell of letter i and
      the lowest (highest) addable cell.  That residue is the residue of
      one end, so a gap of g >= 1 diagonals holds (g - 1) // n of them;
    * L and I, the signed diag rule of the lp formulation: L rises by
      1 + diag_prev_low when the lowest cell of i sits in a higher row than
      that of i-1 and falls by diag_prev_low otherwise; I rises by
      1 + diag_prev_high when the highest cell of i sits in a column right
      of that of i-1 and falls by diag_prev_high otherwise;
    * M and J, the cyclic residue orders of the morse formulation: M rises
      by 1 when the residue of i ranks above that of i-1 in the low order
      pivoted at the lowest addable cell's residue c mod n, J likewise in
      the high order pivoted at -r mod n (`ResidueOrder.descending`).

    So lp and morse stay two independent computations.  Letter 1 has all
    four indices 0, no previous diag and no order, so its pivots are None.
    Raises ValueError when letter 1 has no bottom-row cell, which no
    k-tableau allows, whichever formulation the caller reads.
    """
    # Each column is appended to by name: `list.append` called in place is
    # cheaper than a stored bound method.
    columns = ([], [], [], [], [], [], [], [], [], [])
    Ls, Ms, Is, Js, prev_lows, prev_highs, add_lows, add_highs, low_pivots, high_pivots = columns
    L = M = I = J = 0
    bottom_col = top_row = 0
    prev_res = None
    for _, res, cells in seq.entries:
        if len(cells) == 1:
            (low,) = cells
            high = low
            low_row, low_col = low
            if low_row == 1 and low_col > bottom_col:
                bottom_col = low_col
        else:
            low, high, col = _class_extremes(cells)
            low_row, low_col = low
            if col > bottom_col:
                bottom_col = col
        high_row, high_col = high
        if not bottom_col:
            raise ValueError("cell set has no bottom-row cell")
        if high_row > top_row:
            top_row = high_row
        # Each diag count is (gap - 1) // n for a gap of at least one
        # diagonal between the two diagonal indices.
        low_diag, high_diag = low_col - low_row, high_col - high_row
        gap = abs(low_diag - bottom_col)
        add_low = (gap - 1) // n if gap else 0
        gap = abs(high_diag + top_row)
        add_high = (gap - 1) // n if gap else 0
        if prev_res is None:
            prev_low = prev_high = 0
            low_pivot = high_pivot = None
        else:
            gap = abs(low_diag - prev_low_diag)
            prev_low = (gap - 1) // n if gap else 0
            L += 1 + prev_low if prev_low_row < low_row else -prev_low
            gap = abs(high_diag - prev_high_diag)
            prev_high = (gap - 1) // n if gap else 0
            I += 1 + prev_high if high_col > prev_high_col else -prev_high
            # A residue's rank is its distance from the pivot going up the
            # low order, or down the high order (`ResidueOrder.descending`).
            low_pivot = bottom_col % n
            if (res - low_pivot) % n < (prev_res - low_pivot) % n:
                M += 1
            high_pivot = -top_row % n
            if (high_pivot - res) % n < (high_pivot - prev_res) % n:
                J += 1
        Ls.append(L)
        Ms.append(M)
        Is.append(I)
        Js.append(J)
        prev_lows.append(prev_low)
        prev_highs.append(prev_high)
        add_lows.append(add_low)
        add_highs.append(add_high)
        low_pivots.append(low_pivot)
        high_pivots.append(high_pivot)
        prev_res = res
        prev_low_row, prev_low_diag = low_row, low_diag
        prev_high_col, prev_high_diag = high_col, high_diag
    return columns


def _walk(seq: StandardSequence, k: int) -> SequenceReport:
    """Every per-letter vector of one standard sequence: `_steps` returns
    its ten columns, pivots included, and they are frozen as tuples; `stat`
    renders the orders."""
    letters = tuple([e.letter for e in seq.entries])
    return SequenceReport(letters, seq.residues(), *map(tuple, _steps(seq, k + 1)))


def sequence_reports(tab: KTableau) -> list[SequenceReport]:
    """Per-sequence index vectors, residue-order pivots, and diag
    corrections: one `_walk` per standard sequence."""
    return [_walk(seq, tab.k) for seq in standard_sequences(tab)]


def _check_formulation(formulation: str) -> None:
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}, got {formulation!r}")


def k_cocharge(tab: KTableau, formulation: str = "morse") -> int:
    """Sum over standard sequences of the cocharge index vectors."""
    _check_formulation(formulation)
    reports = sequence_reports(tab)
    if formulation == "lp":
        return sum(r.cocharge_lp() for r in reports)
    return sum(r.cocharge_morse() for r in reports)


def k_charge(tab: KTableau, formulation: str = "morse") -> int:
    """Sum over standard sequences of the charge index vectors."""
    _check_formulation(formulation)
    reports = sequence_reports(tab)
    if formulation == "lp":
        return sum(r.charge_lp() for r in reports)
    return sum(r.charge_morse() for r in reports)


class TPolynomial:
    """Polynomial in t with integer coefficients and exponents >= 0,
    stored as a sparse exponent -> coefficient map.  Exponents and
    coefficients must be integers: bools, floats and strings raise
    ValueError rather than being coerced."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._coeffs: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                e, c = _strict_int(e, "exponent"), _strict_int(c, "coefficient")
                if e < 0:
                    raise ValueError(f"exponent must be non-negative, got {e}")
                if c:
                    self._coeffs[e] = self._coeffs.get(e, 0) + c
            self._coeffs = {e: c for e, c in self._coeffs.items() if c}

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._coeffs.items())

    def __add__(self, other: "TPolynomial") -> "TPolynomial":
        if not isinstance(other, TPolynomial):
            return NotImplemented
        merged = Counter(self._coeffs)
        merged.update(other._coeffs)
        return TPolynomial(merged)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TPolynomial) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        return f"TPolynomial({dict(self.items())!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for e, c in self.items():
            if e == 0:
                terms.append(str(c))
            else:
                t = "t" if e == 1 else f"t^{e}"
                terms.append(t if c == 1 else f"{c}*{t}")
        return " + ".join(terms)

    def to_json_dict(self) -> dict[str, int]:
        return {str(e): c for e, c in self.items()}


def _shape_table(charges: Iterable[tuple[Partition, int]]) -> dict[Partition, TPolynomial]:
    """Shape -> sum of t^charge over the (shape, charge) pairs, one
    polynomial per shape built from its charge counts, in canonical shape
    order."""
    counts: dict[Partition, Counter[int]] = {}
    for shape, charge in charges:
        counts.setdefault(shape, Counter())[charge] += 1
    return {shape: TPolynomial(counts[shape]) for shape in sorted(counts, key=partition_sort_key)}


def _table_weight(weight: Sequence[int]) -> tuple[int, ...]:
    """The weight as a tuple of ints, raising unless it is a partition with
    positive integer parts; both tables take it from here before they build
    anything.  Exact ints skip `_strict_int`, as in `Partition`.  A part
    below 1 is named first, wherever it stands, in the words of
    `enumerate_k_tableaux` and the CLI."""
    weight = tuple(a if type(a) is int else _strict_int(a, "weight part") for a in weight)
    if min(weight, default=1) < 1:
        raise ValueError(f"weight parts must be positive, got {weight}")
    if _partition_fault(weight):
        raise ValueError(f"weight {weight} is not a partition")
    return weight


def charge_table(
    k: int, weight: Sequence[int], formulation: str = "morse"
) -> dict[Partition, TPolynomial]:
    """Shape-grouped generating polynomials sum_T t^(k-charge) over all
    k-tableaux of the given weight, which must be a partition with
    positive integer parts."""
    _check_formulation(formulation)
    # The enumerator checks each part again.
    weight = _table_weight(weight)
    return _shape_table(
        (tab.shape, k_charge(tab, formulation)) for tab in enumerate_k_tableaux(k, weight)
    )


def classical_charge(rows: Sequence[Sequence[int]]) -> int:
    """Charge of a classical semistandard tableau (rows bottom-first).

    The reading word takes rows top to bottom, each left to right; it is
    split into standard subwords whose charges are summed.  Letters are
    read as `KTableau` reads them: every letter must be an integer (bools,
    floats and strings raise ValueError), and then positive, and the
    weight a partition.

    The word is never rebuilt.  One pass lists each letter's positions in
    ascending order, and each subword takes positions out of those lists:
    the right-most 1, then for each next letter its nearest position to
    the left of the previous one, or its right-most when none is left of
    it.  Only such a wrap moves right, and each wrap raises the running
    index that the subword's charge sums.
    """
    # Exact ints skip `_strict_int`, as in `KTableau`.
    rows = [[x if type(x) is int else _strict_int(x, "letter") for x in row] for row in rows]
    word = [x for row in reversed(rows) for x in row]
    if min(word, default=1) < 1:
        bad = next(x for row in rows for x in row if x < 1)
        raise ValueError(f"letters must be positive, got {bad}")
    top = max(word, default=0)
    if top > len(word):
        # Some letter is missing: the weight is counted without a position
        # list per letter.
        counts = Counter(word)
        raise ValueError(f"weight {[counts[x] for x in range(1, top + 1)]} is not a partition")
    positions: list[list[int]] = [[] for _ in range(top)]
    for pos, x in enumerate(word):
        positions[x - 1].append(pos)
    counts = list(map(len, positions))
    if _partition_fault(counts):
        raise ValueError(f"weight {counts} is not a partition")
    if not positions:
        return 0
    ones, *later = positions
    total = 0
    # A partition weight runs each letter out no later than the one before.
    while ones:
        pos = ones.pop()
        current = 0
        for unused in later:
            if not unused:
                break
            i = bisect_left(unused, pos)
            if i:
                pos = unused.pop(i - 1)
            else:
                pos = unused.pop()
                current += 1
            total += current
    return total


def classical_cocharge(rows: Sequence[Sequence[int]]) -> int:
    """n(weight) minus the charge; non-negative for tableau words.  It
    raises exactly as `classical_charge` does."""
    return _classical_statistics(rows)[1]


def _classical_statistics(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(classical_charge(rows), classical_cocharge(rows)) from one charge
    computation, which raises first.  The weight is counted only there:
    n(weight), the sum of (i-1) * weight_i, is the sum of letter - 1 over
    the cells."""
    charge = classical_charge(rows)
    return charge, sum(map(sum, rows)) - sum(map(len, rows)) - charge


def kostka_foulkes_table(weight: Sequence[int]) -> dict[Partition, TPolynomial]:
    """Charge generating polynomials over classical semistandard tableaux,
    keyed by shape; shapes with no tableaux are omitted.  The weight must
    be a partition with positive integer parts, checked before any filling
    is built."""
    weight = _table_weight(weight)
    return _shape_table(
        (shape, classical_charge(rows))
        for shape in partitions(sum(weight))
        for rows in semistandard_fillings(shape, len(weight), weight)
    )
