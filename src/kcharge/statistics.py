"""Charge and cocharge statistics on k-tableaux, and their classical limits.

Two equivalent formulations are implemented for each statistic:

* "lp"    - index-vector recursions (L for cocharge, I for charge) with
            signed diagonal-count corrections between consecutive letters;
* "morse" - manifestly non-negative recursions (M, J) driven by cyclic
            residue orders, plus a diagonal count to an addable corner.

Both are read off one walk per standard sequence (`_walk`), which records
every vector at once.

Sums are exact integers throughout; generating functions are sparse
integer polynomials in t.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping, Sequence

from .cores import (
    Cell,
    Partition,
    _parse_digits,
    _strict_int,
    n_stat,
    partition_sort_key,
    partitions,
    residue,
    semistandard_fillings,
)
from .ktableaux import (
    KTableau,
    StandardSequence,
    enumerate_k_tableaux,
    standard_sequences,
)

FORMULATIONS = ("lp", "morse")


def diag(c1: Cell, c2: Cell, k: int) -> int:
    """Diagonals of the lower cell's residue strictly between two cells.

    Diagonal indices are col - row; the lower cell is the one with the
    smaller row (smaller diagonal index on a row tie), and its residue
    mod k+1 selects which diagonals are counted in the open interval.
    That residue is the residue of one end of the interval, so the count
    is (gap - 1) // (k+1) for a gap of at least one diagonal, whichever
    cell is the lower.  k must be at least 1.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return _diags_between(c1.diagonal, c2.diagonal, k + 1)


def _diags_between(d1: int, d2: int, n: int) -> int:
    """`diag` on two diagonal indices, with modulus n = k+1."""
    gap = abs(d1 - d2)
    return (gap - 1) // n if gap else 0


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


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ResidueOrder:
    """Cyclic total order on residues {0..modulus-1} pivoted at `pivot`.

    direction "low":  pivot > pivot+1 > ... > modulus-1 > 0 > ... > pivot-1
    direction "high": pivot > pivot-1 > ... > 0 > modulus-1 > ... > pivot+1

    The modulus must be an integer of at least 2, the pivot an integer in
    0..modulus-1 and the direction "low" or "high"; anything else raises
    ValueError naming the field.
    """

    modulus: int
    pivot: int
    direction: str

    def __post_init__(self) -> None:
        if not _is_int(self.modulus) or self.modulus < 2:
            raise ValueError(f"modulus must be an integer of at least 2, got {self.modulus!r}")
        if not _is_int(self.pivot) or not 0 <= self.pivot < self.modulus:
            raise ValueError(
                f"pivot must be an integer in 0..{self.modulus - 1}, got {self.pivot!r}"
            )
        if self.direction not in ("low", "high"):
            raise ValueError(f'direction must be "low" or "high", got {self.direction!r}')

    def rank(self, res: int) -> int:
        if self.direction == "low":
            return (res - self.pivot) % self.modulus
        return (self.pivot - res) % self.modulus

    def greater(self, a: int, b: int) -> bool:
        return self.rank(a) < self.rank(b)

    def descending(self) -> tuple[int, ...]:
        return tuple(sorted(range(self.modulus), key=self.rank))

    def __str__(self) -> str:
        return " > ".join(str(r) for r in self.descending())


def low_order(cells: Iterable[Cell], k: int) -> ResidueOrder:
    pivot = residue(lowest_addable(cells), k + 1)
    return ResidueOrder(k + 1, pivot, "low")


def high_order(cells: Iterable[Cell], k: int) -> ResidueOrder:
    pivot = residue(highest_addable(cells), k + 1)
    return ResidueOrder(k + 1, pivot, "high")


@dataclass(frozen=True)
class SequenceReport:
    """Everything the per-sequence statistics tables display."""

    letters: tuple[int, ...]
    residues: tuple[int, ...]
    L: tuple[int, ...]
    M: tuple[int, ...]
    I: tuple[int, ...]
    J: tuple[int, ...]
    diag_prev_low: tuple[int, ...]
    diag_prev_high: tuple[int, ...]
    diag_add_low: tuple[int, ...]
    diag_add_high: tuple[int, ...]
    low_orders: tuple[ResidueOrder | None, ...]
    high_orders: tuple[ResidueOrder | None, ...]

    def cocharge_lp(self) -> int:
        return sum(self.L)

    def cocharge_morse(self) -> int:
        return sum(self.M) + sum(self.diag_add_low)

    def charge_lp(self) -> int:
        return sum(self.I)

    def charge_morse(self) -> int:
        return sum(self.J) + sum(self.diag_add_high)


@cache
def _residue_orders(n: int) -> tuple[tuple[ResidueOrder, ...], tuple[ResidueOrder, ...]]:
    """The n low and the n high residue orders mod n, indexed by pivot;
    built once per modulus and shared by every walk."""
    return (
        tuple(ResidueOrder(n, p, "low") for p in range(n)),
        tuple(ResidueOrder(n, p, "high") for p in range(n)),
    )


@cache
def _residue_ranks(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each order of `_residue_orders(n)`, residue -> `ResidueOrder.rank`,
    read once per modulus: a walk compares two residues by two lookups."""
    return tuple(
        tuple(tuple(map(order.rank, range(n))) for order in orders)
        for orders in _residue_orders(n)
    )


def _walk(seq: StandardSequence, k: int) -> SequenceReport:
    """Every per-letter vector of one standard sequence, in one pass.

    The restriction of the sequence to letters <= i is never built: its
    lowest addable cell is (1, c+1) for the right-most bottom-row column c
    among those letters, and its highest addable cell (r+1, 1) for their
    top row r, so two running maxima stand in for it.  Only their diagonals
    and residues are used: the addable cells sit on diagonals c and -r,
    which pick the pivots c mod k+1 and -r mod k+1 of the low and high
    residue orders, taken from the per-modulus `_residue_orders`; a residue
    rises in an order when its rank (`_residue_ranks`) is smaller.  Each
    diag count is taken on the two diagonals (`_diags_between`).  L and I
    still follow the signed diag-to-previous rule and M and J the cyclic
    residue orders, so the two formulations remain independent
    computations.

    Raises ValueError when letter 1 has no bottom-row cell, which no
    k-tableau allows, whichever formulation the caller reads.
    """
    n = k + 1
    lows, highs = _residue_orders(n)
    low_ranks, high_ranks = _residue_ranks(n)
    L, M, I, J = [0], [0], [0], [0]
    d_prev_low, d_prev_high = [0], [0]
    d_add_low, d_add_high = [], []
    low_orders: list[ResidueOrder | None] = [None]
    high_orders: list[ResidueOrder | None] = [None]
    bottom_col = top_row = prev_low_diag = prev_high_diag = 0
    prev_low = prev_high = prev_res = None
    for e in seq.entries:
        low, high = min(e.cells), max(e.cells)
        for c in e.cells:
            if c.row == 1 and c.col > bottom_col:
                bottom_col = c.col
        if not bottom_col:
            raise ValueError("cell set has no bottom-row cell")
        if high.row > top_row:
            top_row = high.row
        low_diag, high_diag = low.col - low.row, high.col - high.row
        d_add_low.append(_diags_between(low_diag, bottom_col, n))
        d_add_high.append(_diags_between(high_diag, -top_row, n))
        if prev_res is not None:
            d = _diags_between(low_diag, prev_low_diag, n)
            d_prev_low.append(d)
            L.append(L[-1] + 1 + d if prev_low.row < low.row else L[-1] - d)
            d = _diags_between(high_diag, prev_high_diag, n)
            d_prev_high.append(d)
            I.append(I[-1] + 1 + d if high.col > prev_high.col else I[-1] - d)
            res = e.residue
            pivot = bottom_col % n
            low_orders.append(lows[pivot])
            rank = low_ranks[pivot]
            M.append(M[-1] + 1 if rank[res] < rank[prev_res] else M[-1])
            pivot = -top_row % n
            high_orders.append(highs[pivot])
            rank = high_ranks[pivot]
            J.append(J[-1] + 1 if rank[res] < rank[prev_res] else J[-1])
        prev_low, prev_high, prev_res = low, high, e.residue
        prev_low_diag, prev_high_diag = low_diag, high_diag
    return SequenceReport(
        letters=tuple(e.letter for e in seq.entries),
        residues=seq.residues(),
        L=tuple(L),
        M=tuple(M),
        I=tuple(I),
        J=tuple(J),
        diag_prev_low=tuple(d_prev_low),
        diag_prev_high=tuple(d_prev_high),
        diag_add_low=tuple(d_add_low),
        diag_add_high=tuple(d_add_high),
        low_orders=tuple(low_orders),
        high_orders=tuple(high_orders),
    )


def sequence_reports(tab: KTableau) -> list[SequenceReport]:
    """Per-sequence index vectors, residue orders, and diag corrections:
    one `_walk` per standard sequence."""
    return [_walk(seq, tab.k) for seq in standard_sequences(tab)]


def index_L(seq: StandardSequence, k: int) -> list[int]:
    """Signed cocharge index vector over one standard sequence (a view of
    the `_walk` record)."""
    return list(_walk(seq, k).L)


def index_I(seq: StandardSequence, k: int) -> list[int]:
    """Signed charge index vector over one standard sequence (a view of
    the `_walk` record)."""
    return list(_walk(seq, k).I)


def index_M(seq: StandardSequence, k: int) -> list[int]:
    """Non-negative cocharge index vector: +1 whenever the residue rises in
    the low residue order of the sequence restriction (a view of the
    `_walk` record)."""
    return list(_walk(seq, k).M)


def index_J(seq: StandardSequence, k: int) -> list[int]:
    """Non-negative charge index vector: as index_M but under the high
    residue order (a view of the `_walk` record)."""
    return list(_walk(seq, k).J)


def diag_to_lowest_addable(seq: StandardSequence, k: int) -> list[int]:
    """diag(lowest occurrence of i, lowest addable cell of the restriction),
    a view of the `_walk` record."""
    return list(_walk(seq, k).diag_add_low)


def diag_to_highest_addable(seq: StandardSequence, k: int) -> list[int]:
    """diag(highest occurrence of i, highest addable cell of the
    restriction), a view of the `_walk` record."""
    return list(_walk(seq, k).diag_add_high)


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

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "TPolynomial":
        return cls({exponent: coefficient})

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

    @classmethod
    def from_json_dict(cls, data: Mapping[str, int]) -> "TPolynomial":
        """Inverse of `to_json_dict`: exponents are keys written in ASCII
        digits 0-9, coefficients JSON integers."""
        return cls({_parse_digits(e, "exponent"): c for e, c in data.items()})


def _shape_table(charges: Iterable[tuple[Partition, int]]) -> dict[Partition, TPolynomial]:
    """Shape -> sum of t^charge over the (shape, charge) pairs, one
    polynomial per shape built from its charge counts, in canonical shape
    order."""
    counts: dict[Partition, Counter[int]] = {}
    for shape, charge in charges:
        counts.setdefault(shape, Counter())[charge] += 1
    return {shape: TPolynomial(counts[shape]) for shape in sorted(counts, key=partition_sort_key)}


def charge_table(
    k: int, weight: Sequence[int], formulation: str = "morse"
) -> dict[Partition, TPolynomial]:
    """Shape-grouped generating polynomials sum_T t^(k-charge) over all
    k-tableaux of the given weight."""
    _check_formulation(formulation)
    return _shape_table(
        (tab.shape, k_charge(tab, formulation)) for tab in enumerate_k_tableaux(k, weight)
    )


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


def classical_charge(rows: Sequence[Sequence[int]]) -> int:
    """Charge of a classical semistandard tableau (rows bottom-first).

    The reading word takes rows top to bottom, each left to right; it is
    split into standard subwords whose charges are summed.
    """
    counts = _tableau_weight(rows)
    for a, b in zip(counts, counts[1:]):
        if a < b:
            raise ValueError(f"weight {counts} is not a partition")
    word = [x for row in reversed(list(rows)) for x in row]
    total = 0
    while word:
        chosen = _standard_subword(word, max(word))
        total += _standard_word_charge(chosen)
        keep = set(chosen)
        word = [x for i, x in enumerate(word) if i not in keep]
    return total


def classical_cocharge(rows: Sequence[Sequence[int]]) -> int:
    """n(weight) minus the charge; non-negative for tableau words."""
    weight = Partition(_tableau_weight(rows))
    return n_stat(weight) - classical_charge(rows)


def _classical_statistics(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(classical_charge(rows), classical_cocharge(rows)) from one charge
    computation.  It raises exactly as that pair of calls does: the charge
    raises first, and once it exists the weight is a partition."""
    charge = classical_charge(rows)
    return charge, n_stat(Partition(_tableau_weight(rows))) - charge


def enumerate_ssyt(
    shape: Partition, weight: Sequence[int]
) -> list[tuple[tuple[int, ...], ...]]:
    """All classical semistandard fillings of shape with the exact letter
    multiplicities given by weight (rows bottom-first).  Weight parts must
    be integers."""
    weight = tuple(_strict_int(a, "weight part") for a in weight)
    if sum(weight) != shape.size():
        return []
    return list(semistandard_fillings(shape, len(weight), weight))


def kostka_foulkes_table(weight: Sequence[int]) -> dict[Partition, TPolynomial]:
    """Charge generating polynomials over classical semistandard tableaux,
    keyed by shape; shapes with no tableaux are omitted.  Weight parts
    must be integers."""
    weight = tuple(_strict_int(a, "weight part") for a in weight)
    return _shape_table(
        (shape, classical_charge(rows))
        for shape in partitions(sum(weight))
        for rows in semistandard_fillings(shape, len(weight), weight)
    )
