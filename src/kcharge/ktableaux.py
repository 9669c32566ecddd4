"""k-tableaux: validation, restriction, standard sequences, enumeration.

A k-tableau is a semistandard filling of a (k+1)-core in which the cells
holding letter i span exactly weight_i distinct (k+1)-residues.  Rows are
stored bottom-first to match the (row, col) cell convention of `cores`.
"""

from __future__ import annotations

import json
import logging
import operator
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .cores import (
    Cell,
    Partition,
    add_residue_class,
    cell_with_hook,
    k_bounded_hooks,
    enumerate_cores,
    partition_sort_key,
    residue,
    semistandard_fillings,
)

logger = logging.getLogger(__name__)


def _strict_int(value: object, what: str) -> int:
    """value as an int, refusing bools and anything that is not an integer
    (floats, strings), which int() would silently coerce."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


class KTableau:
    """A letter-filled (k+1)-core shape, rows bottom-first.

    Construction only checks that the rows form a partition shape and the
    letters are positive integers; use `validate` for the full k-tableau
    conditions, so that candidate fillings can be built and then rejected.
    `k` and the letters must be integers: bools, floats and strings are
    rejected rather than coerced.
    """

    # _by_letter is the letter -> cells index, built on first use; it is
    # derived from rows, so equality and hashing ignore it.
    __slots__ = ("k", "rows", "shape", "_by_letter")

    def __init__(self, k: int, rows: Iterable[Iterable[int]]):
        self.k = _strict_int(k, "k")
        if self.k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.rows = tuple(
            tuple(x if type(x) is int else _strict_int(x, "letter") for x in row)
            for row in rows
        )
        for row in self.rows:
            for x in row:
                if x < 1:
                    raise ValueError(f"letters must be positive, got {x}")
        self.shape = Partition(len(row) for row in self.rows)
        self._by_letter: dict[int, tuple[Cell, ...]] | None = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KTableau)
            and self.k == other.k
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.k, self.rows))

    def __repr__(self) -> str:
        return f"KTableau(k={self.k}, rows={[list(r) for r in self.rows]})"

    def _letter_index(self) -> dict[int, tuple[Cell, ...]]:
        """letter -> its cells, bottom row first and left to right."""
        if self._by_letter is None:
            index: dict[int, list[Cell]] = {}
            for i, row in enumerate(self.rows, start=1):
                for j, x in enumerate(row, start=1):
                    index.setdefault(x, []).append(Cell(i, j))
            self._by_letter = {x: tuple(cells) for x, cells in index.items()}
        return self._by_letter

    @property
    def n_letters(self) -> int:
        return max(self._letter_index(), default=0)

    @property
    def weight(self) -> tuple[int, ...]:
        """Number of distinct residues spanned by each letter 1..n_letters."""
        return tuple(
            len(self.residues_of(i)) for i in range(1, self.n_letters + 1)
        )

    def letter(self, cell: Cell) -> int:
        if not self.shape.contains(cell):
            raise ValueError(f"cell {tuple(cell)} outside shape {self.shape}")
        return self.rows[cell.row - 1][cell.col - 1]

    def cells(self) -> Iterator[Cell]:
        return self.shape.cells()

    def cells_of(self, letter: int) -> tuple[Cell, ...]:
        return self._letter_index().get(letter, ())

    def residues_of(self, letter: int) -> frozenset[int]:
        n = self.k + 1
        return frozenset(residue(c, n) for c in self._letter_index().get(letter, ()))

    def reading_word(self) -> tuple[int, ...]:
        """Letters read bottom-to-top, left-to-right; used for canonical order."""
        return tuple(x for row in self.rows for x in row)

    def restrict_leq(self, letter: int) -> "KTableau":
        """The sub-tableau on cells with letters <= letter."""
        if not 1 <= letter <= self.n_letters:
            raise ValueError(f"letter {letter} out of range 1..{self.n_letters}")
        kept = []
        for row in self.rows:
            count = sum(1 for x in row if x <= letter)
            if any(x > letter for x in row[:count]):
                raise ValueError(f"letters <= {letter} do not form row prefixes")
            if count:
                kept.append(row[:count])
        return KTableau(self.k, kept)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problem: str | None = None
    cell: Cell | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate(tab: KTableau, weight: Sequence[int] | None = None) -> ValidationReport:
    """Check all k-tableau invariants; never raises.

    Diagnostics name the first violated invariant and an offending cell
    where one exists.  If an expected weight is supplied, each letter's
    residue span is checked against it; otherwise the weight is derived
    and only its total is checked against the k-bounded hook count.
    """
    n = tab.k + 1
    cell = cell_with_hook(tab.shape, n)
    if cell is not None:
        return ValidationReport(False, f"shape {tab.shape} is not a {n}-core", cell)
    conj = tab.shape.conjugate()
    for i, row in enumerate(tab.rows, start=1):
        for j in range(1, len(row)):
            if row[j] < row[j - 1]:
                return ValidationReport(False, "row decreases left-to-right", Cell(i, j + 1))
    for j in range(1, (tab.shape[0] if tab.shape else 0) + 1):
        for i in range(1, conj[j - 1]):
            if tab.rows[i][j - 1] <= tab.rows[i - 1][j - 1]:
                return ValidationReport(
                    False, "column fails to increase bottom-to-top", Cell(i + 1, j)
                )
    by_letter = tab._letter_index()
    r = tab.n_letters
    total = 0
    for letter in range(1, r + 1):
        cells = by_letter.get(letter)
        if not cells:
            return ValidationReport(False, f"letter {letter} is missing", None)
        spanned = len({residue(c, n) for c in cells})
        total += spanned
        if spanned > tab.k:
            return ValidationReport(
                False, f"letter {letter} spans {spanned} residues > k={tab.k}", cells[0]
            )
        if weight is not None:
            expected = weight[letter - 1] if letter <= len(weight) else 0
            if spanned != expected:
                return ValidationReport(
                    False,
                    f"letter {letter} spans {spanned} residues, expected {expected}",
                    cells[0],
                )
    if weight is not None and r != len(weight):
        return ValidationReport(False, f"{r} letters, expected {len(weight)}", None)
    hooks = k_bounded_hooks(tab.shape, tab.k)
    if total != hooks:
        return ValidationReport(
            False,
            f"residue classes sum to {total} but shape has {hooks} k-bounded hooks",
            None,
        )
    return ValidationReport(True)


@dataclass(frozen=True)
class SequenceEntry:
    letter: int
    residue: int
    cells: frozenset[Cell]


@dataclass(frozen=True)
class StandardSequence:
    """One residue class per consecutive letter 1..len(entries)."""

    entries: tuple[SequenceEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, letter: int) -> SequenceEntry:
        if not 1 <= letter <= len(self.entries):
            raise ValueError(f"letter {letter} not in sequence of length {len(self)}")
        return self.entries[letter - 1]

    def residues(self) -> tuple[int, ...]:
        return tuple(e.residue for e in self.entries)


def standard_sequences(tab: KTableau) -> list[StandardSequence]:
    """Split a k-tableau into its standard sequences.

    Each sequence starts from the right-most unused letter-1 cell and, for
    every following letter, picks the unused residue class closest to the
    previous entry's residue reading counter-clockwise on a clock labelled
    0..k clockwise, i.e. minimising (prev - candidate) mod (k+1).  An entry
    consists of all cells carrying that letter and residue.
    """
    n = tab.k + 1
    by_letter = tab._letter_index()
    groups: list[dict[int, frozenset[Cell]]] = []
    for letter in range(1, tab.n_letters + 1):
        by_res: dict[int, list[Cell]] = {}
        for cell in by_letter.get(letter, ()):
            by_res.setdefault(residue(cell, n), []).append(cell)
        groups.append({r: frozenset(cs) for r, cs in by_res.items()})
    weight = tuple(len(g) for g in groups)
    for a, b in zip(weight, weight[1:]):
        if a < b:
            raise ValueError(f"weight {weight} is not a partition")
    if any(part > tab.k for part in weight):
        raise ValueError(f"weight {weight} has a part exceeding k={tab.k}")

    unused = [set(g) for g in groups]
    sequences: list[StandardSequence] = []
    while unused and unused[0]:
        first_cell = max(
            (c for r in unused[0] for c in groups[0][r]), key=lambda c: c.col
        )
        prev = residue(first_cell, n)
        unused[0].discard(prev)
        entries = [SequenceEntry(1, prev, groups[0][prev])]
        for idx in range(1, len(groups)):
            if not unused[idx]:
                break
            chosen = min(unused[idx], key=lambda r: (prev - r) % n)
            if chosen == prev:
                logger.debug(
                    "standard sequence repeats residue %d at letter %d", chosen, idx + 1
                )
            unused[idx].discard(chosen)
            entries.append(SequenceEntry(idx + 1, chosen, groups[idx][chosen]))
            prev = chosen
        sequences.append(StandardSequence(tuple(entries)))
    if any(unused):
        raise ValueError("letter residue classes left over; weight is inconsistent")
    return sequences


def restrict_sequence(seq: StandardSequence, letter: int) -> frozenset[Cell]:
    """Union of the sequence's cells for letters <= letter (a scattered set)."""
    seq.entry(letter)
    return frozenset(
        c for e in seq.entries[:letter] for c in e.cells
    )


def lowest_occurrence(seq: StandardSequence, letter: int) -> Cell:
    """The sequence's letter cell with the smallest row."""
    return min(seq.entry(letter).cells, key=lambda c: (c.row, c.col))


def highest_occurrence(seq: StandardSequence, letter: int) -> Cell:
    """The sequence's letter cell with the largest row."""
    return max(seq.entry(letter).cells, key=lambda c: (c.row, c.col))


def _tableau_sort_key(tab: KTableau) -> tuple:
    # Tableaux of one shape have equal row lengths, so comparing the rows
    # orders them exactly as their bottom-to-top reading words.
    return (partition_sort_key(tab.shape), tab.rows)


def _weak_strips(shape: Partition, n: int, residues: tuple[int, ...]) -> list[Partition]:
    """The horizontal-strip extension of shape spanning exactly the given
    residues (fewer than n of them), as a list of at most one shape.

    By the k-bounded Pieri rule the strip is the action of the cyclically
    ordered word of the residue set: each maximal run r, r+1, ... of
    consecutive residues mod n is filled in increasing order, one residue
    class at a time.  Runs are separated by gaps, so they commute.
    """
    chosen = set(residues)
    grown = shape
    for start in sorted(chosen):
        if (start - 1) % n in chosen:
            continue  # not the first residue of its run
        res = start
        while res in chosen:
            grown = add_residue_class(grown, n, res)
            if grown is None:
                return []
            res = (res + 1) % n
    # The added cells must lie in distinct columns.
    if len(grown) > len(shape) + 1 or any(b > a for a, b in zip(shape, grown[1:])):
        return []
    return [grown]


def _extend_rows(
    rows: tuple[tuple[int, ...], ...], shape: Partition, letter: int
) -> tuple[tuple[int, ...], ...]:
    padded = rows + ((),) * (len(shape) - len(rows))
    return tuple(row + (letter,) * (part - len(row)) for row, part in zip(padded, shape))


def _enumerate_fast(
    k: int, weight: Sequence[int], target: Partition | None
) -> list[KTableau]:
    n = k + 1
    found: list[KTableau] = []
    stack: list[tuple[Partition, tuple[tuple[int, ...], ...], int]] = [(Partition(), (), 0)]
    while stack:
        shape, rows, idx = stack.pop()
        if idx == len(weight):
            if target is None or shape == target:
                found.append(KTableau(k, rows))
            continue
        for chosen in combinations(range(n), weight[idx]):
            for grown in _weak_strips(shape, n, chosen):
                if target is not None and (
                    len(grown) > len(target) or any(a > b for a, b in zip(grown, target))
                ):
                    continue
                stack.append((grown, _extend_rows(rows, grown, idx + 1), idx + 1))
    return found


def _enumerate_oracle(
    k: int, weight: Sequence[int], target: Partition | None
) -> list[KTableau]:
    n = k + 1
    m = sum(weight)
    shapes = [s for s in enumerate_cores(n, m) if k_bounded_hooks(s, k) == m]
    if target is not None:
        shapes = [s for s in shapes if s == target]
    found = []
    for shape in shapes:
        for rows in semistandard_fillings(shape, len(weight)):
            tab = KTableau(k, rows)
            if tab.weight == tuple(weight) and validate(tab, weight).ok:
                found.append(tab)
    return found


def enumerate_k_tableaux(
    k: int,
    weight: Sequence[int],
    shape: Partition | None = None,
    strategy: str = "fast",
) -> list[KTableau]:
    """All k-tableaux of the given weight (and shape, if supplied).

    The weight may be any composition with parts between 1 and k.  Output
    is in canonical order: by shape (size, then reverse-lexicographic),
    then by bottom-to-top left-to-right reading word.

    Strategies: "fast" grows the tableau letter by letter, adding for each
    residue set of the letter's size the one weak strip that the k-bounded
    Pieri rule allows (see `_weak_strips`); "oracle" brute-forces all
    fillings of all candidate core shapes and filters by `validate`.  Both
    return identical sets.
    """
    weight = tuple(int(a) for a in weight)
    if any(a < 1 for a in weight):
        raise ValueError(f"weight parts must be positive, got {weight}")
    if any(a > k for a in weight):
        raise ValueError(f"weight {weight} has a part exceeding k={k}")
    if strategy == "fast":
        found = _enumerate_fast(k, weight, shape)
    elif strategy == "oracle":
        found = _enumerate_oracle(k, weight, shape)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return sorted(found, key=_tableau_sort_key)


_ENTRY_RE = re.compile(r"^(\d+)(?:_(\d+))?$")


def to_text(tab: KTableau) -> str:
    """Text form: "k=<k>" header, then one row per line, top row first,
    entries "letter_residue"."""
    n = tab.k + 1
    lines = [f"k={tab.k}"]
    for i in range(len(tab.rows), 0, -1):
        row = tab.rows[i - 1]
        lines.append(
            " ".join(f"{x}_{residue(Cell(i, j), n)}" for j, x in enumerate(row, start=1))
        )
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> KTableau:
    """Inverse of `to_text`; the residue suffix is optional but checked."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("k="):
        raise ValueError("missing k=<k> header line")
    try:
        k = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"bad header {lines[0]!r}") from None
    rows_top_first = []
    for ln in lines[1:]:
        row = []
        for token in ln.split():
            m = _ENTRY_RE.match(token)
            if not m:
                raise ValueError(f"bad entry {token!r}")
            row.append((int(m.group(1)), m.group(2)))
        rows_top_first.append(row)
    rows = [[x for x, _ in row] for row in reversed(rows_top_first)]
    tab = KTableau(k, rows)
    n = k + 1
    for i, row in enumerate(reversed(rows_top_first), start=1):
        for j, (_, res) in enumerate(row, start=1):
            if res is not None and int(res) != residue(Cell(i, j), n):
                raise ValueError(
                    f"entry at row {i}, col {j} claims residue {res}, "
                    f"expected {residue(Cell(i, j), n)}"
                )
    return tab


def to_json_dict(tab: KTableau) -> dict:
    return {
        "k": tab.k,
        "shape": list(tab.shape),
        "rows": [list(row) for row in tab.rows],
    }


def parse_json_dict(data: dict) -> KTableau:
    """Inverse of `to_json_dict`.  `k`, the letters and the optional shape
    entries must be JSON integers; anything else raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    try:
        tab = KTableau(data["k"], data["rows"])
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed tableau fields: {exc}") from None
    if "shape" in data:
        shape = data["shape"]
        if not isinstance(shape, list):
            raise ValueError(f"shape field must be a list, got {shape!r}")
        if [_strict_int(p, "shape entry") for p in shape] != list(tab.shape):
            raise ValueError(f"shape field {shape} disagrees with rows {list(tab.shape)}")
    return tab


def to_json(tab: KTableau) -> str:
    return json.dumps(to_json_dict(tab))


def parse_json(text: str) -> KTableau:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON: {exc}") from None
    return parse_json_dict(data)
