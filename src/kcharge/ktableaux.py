"""k-tableaux: validation, standard sequences, enumeration, text and JSON.

A k-tableau is a semistandard filling of a (k+1)-core in which the cells
holding letter i span exactly weight_i distinct (k+1)-residues.  Rows are
stored bottom-first to match the (row, col) cell convention of `cores`.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import chain
from operator import attrgetter, le, lt

from .cores import (
    Cell,
    Partition,
    _corner_residues,
    _hook_facts,
    _partition_fault,
    _strict_int,
    _strict_k,
    add_residue_class,
    partition_sort_key,
)

# The largest shape, in cells, whose text layout and reading layout are
# kept (`_kept_text_layout`, `_kept_reading_layout`), and the longest row
# whose cells `_cell_row` shares.  A larger shape or a longer row is made
# for its call alone, so that one huge tableau does not stay in a cache.
# The (k, shape) pairs a process reads repeat, and a sweep's shapes are
# small.
_KEPT_LAYOUT_CELLS = 64


def _row_cells(i: int, length: int) -> Iterator[tuple[Cell, frozenset[Cell]]]:
    """(Cell(i, j), frozenset({Cell(i, j)})) for j = 1..length, one pair
    at a time.  Each `Cell` is made as a plain tuple, without the
    Python-level `__new__` of a named tuple.  A row longer than
    `_KEPT_LAYOUT_CELLS` is read from here directly, so its pairs are never
    held all at once."""
    make = tuple.__new__
    for j in range(1, length + 1):
        cell = make(Cell, (i, j))
        yield cell, frozenset((cell,))


@lru_cache(maxsize=4096)
def _cell_row(i: int, length: int) -> tuple[tuple[Cell, frozenset[Cell]], ...]:
    """The pairs of `_row_cells(i, length)`, shared by every reading
    layout with a row i of that length.

    Only a layout that is made reads it, and the rows of a sweep's shapes
    repeat, so the cache of the 4,096 most recent keys makes each row's
    cells about once per process.  It holds no letters, so the index that
    reads it stays independent of how the tableau was built."""
    return tuple(_row_cells(i, length))


def _reading_layout(k: int, shape: Partition) -> Iterator[tuple[Cell, frozenset[Cell], int]]:
    """(cell, its one-cell class, its (k+1)-residue) for each cell of
    shape in reading order, bottom row first, left to right.  The cells and
    classes are the shared pairs of `_cell_row`, or the streamed ones of
    `_row_cells` for a row longer than `_KEPT_LAYOUT_CELLS`."""
    n = k + 1
    for i, length in enumerate(shape, start=1):
        res = (1 - i) % n  # the residue of the cell (i, 1)
        pairs = _cell_row(i, length) if length <= _KEPT_LAYOUT_CELLS else _row_cells(i, length)
        for cell, one in pairs:
            yield cell, one, res
            res += 1
            if res == n:
                res = 0


@lru_cache(maxsize=1024)
def _kept_reading_layout(
    k: int, shape: Partition
) -> tuple[tuple[Cell, frozenset[Cell], int], ...]:
    """`_reading_layout(k, shape)`, shared by every tableau of that k and
    shape of at most `_KEPT_LAYOUT_CELLS` cells.  It holds no letters."""
    return tuple(_reading_layout(k, shape))


class KTableau:
    """A letter-filled (k+1)-core shape, rows bottom-first.

    Construction only checks that the rows form a partition shape and the
    letters are positive integers; use `validate` for the full k-tableau
    conditions, so that candidate fillings can be built and then rejected.
    `k` and the letters must be integers: bools, floats and strings are
    rejected rather than coerced.  Every letter's type is checked before
    any letter's sign, and an error names the first offender in reading
    order.  The row lengths, bottom row first, must form a partition; an
    error names them.

    Two indexes are built together, in one pass over the rows, on first
    use of either, and then shared by every reader: letter -> cells (read
    by `n_letters` and `validate`), and for each letter present the map
    residue -> that letter's cells of the residue (read by `validate` and
    `standard_sequences`).  Both have one key per letter present, so a
    huge letter costs no more than a small one.  The pass reads the
    shape's `_reading_layout`, whose entries are the `Cell`s and one-cell
    classes of `_cell_row`, shared by every tableau with a row of the same
    position and length, so it makes no `Cell` and no frozenset per cell.
    The same pass records the weight, each letter's class count, which
    `weight`, `validate`, `standard_sequences` and the sweep checks read
    without counting again.
    """

    # The indexes and the weight are derived from rows, so equality and
    # hashing ignore them.
    __slots__ = ("k", "rows", "shape", "_by_letter", "_by_residue", "_weight")

    def __init__(self, k: int, rows: Iterable[Iterable[int]]):
        self.k = _strict_k(k)
        # Exact ints skip `_strict_int`, as in `Partition`.
        rows = tuple(
            [tuple([x if type(x) is int else _strict_int(x, "letter") for x in row]) for row in rows]
        )
        for row in rows:
            if row and min(row) < 1:
                bad = next(x for x in row if x < 1)
                raise ValueError(f"letters must be positive, got {bad}")
        self.rows = rows
        lengths = tuple(map(len, rows))
        fault = _partition_fault(lengths)
        if fault:
            raise ValueError(f"row lengths (bottom row first) {fault}, got {lengths}")
        self.shape = Partition(lengths)
        self._by_letter: dict[int, tuple[Cell, ...]] | None = None
        self._by_residue: dict[int, dict[int, frozenset[Cell]]] | None = None

    @classmethod
    def _trusted(
        cls, k: int, rows: tuple[tuple[int, ...], ...], shape: Partition
    ) -> "KTableau":
        """Build without the checks; only for a positive int k and tuple
        rows of positive int letters whose lengths are `shape`, as the
        enumerator grows them."""
        tab = object.__new__(cls)
        tab.k, tab.rows, tab.shape = k, rows, shape
        tab._by_letter = tab._by_residue = None
        return tab

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

    def _index(self) -> None:
        """Both indexes and the weight, from one pass over the cells in
        reading order.

        The reading word is read against the shape's `_reading_layout`,
        which gives each cell, its one-cell class and its residue, so no
        `Cell` and no frozenset is made per cell.  The layout of a shape of
        at most `_KEPT_LAYOUT_CELLS` cells is kept and shared by every
        tableau of that k and shape; a larger one is streamed for this
        pass alone.  A letter's first cell of a residue takes that cell's
        shared one-cell frozenset; only a second cell turns the class into
        a list, and each such list is frozen once at the end.
        The weight is recorded only when the letters are 1..r with none
        missing; otherwise `_weight` is None and `weight` spells out the
        zeros on request, so a huge letter costs nothing here."""
        shape = self.shape
        layout = _kept_reading_layout if sum(shape) <= _KEPT_LAYOUT_CELLS else _reading_layout
        by_letter: dict[int, list[Cell]] = {}
        by_residue: dict[int, dict[int, list[Cell] | frozenset[Cell]]] = {}
        # (classes, residue) of each class with more than one cell.
        grown: list[tuple[dict[int, list[Cell] | frozenset[Cell]], int]] = []
        for x, (cell, one, res) in zip(chain.from_iterable(self.rows), layout(self.k, shape)):
            cells = by_letter.get(x)
            if cells is None:
                by_letter[x] = [cell]
                by_residue[x] = {res: one}
            else:
                cells.append(cell)
                classes = by_residue[x]
                same = classes.get(res)
                if same is None:
                    classes[res] = one
                elif type(same) is list:
                    same.append(cell)
                else:
                    classes[res] = [*same, cell]
                    grown.append((classes, res))
        for classes, res in grown:
            classes[res] = frozenset(classes[res])
        self._by_letter = {x: tuple(cells) for x, cells in by_letter.items()}
        self._by_residue = by_residue
        r = len(by_residue)
        self._weight = (
            tuple([len(by_residue[x]) for x in range(1, r + 1)])
            if max(by_residue, default=0) == r
            else None
        )

    def _letter_index(self) -> dict[int, tuple[Cell, ...]]:
        """letter -> its cells, bottom row first and left to right."""
        if self._by_letter is None:
            self._index()
        return self._by_letter

    def _residue_index(self) -> dict[int, dict[int, frozenset[Cell]]]:
        """letter -> (residue -> the letter's cells of that residue), residues
        in order of first cell.  Only letters present are keys, so the index
        is no larger than the tableau, whatever its largest letter."""
        if self._by_residue is None:
            self._index()
        return self._by_residue

    @property
    def n_letters(self) -> int:
        return max(self._letter_index(), default=0)

    @property
    def weight(self) -> tuple[int, ...]:
        """Number of distinct residues spanned by each letter 1..n_letters."""
        index = self._residue_index()
        if self._weight is None:  # some letter below the largest is missing
            return tuple([len(index.get(x, ())) for x in range(1, max(index) + 1)])
        return self._weight

class ValidationReport(namedtuple("ValidationReport", "ok problem cell", defaults=(None, None))):
    """Whether a tableau is a k-tableau, and if not the first violated
    invariant and an offending cell where one exists.  True exactly when
    ok, whatever the other fields hold."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


# The report of every valid tableau; the record is immutable, so one is
# shared.
_VALID = ValidationReport(True)


def _weakly_increasing(row: tuple[int, ...]) -> bool:
    """Each letter of the row is at most the one right of it."""
    return all(map(le, row, row[1:]))


def _strictly_below(lower: tuple[int, ...], upper: tuple[int, ...]) -> bool:
    """Each letter of the lower row is less than the one above it, up to
    the shorter (upper) row's end."""
    return all(map(lt, lower, upper))


def validate(tab: KTableau, weight: Sequence[int] | None = None) -> ValidationReport:
    """Check all k-tableau invariants; never raises.

    Diagnostics name the first violated invariant and an offending cell
    where one exists.  If an expected weight is supplied, each letter's
    residue span is checked against it; otherwise the weight is derived
    and only its total is checked against the k-bounded hook count.

    The rows and columns are compared whole, and the weight that the index
    pass recorded is compared at once with the expected weight, with k and
    with the hook count.  Only a failure falls back to a scan, cell by cell
    or letter by letter, which names the first offender.
    """
    n = tab.k + 1
    cell, hooks = _hook_facts(tab.shape, n)
    if cell is not None:
        return ValidationReport(False, f"shape {tab.shape} is not a {n}-core", cell)
    # Whole rows are compared at once.  Only a failure is scanned cell by
    # cell, rows bottom-first and then columns left to right, to name the
    # first offending cell in that order.
    rows = tab.rows
    if not all(map(_weakly_increasing, rows)):
        for i, row in enumerate(rows, start=1):
            for j in range(1, len(row)):
                if row[j] < row[j - 1]:
                    return ValidationReport(
                        False, "row decreases left-to-right", Cell(i, j + 1)
                    )
    # Each row against the row above it.
    if not all(map(_strictly_below, rows, rows[1:])):
        conj = tab.shape.conjugate()
        for j in range(1, tab.shape[0] + 1):
            for i in range(1, conj[j - 1]):
                if rows[i][j - 1] <= rows[i - 1][j - 1]:
                    return ValidationReport(
                        False, "column fails to increase bottom-to-top", Cell(i + 1, j)
                    )
    # The recorded weight is None when a letter is missing.
    by_letter = tab._letter_index()
    have = tab._weight
    if (
        have is not None
        and max(have, default=0) <= tab.k
        and (weight is None or tuple(weight) == have)
        and sum(have) == hooks
    ):
        return _VALID
    classes = tab._residue_index()
    r = tab.n_letters
    total = 0
    for letter in range(1, r + 1):
        cells = by_letter.get(letter)
        if not cells:
            return ValidationReport(False, f"letter {letter} is missing", None)
        spanned = len(classes[letter])
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
    if total != hooks:
        return ValidationReport(
            False,
            f"residue classes sum to {total} but shape has {hooks} k-bounded hooks",
            None,
        )
    return _VALID


# One letter's residue class in a standard sequence: the letter, the
# residue and the letter's cells of that residue.
SequenceEntry = namedtuple("SequenceEntry", "letter residue cells")


class StandardSequence(namedtuple("StandardSequence", "entries")):
    """One residue class per consecutive letter 1..len(entries).  Its
    length is the number of entries, not of fields."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.entries)

    def residues(self) -> tuple[int, ...]:
        return tuple([e.residue for e in self.entries])


def _sequence_fault(weight: tuple[int, ...], k: int) -> str | None:
    """Why a tableau of this weight has no standard sequences (its weight
    is not a partition, or has a part exceeding k), or None."""
    if _partition_fault(weight):
        return f"weight {weight} is not a partition"
    if max(weight, default=0) > k:
        return f"weight {weight} has a part exceeding k={k}"
    return None


def standard_sequences(tab: KTableau) -> list[StandardSequence]:
    """Split a k-tableau into its standard sequences.

    Each sequence starts from the right-most unused letter-1 cell and, for
    every following letter, picks the unused residue class closest to the
    previous entry's residue reading counter-clockwise on a clock labelled
    0..k clockwise, i.e. minimising (prev - candidate) mod (k+1).  An entry
    consists of all cells carrying that letter and residue: one class of
    the tableau's residue-class index, shared with `weight` and `validate`.
    A standard weight (every part 1) has one sequence, each letter's one
    class in turn, which is read directly.

    This function checks the weight, and raises ValueError unless it is a
    partition with parts at most k; the split itself is
    `_split_sequences`, which checks nothing.
    """
    weight = tab.weight
    fault = _sequence_fault(weight, tab.k)
    if fault is not None:
        raise ValueError(fault)
    return _split_sequences(tab, weight)


def _split_sequences(tab: KTableau, weight: Sequence[int]) -> list[StandardSequence]:
    """The standard sequences of `tab`, as `standard_sequences` splits
    them, for a caller that knows the weight: `weight` must be the
    tableau's, a partition with parts at most k, as `validate(tab, weight)`
    shows; nothing here checks it."""
    if not weight:
        return []
    n = tab.k + 1
    # A partition has no zero part, so every letter 1..len(weight) is a key.
    index = tab._residue_index()
    letters = range(1, len(weight) + 1)
    # The entries and the sequences are built as plain tuples, without the
    # Python-level `__new__` of a named tuple.
    make = tuple.__new__
    if weight[0] == 1:
        # Every part is 1 (the first part of a partition is its largest):
        # each letter has one class, and the one sequence takes them in turn.
        entries = [
            make(SequenceEntry, (x, res, cells))
            for x in letters
            for res, cells in index[x].items()
        ]
        return [make(StandardSequence, (tuple(entries),))]
    groups = [index[x] for x in letters]

    # Letter 1's classes in the order the sequences start from them: by
    # their right-most cell, right to left (a tie keeps set order, as a
    # `max` over the unused classes would).  One class needs no order.
    ones = groups[0]
    starts = (
        list(ones)
        if len(ones) == 1
        else sorted(set(ones), key=lambda r: max([col for _, col in ones[r]]), reverse=True)
    )
    # A weakly decreasing weight keeps |unused[i]| <= |unused[i-1]| through
    # every pass, so all letters run out of classes together.
    unused = [set(g) for g in groups[1:]]
    sequences: list[StandardSequence] = []
    for prev in starts:
        entries = [make(SequenceEntry, (1, prev, ones[prev]))]
        for letter, classes in enumerate(unused, start=2):
            if not classes:
                break
            if len(classes) == 1:
                # The only unused class is the nearest.
                chosen = classes.pop()
            else:
                # The unused class nearest counter-clockwise from prev.
                nearest = n
                for res in classes:
                    if (prev - res) % n < nearest:
                        chosen, nearest = res, (prev - res) % n
                classes.discard(chosen)
            entries.append(make(SequenceEntry, (letter, chosen, groups[letter - 1][chosen])))
            prev = chosen
        sequences.append(make(StandardSequence, (tuple(entries),)))
    return sequences


@lru_cache(maxsize=4096)
def _weak_strips(shape: Partition, n: int, size: int) -> tuple[Partition, ...]:
    """Every weak strip on shape that spans exactly `size` residues (fewer
    than n): one horizontal-strip extension per residue set that has one.

    The strips are a pure function of (shape, n, size) and the chains of a
    sweep pass through few cores, so they are kept in a cache of the 4,096
    most recent keys and returned as a tuple, which no caller can change;
    each core's strips are grown about once per process.

    By the k-bounded Pieri rule the strip of a residue set fills each
    maximal run r, r+1, ... of consecutive residues mod n in increasing
    order, one residue class at a time, runs by increasing start.  Here the
    runs are grown instead of tried per residue set.  A run starts only at
    an addable residue of shape: filling residue class x makes new addable
    corners only of residues x-1 and x+1, and each earlier run ends at
    least two residues below the next start.  Every run length that fills
    is pushed on a stack.  A later run starts at least two residues past
    the previous run's end, and cyclically every run ends before the first
    start, so each residue set is reached once, through its maximal runs.
    Every strip built so is horizontal, with no further check: filling
    residue x opens a corner of residue x-1 only directly above a cell it
    just added, runs only increase, and every run ends cyclically before
    residue first-1, so no run fills x-1 after x.  The added cells thus lie
    in distinct columns, and at most one new row appears.
    """
    starts = sorted({res for res in _corner_residues(shape, n) if res is not None})
    strips: list[Partition] = []
    # (grown shape, residues still to add, first run's start or n before any
    # run, lowest next start); later starts exceed the first, hence the min.
    stack: list[tuple[Partition, int, int, int]] = [(shape, size, n, 0)]
    while stack:
        grown, left, first, low = stack.pop()
        if not left:
            strips.append(grown)
            continue
        for start in starts:
            if start < low:
                continue
            head = min(first, start)
            run = grown
            for m in range(1, left + 1):
                if start + m - n >= head:
                    break  # the run would reach the first run's start
                run = add_residue_class(run, n, (start + m - 1) % n)
                if run is None:
                    break
                stack.append((run, left - m, head, start + m + 1))
    return tuple(strips)


def _extend_rows(
    rows: tuple[tuple[int, ...], ...], shape: Partition, letter: int
) -> tuple[tuple[int, ...], ...]:
    padded = rows + ((),) * (len(shape) - len(rows))
    return tuple([row + (letter,) * (part - len(row)) for row, part in zip(padded, shape)])


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
                found.append(KTableau._trusted(k, rows, shape))
            continue
        for grown in _weak_strips(shape, n, weight[idx]):
            if target is not None and (
                len(grown) > len(target) or any(a > b for a, b in zip(grown, target))
            ):
                continue
            stack.append((grown, _extend_rows(rows, grown, idx + 1), idx + 1))
    return found


def enumerate_k_tableaux(
    k: int, weight: Sequence[int], shape: Partition | None = None
) -> list[KTableau]:
    """All k-tableaux of the given weight (and shape, if supplied).

    k must be a positive integer, and the weight any composition with
    parts between 1 and k; k and the parts must be integers (bools, floats
    and strings raise ValueError).  A shape must be a partition, checked
    as `Partition` checks it; all three are checked before anything is
    grown.  Output is in canonical order: by shape (size, then
    reverse-lexicographic), then by bottom-to-top left-to-right reading
    word.

    The tableau grows letter by letter, adding every weak strip of the
    letter's size that the k-bounded Pieri rule allows, built run by run
    from the addable residues (see `_weak_strips`).  The tests compare it
    with a brute-force oracle in `tests/reference.py`, which fills every
    candidate core and keeps what `validate` accepts.
    """
    k = _strict_k(k)
    weight = tuple(_strict_int(a, "weight part") for a in weight)
    if any(a < 1 for a in weight):
        raise ValueError(f"weight parts must be positive, got {weight}")
    if any(a > k for a in weight):
        raise ValueError(f"weight {weight} has a part exceeding k={k}")
    if shape is not None:
        shape = Partition(shape)
    found = _enumerate_fast(k, weight, shape)
    # The distinct shapes are sorted once, each by one key, and then each
    # shape's tableaux.  Tableaux of one shape have equal row lengths, so
    # comparing the rows orders them exactly as their bottom-to-top
    # reading words.
    groups: dict[Partition, list[KTableau]] = {}
    for tab in found:
        groups.setdefault(tab.shape, []).append(tab)
    ordered: list[KTableau] = []
    for grown in sorted(groups, key=partition_sort_key):
        ordered += sorted(groups[grown], key=attrgetter("rows"))
    return ordered


def _text_layout(k: int, shape: Partition) -> str:
    """The text of every k-tableau of this shape with a "{}" for each
    letter: the "k=<k>" header, then each row, top row first, as
    "{}_<residue>" entries.  It is O(cells), whatever k is."""
    n = k + 1
    lines = [f"k={k}"]
    # Row i and column j counted from 0: the cell's residue is (j - i) % n.
    for i in range(len(shape) - 1, -1, -1):
        lines.append(" ".join([f"{{}}_{(j - i) % n}" for j in range(shape[i])]))
    return "\n".join(lines) + "\n"


_kept_text_layout = lru_cache(maxsize=1024)(_text_layout)


def to_text(tab: KTableau) -> str:
    """Text form: "k=<k>" header, then one row per line, top row first,
    entries "letter_residue".

    The letters, top row first, fill the shape's `_text_layout` in one
    `str.format`."""
    shape = tab.shape
    layout = _kept_text_layout if sum(shape) <= _KEPT_LAYOUT_CELLS else _text_layout
    return layout(tab.k, shape).format(*[x for row in reversed(tab.rows) for x in row])


def parse_text(text: str) -> KTableau:
    """Inverse of `to_text`; the residue suffix is optional but checked.
    k, letters and residues must be written in ASCII digits 0-9.

    Each entry is read once, in one pass over the lines, top line first.
    The errors keep one precedence: a bad header, then the first malformed
    entry as written (top line first, left to right), then `KTableau`'s
    checks of k, the letters and the row lengths, and last the first wrong
    residue claim bottom row first, left to right."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines or not lines[0].startswith("k="):
        raise ValueError("missing k=<k> header line")
    head = lines[0][2:]
    if not (head.isascii() and head.isdigit()):
        raise ValueError(f"bad header {lines[0]!r}")
    n = int(head) + 1
    rows = []
    # (row, col, claimed, expected) of the first wrong claim in the lowest
    # row read so far: a lower row's claim replaces a higher row's.
    wrong = None
    for i, line in zip(range(len(lines) - 1, 0, -1), lines[1:]):
        row = []
        res = (1 - i) % n  # the residue of the cell (i, 1)
        for token in line.split():
            letter, sep, claim = token.partition("_")
            if not (
                letter.isascii()
                and letter.isdigit()
                and (not sep or (claim.isascii() and claim.isdigit()))
            ):
                raise ValueError(f"bad entry {token!r}")
            row.append(int(letter))
            if sep and int(claim) != res and (wrong is None or wrong[0] != i):
                wrong = (i, len(row), int(claim), res)
            res += 1
            if res == n:
                res = 0
        rows.append(row)
    rows.reverse()
    tab = KTableau(n - 1, rows)
    if wrong is not None:
        raise ValueError(
            "entry at row {}, col {} claims residue {}, expected {}".format(*wrong)
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


def parse_json(text: str) -> KTableau:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON: {exc}") from None
    return parse_json_dict(data)
