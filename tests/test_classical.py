import tracemalloc
from itertools import permutations

import pytest

from kcharge import statistics
from kcharge.cores import Cell, Partition, n_stat, partitions
from kcharge.ktableaux import enumerate_k_tableaux, standard_sequences, to_text
from kcharge.statistics import (
    TPolynomial,
    charge_table,
    classical_charge,
    classical_cocharge,
    kostka_foulkes_table,
)
from kcharge.sweeps import weights_up_to
from reference import (
    _standard_subword,
    classical_charge_literal,
    enumerate_ssyt,
    hook_length,
)


def dominates(lam, mu):
    """lam >= mu in dominance order (same size)."""
    partial_l = partial_m = 0
    for i in range(max(len(lam), len(mu))):
        partial_l += lam[i] if i < len(lam) else 0
        partial_m += mu[i] if i < len(mu) else 0
        if partial_l < partial_m:
            return False
    return True


def test_charge_is_the_literal_extraction_on_every_small_tableau():
    # Every semistandard tableau of every partition weight of size <= 9,
    # read from per-letter position lists and by rebuilding the word.
    tableaux = 0
    for size in range(1, 10):
        for mu in partitions(size):
            for lam in partitions(size):
                for rows in enumerate_ssyt(lam, mu):
                    assert classical_charge(rows) == classical_charge_literal(rows), rows
                    tableaux += 1
    assert tableaux == 9437


def test_charge_is_the_literal_extraction_on_every_short_word():
    # Any word of partition content, read as one row, whether or not it is
    # weakly increasing, so a subword may wrap at any letter.
    words = 0
    for size in range(1, 8):
        for mu in partitions(size):
            letters = [x for x, part in enumerate(mu, start=1) for _ in range(part)]
            for word in set(permutations(letters)):
                assert classical_charge([word]) == classical_charge_literal([word]), word
                words += 1
    assert words == 13390


def test_charge_extremes():
    assert classical_charge([[1], [2], [3]]) == 0
    assert classical_charge([[1, 2, 3]]) == 3
    assert classical_charge([]) == 0


def test_charge_of_superstandard_is_zero():
    for mu in [(3, 2), (2, 2, 1), (4, 1, 1), (2, 1)]:
        rows = [[i + 1] * part for i, part in enumerate(mu)]
        assert classical_charge(rows) == 0


def test_known_kostka_foulkes_values():
    assert str(kostka_foulkes_table((1, 1, 1))[Partition([2, 1])]) == "t + t^2"
    assert str(kostka_foulkes_table((2, 1))[Partition([3])]) == "t"
    assert str(kostka_foulkes_table((1, 1, 1, 1))[Partition([2, 2])]) == "t^2 + t^4"
    assert str(kostka_foulkes_table((2, 1, 1))[Partition([3, 1])]) == "t + t^2"


def test_row_shape_concentrates_at_n_stat():
    for mu in [(1, 1, 1), (2, 1), (2, 2, 1), (3, 1, 1)]:
        table = kostka_foulkes_table(mu)
        assert table[Partition([sum(mu)])] == TPolynomial({n_stat(Partition(mu)): 1})


def test_diagonal_entry_is_one():
    for mu in [(2, 1), (2, 2), (3, 1, 1), (2, 2, 1)]:
        assert kostka_foulkes_table(mu)[Partition(mu)] == TPolynomial({0: 1})


def test_cocharge_complements_charge():
    for mu in partitions(5):
        bound = n_stat(mu)
        for lam in partitions(5):
            for rows in enumerate_ssyt(lam, mu):
                charge = classical_charge(rows)
                assert 0 <= charge <= bound
                assert classical_cocharge(rows) == bound - charge


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[1, 1, 2], [2, 3]],
        [[1, 1, 1, 2, 3], [2, 2, 3, 3]],
        [[1, 2, 3]],
        [[1], [2], [3]],
        [[1, 3]],
        [[1, 2, 2]],
        [[2, 2], [3]],
        [[2]],
        [[0, 1]],
        [[1, 1], [0]],
    ],
)
def test_classical_statistics_equal_the_pair_of_calls(rows):
    # One charge computation gives both statistics, and any failure is the
    # one the two separate calls raise first.
    pair = _outcome(lambda: (classical_charge(rows), classical_cocharge(rows)))
    assert _outcome(lambda: statistics._classical_statistics(rows)) == pair


def test_charge_requires_partition_weight():
    with pytest.raises(ValueError):
        classical_charge([[1, 2, 2]])
    with pytest.raises(ValueError):
        classical_cocharge([[2, 2], [3]])


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[1, 3]], "weight [1, 0, 1] is not a partition"),
        ([[1, 2, 2]], "weight [1, 2] is not a partition"),
        ([[2]], "weight [0, 1] is not a partition"),
    ],
)
@pytest.mark.parametrize("statistic", [classical_charge, classical_cocharge])
def test_non_partition_weight_is_named_alike(statistic, rows, message):
    # Cocharge is read off the charge computation, so both statistics name
    # the weight, not the Partition built from it.
    with pytest.raises(ValueError) as exc:
        statistic(rows)
    assert str(exc.value) == message


def test_missing_letter_is_named_without_a_list_per_letter():
    # A letter above the cell count means a missing letter, so the weight
    # is counted before any per-letter position list is made: a peak of
    # 8.0 MB at a largest letter of 100,000, about 1.1 MB with the count.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            classical_charge([[1, 100000]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"weight {[1] + [0] * 99998 + [1]} is not a partition"
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[1.0]], "letter must be an integer, got 1.0"),
        ([[True]], "letter must be an integer, got True"),
        ([[1, 1], ["2"]], "letter must be an integer, got '2'"),
        # Every letter's type is checked before any letter's sign.
        ([[0, 1], [2.0]], "letter must be an integer, got 2.0"),
        ([[1, 2.5], [False]], "letter must be an integer, got 2.5"),
    ],
)
@pytest.mark.parametrize("statistic", [classical_charge, classical_cocharge])
def test_non_integer_letter_is_named(statistic, rows, message):
    # Letters are read as KTableau reads them, bottom row first.  A float
    # used to reach a TypeError and a bool to be counted as the letter 1.
    with pytest.raises(ValueError) as exc:
        statistic(rows)
    assert str(exc.value) == message


@pytest.mark.parametrize("rows", [[[0, 1]], [[1, 1], [0]], [[0]]])
@pytest.mark.parametrize("statistic", [classical_charge, classical_cocharge])
def test_letter_zero_is_named(statistic, rows):
    # A 0 used to be counted as the largest letter (counts[-1]) and end in
    # an IndexError.
    with pytest.raises(ValueError) as exc:
        statistic(rows)
    assert str(exc.value) == "letters must be positive, got 0"


def test_enumerate_ssyt_counts():
    assert len(enumerate_ssyt(Partition([2, 1]), (1, 1, 1))) == 2
    assert len(enumerate_ssyt(Partition([2, 2]), (2, 1, 1))) == 1
    assert len(enumerate_ssyt(Partition([2, 1, 1]), (1, 1, 1, 1))) == 3
    assert enumerate_ssyt(Partition([2, 1]), (1, 1)) == []
    assert enumerate_ssyt(Partition([1, 1]), (2,)) == []
    # A zero part is a letter that does not occur.
    assert enumerate_ssyt(Partition((2, 1)), (2, 0, 1)) == [((1, 1), (3,))]
    assert enumerate_ssyt(Partition((1,)), (0, 1)) == [((2,),)]


def test_enumerate_ssyt_rejects_non_integer_weight():
    with pytest.raises(ValueError, match="weight part must be an integer"):
        enumerate_ssyt(Partition((2, 1)), (2.7, 1))


def test_kostka_foulkes_table_rejects_non_integer_weight():
    with pytest.raises(ValueError, match="weight part must be an integer"):
        kostka_foulkes_table((2.2, 1))


@pytest.mark.parametrize(
    "fill,weight,message",
    [
        (lambda w: enumerate_ssyt(Partition((1,)), w), (2, -1), "non-negative"),
        (lambda w: enumerate_ssyt(Partition((2, 1)), w), (-1, 2, 2), "non-negative"),
        (kostka_foulkes_table, (3, -1, 1), "positive"),
        (kostka_foulkes_table, (-1,), "positive"),
        (lambda w: charge_table(3, w), (3, -1, 1), "positive"),
        (lambda w: charge_table(3, w), (-1,), "positive"),
    ],
    ids=[
        "ssyt-sum-matches",
        "ssyt-first-part",
        "kostka-middle-part",
        "kostka-only-part",
        "charge-middle-part",
        "charge-only-part",
    ],
)
def test_negative_weight_part_raises_before_any_filling(monkeypatch, fill, weight, message):
    # A negative part once let the filler return fillings of another
    # content, or reach a misleading "not a partition" error.  The tables
    # ask for positive parts, as the enumerator and the CLI do; the
    # classical filler allows a zero part.
    fillings = []
    monkeypatch.setattr(statistics, "semistandard_fillings", lambda *a: fillings.append(a))
    monkeypatch.setattr(statistics, "enumerate_k_tableaux", lambda *a: fillings.append(a))
    with pytest.raises(ValueError) as exc:
        fill(weight)
    assert str(exc.value) == f"weight parts must be {message}, got {weight}"
    assert fillings == []


@pytest.mark.parametrize(
    "weight,message",
    [
        ((2, 1, 0), "weight parts must be positive, got (2, 1, 0)"),
        ((0, 1), "weight parts must be positive, got (0, 1)"),
        ((2, 0, 1), "weight parts must be positive, got (2, 0, 1)"),
        ((0,) + (1,) * 40, f"weight parts must be positive, got {(0,) + (1,) * 40}"),
        ((1, 2), "weight (1, 2) is not a partition"),
    ],
    ids=["trailing-zero", "leading-zero", "middle-zero", "large-leading-zero", "increasing"],
)
def test_tables_reject_a_zero_weight_part_up_front(monkeypatch, weight, message):
    # A trailing zero once gave the table of the weight without it, and a
    # zero before a positive part was named only after every filling.  Both
    # tables name a weight the same way: a part below 1 first, wherever it
    # stands, and only then an order that is not a partition's.
    built = []
    monkeypatch.setattr(statistics, "semistandard_fillings", lambda *a: built.append(a))
    monkeypatch.setattr(statistics, "enumerate_k_tableaux", lambda *a: built.append(a))
    with pytest.raises(ValueError) as exc:
        kostka_foulkes_table(weight)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        charge_table(3, weight)
    assert str(exc.value) == message
    assert built == []


def test_enumerate_ssyt_fillings_are_semistandard():
    for rows in enumerate_ssyt(Partition([3, 2]), (2, 2, 1)):
        for row in rows:
            assert list(row) == sorted(row)
        for j in range(2):
            assert rows[0][j] < rows[1][j]


def test_table_supported_on_dominating_shapes():
    for size in range(1, 6):
        for mu in partitions(size):
            for lam in kostka_foulkes_table(mu):
                assert dominates(lam, mu)


def test_kostka_numbers_match_enumeration():
    for size in range(1, 6):
        for mu in partitions(size):
            table = kostka_foulkes_table(mu)
            for lam in partitions(size):
                count = len(enumerate_ssyt(lam, mu))
                poly = table.get(lam, TPolynomial())
                assert sum(c for _, c in poly.items()) == count


@pytest.mark.parametrize("mu", [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1, 1)])
def test_large_k_degeneration_small(mu):
    assert charge_table(sum(mu), mu) == kostka_foulkes_table(mu)


def _hook_formula(shape):
    """t^n(shape') (1-t)(1-t^2)...(1-t^n) / prod over the cells of
    (1 - t^hook), n = |shape|, with each division exact (Macdonald, Ch.
    III): the charge generating polynomial of the standard tableaux of
    shape."""
    n = shape.size()
    coeffs = [1]
    for i in range(1, n + 1):
        coeffs = [a - (coeffs[j - i] if j >= i else 0) for j, a in enumerate(coeffs + [0] * i)]
    for cell in shape.cells():
        h = hook_length(shape, cell)
        # The quotient q of coeffs by 1 - t^h has q_j = coeffs_j + q_(j-h).
        for j in range(h, len(coeffs)):
            coeffs[j] += coeffs[j - h]
        assert not any(coeffs[len(coeffs) - h :]), (shape, h)
        del coeffs[len(coeffs) - h :]
    shift = n_stat(shape.conjugate())
    return TPolynomial({shift + e: c for e, c in enumerate(coeffs)})


def test_standard_weight_table_is_the_hook_formula():
    # Independent of classical_charge, which both the table and the
    # large-k identity of verify rest on.
    shapes = 0
    for n in range(1, 9):
        table = kostka_foulkes_table((1,) * n)
        assert list(table) == list(partitions(n))
        for shape, poly in table.items():
            assert poly == _hook_formula(shape), shape
            shapes += 1
    assert shapes == 66


def _classical_subwords(rows):
    """The cells of the classical standard subwords of the reading word of
    rows (bottom-first), as `classical_charge` extracts them: per subword,
    the cell of each letter 1, 2, ... in turn."""
    cells = [Cell(i, j) for i in range(len(rows), 0, -1) for j in range(1, len(rows[i - 1]) + 1)]
    word = [x for row in reversed(rows) for x in row]
    subwords = []
    while word:
        chosen = _standard_subword(word, max(word))
        subwords.append([cells[p] for p in chosen])
        keep = set(chosen)
        word = [x for p, x in enumerate(word) if p not in keep]
        cells = [c for p, c in enumerate(cells) if p not in keep]
    return subwords


def _large_k(tab):
    return tab.k > tab.shape[0] + len(tab.shape) - 2


def _assert_extraction_is_classical(tab):
    sequences = [[set(cells) for _, _, cells in seq.entries] for seq in standard_sequences(tab)]
    classical = [[{cell} for cell in cells] for cells in _classical_subwords(tab.rows)]
    assert sequences == classical, to_text(tab)


def test_large_k_standard_sequences_are_the_classical_subwords(random_tableaux):
    # At large k every residue class is one cell, and the standard
    # sequences are the Lascoux-Schutzenberger extraction of the reading word.
    tableaux = [
        tab
        for k, mu in weights_up_to(6, 9)
        for tab in enumerate_k_tableaux(k, mu)
        if _large_k(tab)
    ]
    assert len(tableaux) == 3812
    fixture = [tab for _, tab in random_tableaux if _large_k(tab)]
    assert len(fixture) >= 30
    for tab in tableaux + fixture:
        _assert_extraction_is_classical(tab)
