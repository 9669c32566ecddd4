import pytest

from kcharge import statistics
from kcharge.cores import Partition, n_stat, partitions
from kcharge.statistics import (
    TPolynomial,
    charge_table,
    classical_charge,
    classical_cocharge,
    enumerate_ssyt,
    kostka_foulkes_table,
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
        assert table[Partition([sum(mu)])] == TPolynomial.monomial(n_stat(Partition(mu)))


def test_diagonal_entry_is_one():
    for mu in [(2, 1), (2, 2), (3, 1, 1), (2, 2, 1)]:
        assert kostka_foulkes_table(mu)[Partition(mu)] == TPolynomial.monomial(0)


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


def test_enumerate_ssyt_rejects_non_integer_weight():
    with pytest.raises(ValueError, match="weight part must be an integer"):
        enumerate_ssyt(Partition((2, 1)), (2.7, 1))


def test_kostka_foulkes_table_rejects_non_integer_weight():
    with pytest.raises(ValueError, match="weight part must be an integer"):
        kostka_foulkes_table((2.2, 1))


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
