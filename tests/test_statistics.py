import pytest
from hypothesis import given, strategies as st

from kcharge import cli, ktableaux, statistics, sweeps
from kcharge.cores import Cell, Partition, k_interior, n_stat, partitions
from kcharge.ktableaux import (
    KTableau,
    enumerate_k_tableaux,
    highest_occurrence,
    lowest_occurrence,
    restrict_sequence,
    standard_sequences,
)
from kcharge.statistics import (
    ResidueOrder,
    SequenceReport,
    TPolynomial,
    charge_table,
    diag,
    diag_to_highest_addable,
    diag_to_lowest_addable,
    high_order,
    highest_addable,
    index_I,
    index_J,
    index_L,
    index_M,
    k_charge,
    k_cocharge,
    kostka_foulkes_table,
    low_order,
    lowest_addable,
    sequence_reports,
)

cells = st.builds(Cell, st.integers(1, 40), st.integers(1, 40))


def test_diag_known_values():
    assert diag(Cell(2, 1), Cell(1, 3), 4) == 0
    assert diag(Cell(4, 1), Cell(1, 5), 4) == 1
    assert diag(Cell(3, 3), Cell(3, 3), 4) == 0


@given(cells, cells, st.integers(1, 8))
def test_diag_matches_brute_count(c1, c2, k):
    n = k + 1
    lower = min(c1, c2, key=lambda c: (c.row, c.diagonal))
    lo, hi = sorted((c1.diagonal, c2.diagonal))
    brute = sum(1 for d in range(lo + 1, hi) if d % n == lower.diagonal % n)
    assert diag(c1, c2, k) == brute


@given(cells, cells, st.integers(1, 8))
def test_diag_is_symmetric_and_non_negative(c1, c2, k):
    assert diag(c1, c2, k) == diag(c2, c1, k) >= 0


@given(cells, cells, st.integers(1, 8))
def test_diag_row_tie_break_is_immaterial(c1, c2, k):
    # counting either endpoint's residue class over the open interval gives
    # the same answer, so the lower-cell rule never changes the value
    n = k + 1
    lo, hi = sorted((c1.diagonal, c2.diagonal))
    gap = hi - lo
    assert diag(c1, c2, k) == (max(gap - 1, 0)) // n


def test_addable_cells_of_scattered_sets(tab_semistandard_13):
    seqs = standard_sequences(tab_semistandard_13)
    from kcharge.ktableaux import restrict_sequence

    upto_5_second = restrict_sequence(seqs[1], 5)
    assert lowest_addable(upto_5_second) == Cell(1, 8)
    assert low_order(upto_5_second, 4).pivot == 2
    upto_5_first = restrict_sequence(seqs[0], 5)
    assert low_order(upto_5_first, 4).pivot == 3


def test_addable_cells_of_partition_shapes():
    shape = Partition([4, 1, 1])
    assert lowest_addable(shape.cells()) == Cell(1, 5)
    assert highest_addable(shape.cells()) == Cell(4, 1)
    assert high_order(shape.cells(), 4).pivot == 2
    with pytest.raises(ValueError):
        lowest_addable([Cell(2, 1)])
    with pytest.raises(ValueError):
        highest_addable([])


def test_residue_orders_from_restrictions(tab_standard_9):
    low2 = low_order(tab_standard_9.restrict_leq(2).cells(), 4)
    assert str(low2) == "2 > 3 > 4 > 0 > 1"
    low9 = low_order(tab_standard_9.restrict_leq(9).cells(), 4)
    assert str(low9) == "1 > 2 > 3 > 4 > 0"
    high2 = high_order(tab_standard_9.restrict_leq(2).cells(), 4)
    assert str(high2) == "4 > 3 > 2 > 1 > 0"
    high9 = high_order(tab_standard_9.restrict_leq(9).cells(), 4)
    assert str(high9) == "1 > 0 > 4 > 3 > 2"


@given(st.integers(2, 9), st.integers(0, 8), st.sampled_from(["low", "high"]))
def test_residue_order_is_total(modulus, pivot, direction):
    order = ResidueOrder(modulus, pivot % modulus, direction)
    ranked = order.descending()
    assert sorted(ranked) == list(range(modulus))
    assert ranked[0] == pivot % modulus
    for a in range(modulus):
        for b in range(modulus):
            assert order.greater(a, b) == (a != b and not order.greater(b, a))


def test_low_order_walks_upward():
    order = ResidueOrder(5, 2, "low")
    assert order.descending() == (2, 3, 4, 0, 1)
    order = ResidueOrder(5, 2, "high")
    assert order.descending() == (2, 1, 0, 4, 3)


def test_index_vectors_standard(tab_standard_9):
    seq = standard_sequences(tab_standard_9)[0]
    assert index_L(seq, 4) == [0, 0, 0, 1, 1, 2, 2, 4, 3]
    assert index_M(seq, 4) == [0, 0, 0, 1, 1, 2, 2, 3, 3]
    assert index_I(seq, 4) == [0, 1, 2, 2, 2, 3, 3, 3, 5]
    assert index_J(seq, 4) == [0, 1, 2, 2, 2, 3, 3, 3, 4]
    assert diag_to_lowest_addable(seq, 4) == [0, 0, 0, 0, 0, 0, 0, 1, 0]
    assert diag_to_highest_addable(seq, 4) == [0, 0, 0, 0, 0, 0, 0, 0, 1]


def test_index_vectors_semistandard(tab_semistandard_13):
    seqs = standard_sequences(tab_semistandard_13)
    assert [sum(index_I(s, 4)) for s in seqs] == [5, 7]
    assert index_J(seqs[0], 4) == [0, 0, 0, 1, 1, 1, 1]
    assert diag_to_highest_addable(seqs[0], 4) == [0, 0, 0, 1, 0, 0, 0]
    assert [sum(index_J(s, 4)) + sum(diag_to_highest_addable(s, 4)) for s in seqs] == [5, 7]
    assert [sum(index_L(s, 4)) for s in seqs] == [12, 4]


def test_single_letter_vectors():
    tab = enumerate_k_tableaux(4, (1,))[0]
    seq = standard_sequences(tab)[0]
    for fn in (index_L, index_M, index_I, index_J):
        assert fn(seq, 4) == [0]


def test_cocharge_both_formulations(tab_standard_9, tab_semistandard_13):
    assert k_cocharge(tab_standard_9, "lp") == 13
    assert k_cocharge(tab_standard_9, "morse") == 13
    assert k_cocharge(tab_semistandard_13, "lp") == 16
    assert k_cocharge(tab_semistandard_13, "morse") == 16


def test_charge_both_formulations(tab_standard_9, tab_semistandard_13):
    assert k_charge(tab_standard_9, "lp") == 21
    assert k_charge(tab_standard_9, "morse") == 21
    assert k_charge(tab_semistandard_13, "lp") == 12
    assert k_charge(tab_semistandard_13, "morse") == 12
    with pytest.raises(ValueError):
        k_charge(tab_standard_9, "other")


def test_weight_one_tableau_has_zero_statistics():
    tab = enumerate_k_tableaux(3, (1,))[0]
    for formulation in ("lp", "morse"):
        assert k_charge(tab, formulation) == 0
        assert k_cocharge(tab, formulation) == 0


def test_duality_on_examples(tab_standard_9, tab_semistandard_13):
    for tab, mu in ((tab_standard_9, (1,) * 9), (tab_semistandard_13, (2, 2, 2, 2, 2, 2, 1))):
        interior = len(k_interior(tab.shape, tab.k))
        assert k_charge(tab) + k_cocharge(tab) == n_stat(Partition(mu)) - interior


@pytest.mark.parametrize("k,max_size", [(1, 5), (2, 5), (3, 5)])
def test_formulations_agree_and_duality_holds(k, max_size):
    for size in range(1, max_size + 1):
        for mu in partitions(size, max_part=k):
            for tab in enumerate_k_tableaux(k, mu):
                charge = k_charge(tab, "morse")
                cocharge = k_cocharge(tab, "morse")
                assert charge == k_charge(tab, "lp")
                assert cocharge == k_cocharge(tab, "lp")
                assert charge >= 0 and cocharge >= 0
                assert charge + cocharge == n_stat(mu) - len(k_interior(tab.shape, k))


def test_standard_formulation_equivalence_to_seven_letters():
    for k in (1, 2, 3, 4):
        for m in range(1, 8):
            for tab in enumerate_k_tableaux(k, (1,) * m):
                seq = standard_sequences(tab)[0]
                assert sum(index_L(seq, k)) == sum(index_M(seq, k)) + sum(
                    diag_to_lowest_addable(seq, k)
                )
                assert sum(index_I(seq, k)) == sum(index_J(seq, k)) + sum(
                    diag_to_highest_addable(seq, k)
                )


def test_standard_duality_constant():
    for mu_len in range(1, 7):
        mu = Partition([1] * mu_len)
        for tab in enumerate_k_tableaux(3, mu):
            seq = standard_sequences(tab)[0]
            low_side = sum(index_M(seq, 3)) + sum(diag_to_lowest_addable(seq, 3))
            high_side = sum(index_J(seq, 3)) + sum(diag_to_highest_addable(seq, 3))
            interior = len(k_interior(tab.shape, 3))
            assert high_side == mu_len * (mu_len - 1) // 2 - interior - low_side


def test_sequence_reports(tab_semistandard_13):
    reports = sequence_reports(tab_semistandard_13)
    assert len(reports) == 2
    assert reports[0].charge_lp() == 5
    assert reports[1].charge_lp() == 7
    assert reports[0].charge_morse() == 5
    assert reports[1].charge_morse() == 7
    assert reports[0].cocharge_lp() == reports[0].cocharge_morse() == 12
    assert reports[1].cocharge_lp() == reports[1].cocharge_morse() == 4
    assert str(reports[0].high_orders[1]) == "3 > 2 > 1 > 0 > 4"
    assert reports[0].low_orders[0] is None


def test_charge_table_weight_321():
    table = charge_table(3, (3, 2, 1))
    assert {str(s): str(p) for s, p in table.items()} == {
        "(5,2,1)": "1",
        "(6,3)": "t",
    }


def test_charge_table_single_box():
    table = charge_table(2, (1,))
    assert {str(s): str(p) for s, p in table.items()} == {"(1)": "1"}


def test_charge_table_formulations_match():
    assert charge_table(3, (2, 2, 1)) == charge_table(3, (2, 2, 1), formulation="lp")


def test_large_k_table_equals_classical():
    assert charge_table(9, (2, 1)) == kostka_foulkes_table((2, 1))


def test_tpolynomial_str():
    assert str(TPolynomial()) == "0"
    assert str(TPolynomial({0: 1})) == "1"
    assert str(TPolynomial({1: 1})) == "t"
    assert str(TPolynomial({1: 1, 2: 1})) == "t + t^2"
    assert str(TPolynomial({0: 3, 2: 2})) == "3 + 2*t^2"


def test_tpolynomial_arithmetic():
    p = TPolynomial.monomial(2) + TPolynomial.monomial(2) + TPolynomial.monomial(0)
    assert p == TPolynomial({0: 1, 2: 2})
    assert p.coefficient(2) == 2
    assert p.coefficient(5) == 0
    assert TPolynomial({3: 1}) + TPolynomial({3: -1}) == TPolynomial()
    assert not TPolynomial({2: 0})
    with pytest.raises(ValueError):
        TPolynomial({-1: 2})


def test_tpolynomial_json_round_trip():
    p = TPolynomial({0: 1, 4: 7})
    assert p.to_json_dict() == {"0": 1, "4": 7}
    assert TPolynomial.from_json_dict(p.to_json_dict()) == p


def _literal_report(seq, k):
    """The per-sequence record by the literal definitions: each letter's
    restriction is rebuilt and its addable cells and residue orders are
    read off the rebuilt cell set."""
    m = len(seq)
    low_at = [lowest_occurrence(seq, i) for i in range(1, m + 1)]
    high_at = [highest_occurrence(seq, i) for i in range(1, m + 1)]
    restricted = [restrict_sequence(seq, i) for i in range(1, m + 1)]
    L, I, M, J = [0], [0], [0], [0]
    d_prev_low, d_prev_high = [0], [0]
    low_orders, high_orders = [None], [None]
    for i in range(1, m):
        cur, prev = low_at[i], low_at[i - 1]
        d = diag(cur, prev, k)
        d_prev_low.append(d)
        L.append(L[-1] + 1 + d if prev.row < cur.row else L[-1] - d)
        cur, prev = high_at[i], high_at[i - 1]
        d = diag(cur, prev, k)
        d_prev_high.append(d)
        I.append(I[-1] + 1 + d if cur.col > prev.col else I[-1] - d)
        res, prev_res = seq.entries[i].residue, seq.entries[i - 1].residue
        low_orders.append(low_order(restricted[i], k))
        M.append(M[-1] + low_orders[-1].greater(res, prev_res))
        high_orders.append(high_order(restricted[i], k))
        J.append(J[-1] + high_orders[-1].greater(res, prev_res))
    return SequenceReport(
        letters=tuple(e.letter for e in seq.entries),
        residues=tuple(e.residue for e in seq.entries),
        L=tuple(L),
        M=tuple(M),
        I=tuple(I),
        J=tuple(J),
        diag_prev_low=tuple(d_prev_low),
        diag_prev_high=tuple(d_prev_high),
        diag_add_low=tuple(
            diag(c, lowest_addable(r), k) for c, r in zip(low_at, restricted)
        ),
        diag_add_high=tuple(
            diag(c, highest_addable(r), k) for c, r in zip(high_at, restricted)
        ),
        low_orders=tuple(low_orders),
        high_orders=tuple(high_orders),
    )


def test_sequence_reports_equal_literal_definitions():
    cases = [(4, (2, 2, 2, 1, 1))] + [
        (k, mu) for k in range(1, 5) for size in range(1, 8) for mu in partitions(size, max_part=k)
    ]
    checked = 0
    for k, mu in cases:
        for tab in enumerate_k_tableaux(k, mu):
            literal = [_literal_report(seq, k) for seq in standard_sequences(tab)]
            assert sequence_reports(tab) == literal, tab
            checked += 1
    assert checked > 600


@pytest.mark.parametrize("formulation", ["lp", "morse"])
def test_letter_one_off_the_bottom_row_raises(formulation):
    tab = KTableau(2, [[2], [1]])
    for statistic in (k_charge, k_cocharge):
        with pytest.raises(ValueError, match="no bottom-row cell"):
            statistic(tab, formulation)


def test_one_sequence_split_per_tableau(monkeypatch, tab_semistandard_13, tab_standard_9):
    calls = []
    original = ktableaux.standard_sequences

    def counting(tab):
        calls.append(tab)
        return original(tab)

    for module in (ktableaux, statistics, sweeps):
        monkeypatch.setattr(module, "standard_sequences", counting)
    for tab in (tab_semistandard_13, tab_standard_9):
        calls.clear()
        cli._stat_payload(tab)
        assert calls == [tab]
        calls.clear()
        checked, failures = sweeps.check_tableau_identities(tab)
        assert checked and not failures
        assert calls == [tab]
