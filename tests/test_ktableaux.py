import gc
import json
import re
import tracemalloc
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from kcharge.cores import (
    Cell,
    Partition,
    _hook_facts,
    add_residue_class,
    partition_sort_key,
    partitions,
    semistandard_fillings,
)
from kcharge.ktableaux import (
    KTableau,
    SequenceEntry,
    ValidationReport,
    _KEPT_LAYOUT_CELLS,
    _cell_row,
    _kept_reading_layout,
    _kept_text_layout,
    _weak_strips,
    enumerate_k_tableaux,
    parse_json,
    parse_json_dict,
    parse_text,
    standard_sequences,
    to_json_dict,
    to_text,
    validate,
)
from kcharge.sweeps import weights_up_to
from reference import (
    _enumerate_oracle,
    cells_of,
    entry,
    enumerate_cores,
    highest_occurrence,
    is_n_core,
    k_bounded_hooks,
    literal_index,
    lowest_occurrence,
    residue,
    restrict_leq,
    restrict_sequence,
    to_text as literal_text,
)


def small_pool():
    """Every k-tableau with k <= 3 and weight size <= 4; reused by properties."""
    pool = []
    for k in (1, 2, 3):
        for size in range(1, 5):
            for mu in partitions(size, max_part=k):
                pool.extend(enumerate_k_tableaux(k, mu))
    return pool


POOL = small_pool()

# The tracemalloc peak, in bytes, of validating a 100,000-cell row through
# the per-row index that the reading layout replaced, measured as
# `test_long_row_index_peak_stays_at_the_per_row_index` measures it: the
# largest over Python 3.10-3.13, with or without compiled bytecode (3.10;
# 3.11-3.13 read 85,729,060-85,729,340).
PER_ROW_INDEX_PEAK = 85_731_367


def test_validate_weight_222_example(tab_weight_222):
    assert validate(tab_weight_222).ok
    assert tab_weight_222.weight == (2, 2, 2)
    assert validate(tab_weight_222, (2, 2, 2)).ok


def test_validate_catches_wrong_residue_span():
    # letter 3 spans one residue here, not the two the weight demands
    tab = KTableau(3, [[1, 1, 2, 2, 3], [2, 3]])
    report = validate(tab, (2, 2, 2))
    assert not report.ok
    assert "letter 3 spans 1 residues, expected 2" in report.problem


def test_validate_rejects_non_core_shape():
    # (3,1) has a hook-4 cell at (1,1)
    report = validate(KTableau(3, [[1, 1, 2], [2]]))
    assert not report.ok
    assert "not a 4-core" in report.problem
    assert report.cell == Cell(1, 1)
    # (2,2) has hooks {3,2,2,1}, so it is a 4-core and this filling is fine
    assert validate(KTableau(3, [[1, 1], [2, 2]])).ok


def test_validate_rejects_monotonicity_violations():
    report = validate(KTableau(3, [[2, 1]]))
    assert not report.ok
    assert "row decreases" in report.problem
    report = validate(KTableau(3, [[1, 1], [1]]))
    assert not report.ok
    assert "column fails to increase" in report.problem
    assert report.cell == Cell(2, 1)


def test_validate_rejects_missing_letter():
    report = validate(KTableau(3, [[1, 1, 3]]))
    assert not report.ok
    assert "letter 2 is missing" in report.problem


def test_validate_stops_at_a_missing_letter_below_a_huge_one():
    # The indexes hold only the letters present, so a letter of 10^9 costs
    # no more than a letter of 3.
    tab = KTableau(3, [[1, 10**9]])
    report = validate(tab)
    assert not report.ok
    assert report.problem == "letter 2 is missing"
    assert len(tab._residue_index()) == 2


def test_validate_counts_residue_classes():
    # semistandard on a 4-core, but the letter residue classes sum to 7
    # while (5,2,1) has only 6 3-bounded hooks
    report = validate(KTableau(3, [[1, 1, 2, 3, 3], [2, 3], [3]]))
    assert not report.ok
    assert "hooks" in report.problem


def test_restrict_leq(tab_standard_9):
    sub = restrict_leq(tab_standard_9, 5)
    assert sub.shape == Partition([4, 1, 1])
    assert sub.rows == ((1, 2, 3, 5), (4,), (5,))
    assert restrict_leq(tab_standard_9, 9) == tab_standard_9
    assert restrict_leq(tab_standard_9, 1).rows == ((1,),)
    with pytest.raises(ValueError):
        restrict_leq(tab_standard_9, 10)
    with pytest.raises(ValueError):
        restrict_leq(tab_standard_9, 0)


def test_standard_sequences_semistandard(tab_semistandard_13):
    seqs = standard_sequences(tab_semistandard_13)
    assert len(seqs) == 2
    assert seqs[0].residues() == (1, 4, 3, 0, 2, 1, 0)
    assert seqs[1].residues() == (0, 2, 0, 4, 1, 3)
    # letter 5 of the first sequence sits on residue 2, not 1
    assert entry(seqs[0], 5).residue == 2
    assert entry(seqs[0], 5).cells == frozenset({Cell(1, 8), Cell(2, 4), Cell(4, 1)})


def test_standard_sequences_standard_tableau(tab_standard_9):
    seqs = standard_sequences(tab_standard_9)
    assert len(seqs) == 1
    assert [e.letter for e in seqs[0].entries] == list(range(1, 10))


def test_standard_sequences_require_partition_weight():
    tabs = enumerate_k_tableaux(2, (1, 2))
    assert tabs
    with pytest.raises(ValueError):
        standard_sequences(tabs[0])


def test_restrict_sequence(tab_semistandard_13):
    seqs = standard_sequences(tab_semistandard_13)
    expected = frozenset(
        {Cell(1, 1), Cell(1, 3), Cell(1, 5), Cell(1, 7), Cell(2, 2), Cell(2, 3), Cell(3, 2)}
    )
    assert restrict_sequence(seqs[1], 5) == expected
    assert restrict_sequence(seqs[0], 1) == frozenset({Cell(1, 2)})
    with pytest.raises(ValueError):
        restrict_sequence(seqs[1], 7)


def test_restrict_sequence_standard_matches_restrict_leq(tab_standard_9):
    seq = standard_sequences(tab_standard_9)[0]
    for i in range(1, 10):
        assert restrict_sequence(seq, i) == frozenset(restrict_leq(tab_standard_9, i).shape.cells())


def test_occurrences(tab_standard_9, tab_semistandard_13):
    seq = standard_sequences(tab_standard_9)[0]
    assert lowest_occurrence(seq, 5) == Cell(1, 4)
    assert highest_occurrence(seq, 5) == Cell(3, 1)
    assert lowest_occurrence(seq, 1) == highest_occurrence(seq, 1) == Cell(1, 1)
    first = standard_sequences(tab_semistandard_13)[0]
    assert highest_occurrence(first, 7) == Cell(6, 1)
    with pytest.raises(ValueError):
        lowest_occurrence(seq, 10)


def test_enumerate_weight_321_matches_known_pair():
    tabs = enumerate_k_tableaux(3, (3, 2, 1))
    assert [t.rows for t in tabs] == [
        ((1, 1, 1, 2, 2), (2, 2), (3,)),
        ((1, 1, 1, 2, 2, 3), (2, 2, 3)),
    ]


def test_enumerate_standard_k2_weight_1111():
    tabs = enumerate_k_tableaux(2, (1, 1, 1, 1))
    assert [t.rows for t in tabs] == [
        ((1, 2, 3), (3,), (4,)),
        ((1, 3, 4), (2,), (3,)),
        ((1, 2, 3, 4), (3, 4)),
        ((1, 3), (2, 4), (3,), (4,)),
    ]


def test_enumerate_single_letter():
    tabs = enumerate_k_tableaux(5, (1,))
    assert len(tabs) == 1
    assert tabs[0].rows == ((1,),)


def test_enumerate_rejects_bad_weight():
    with pytest.raises(ValueError):
        enumerate_k_tableaux(2, (3,))
    with pytest.raises(ValueError):
        enumerate_k_tableaux(2, (0,))
    with pytest.raises(TypeError):
        enumerate_k_tableaux(2, (1,), strategy="oracle")


@pytest.mark.parametrize("weight", [(2.5, 1), ("2", "1"), (True,)])
def test_enumerate_rejects_non_integer_weight_parts(weight):
    with pytest.raises(ValueError, match="must be an integer"):
        enumerate_k_tableaux(3, weight)


@pytest.mark.parametrize(
    "k,weight,shape",
    [
        (2.5, (1,), Partition((5,))),
        (2.0, (1, 1), Partition((9,))),
        (True, (1,), None),
        ("3", (1,), None),
        (0, (), None),
    ],
)
def test_enumerate_checks_k_before_growing(k, weight, shape):
    with pytest.raises(ValueError, match="k must be"):
        enumerate_k_tableaux(k, weight, shape=shape)


@pytest.mark.parametrize(
    "shape,error",
    [
        ((2, 2), None),
        ([2, 2], None),
        ((2.0, 2.0), "partition part must be an integer, got 2.0"),
        ((True, True), "partition part must be an integer, got True"),
        ("31", "partition part must be an integer, got '3'"),
        ((1, 3), "parts must be weakly decreasing"),
        ((2, 0), "parts must be positive"),
    ],
)
def test_enumerate_checks_shape_as_a_partition(shape, error):
    # A list is taken as a tuple; anything Partition refuses raises its
    # ValueError instead of matching no shape.
    if error is None:
        assert enumerate_k_tableaux(3, (2, 1, 1), shape=shape) == [KTableau(3, [[1, 1], [2, 3]])]
    else:
        with pytest.raises(ValueError, match=re.escape(error)):
            enumerate_k_tableaux(3, (2, 1, 1), shape=shape)


def test_enumerate_accepts_partition_weight():
    assert enumerate_k_tableaux(3, Partition([2, 1])) == enumerate_k_tableaux(3, (2, 1))


def test_enumerate_with_shape_filter():
    tabs = enumerate_k_tableaux(3, (3, 2, 1), shape=Partition([6, 3]))
    assert len(tabs) == 1
    assert tabs[0].shape == Partition([6, 3])


def assert_same_tableaux(fast, oracle):
    """The same tableaux, none twice; the order is checked by
    `test_enumeration_is_canonically_ordered`."""
    assert len(set(fast)) == len(fast) == len(oracle)
    assert set(fast) == set(oracle)


def test_enumerate_accepts_composition_weight():
    fast = enumerate_k_tableaux(2, (1, 2))
    assert_same_tableaux(fast, _enumerate_oracle(2, (1, 2)))
    assert all(t.weight == (1, 2) for t in fast)


@pytest.mark.parametrize(
    "k,weight",
    [
        (2, (1, 1, 1, 1)),
        (3, (2, 2, 1)),
        (3, (3, 2)),
        (4, (2, 2)),
        (3, (1, 1, 1, 1, 1)),
        # Larger weights at k=5 and k=7, about 0.5 s in all.
        (5, (2, 2, 1, 1, 1)),
        (5, (3, 2, 2, 1)),
        (5, (2, 2, 2, 1, 1)),
        (5, (4, 3, 1)),
        (7, (5, 4, 3)),
        # Shapes of five rows at k=6, whose top row is grown above four.
        (6, (2, 1, 1, 1, 1)),
    ],
)
def test_fast_equals_oracle(k, weight):
    assert_same_tableaux(enumerate_k_tableaux(k, weight), _enumerate_oracle(k, weight))


def test_standard_shapes_are_the_cores_with_that_many_bounded_hooks():
    # README lists the (k+1)-cores with m k-bounded hooks as the shapes of
    # the standard k-tableaux of m letters: each such core has one.
    for k in range(1, 6):
        for m in range(8):
            shapes = {t.shape for t in enumerate_k_tableaux(k, (1,) * m)}
            cores = {s for s in enumerate_cores(k + 1, m) if k_bounded_hooks(s, k) == m}
            assert shapes == cores, (k, m)


def test_enumerated_tableaux_equal_the_checked_construction():
    # The enumerator builds its tableaux without the constructor's checks.
    for k, mu in weights_up_to(4, 6):
        for tab in enumerate_k_tableaux(k, mu):
            checked = KTableau(tab.k, tab.rows)
            assert (tab.k, tab.rows, tab.shape) == (checked.k, checked.rows, checked.shape)
            assert type(tab.shape) is Partition and type(tab.rows) is tuple
            assert all(type(row) is tuple for row in tab.rows)
            assert tab._by_letter is None and tab._by_residue is None


def test_enumeration_is_canonically_ordered():
    # The fast-vs-oracle checks compare sets, so they cannot see an
    # ordering fault; here the order is compared with the literal key on
    # every (k, weight) of the 5/8 sweep.
    tableaux = 0
    for k, mu in weights_up_to(5, 8):
        tabs = enumerate_k_tableaux(k, mu)
        # The reading word: rows bottom-first, each left to right.
        keys = [
            (partition_sort_key(t.shape), tuple(x for row in t.rows for x in row))
            for t in tabs
        ]
        assert keys == sorted(keys), (k, mu)
        assert len(set(keys)) == len(keys), (k, mu)
        tableaux += len(tabs)
    assert tableaux == 2873


def in_distinct_columns(shape, grown):
    added = set(grown.cells()) - set(shape.cells())
    return len({c.col for c in added}) == len(added)


def literal_weak_strips(shape, n, residues):
    """Every order of the residues, one residue class at a time; keeps the
    distinct results whose added cells lie in distinct columns."""
    found = set()
    for order in permutations(residues):
        grown = shape
        for res in order:
            grown = add_residue_class(grown, n, res)
            if grown is None:
                break
        else:
            if in_distinct_columns(shape, grown):
                found.add(grown)
    return found


def test_weak_strips_equal_literal_search():
    pairs = 0
    for k in range(1, 6):
        n = k + 1
        for core in enumerate_cores(n, 8):
            for size in range(1, k + 1):
                expected = set()
                for residues in combinations(range(n), size):
                    expected |= literal_weak_strips(core, n, residues)
                    pairs += 1
                strips = _weak_strips(core, n, size)
                assert len(strips) == len(set(strips))
                assert set(strips) == expected, (k, tuple(core), size)
    assert pairs == 6052


def lattice_weak_strips(shape, n):
    """Size -> every strip of that many residues: each residue class applied
    in every order, as a walk over the subset lattice in which orders with a
    common prefix share its shapes; keeps the shapes whose added cells lie
    in distinct columns."""
    level = {frozenset(): {shape}}
    strips = {}
    for size in range(1, n):
        grown = {}
        for used, shapes in level.items():
            for reached in shapes:
                for res in set(range(n)) - used:
                    child = add_residue_class(reached, n, res)
                    if child is not None:
                        grown.setdefault(used | {res}, set()).add(child)
        level = grown
        strips[size] = {
            s for shapes in grown.values() for s in shapes if in_distinct_columns(shape, s)
        }
    return strips


def test_weak_strips_equal_lattice_search_large_k():
    found = 0
    for k in range(6, 9):
        n = k + 1
        for core in enumerate_cores(n, 6):
            expected = lattice_weak_strips(core, n)
            for size in range(1, k + 1):
                strips = _weak_strips(core, n, size)
                assert len(strips) == len(set(strips))
                assert set(strips) == expected[size], (k, tuple(core), size)
                found += len(strips)
    assert found == 1593


def test_weak_strips_are_horizontal_strips_large_k():
    # _weak_strips keeps every strip it builds; the Pieri-rule run bounds
    # alone must make each one horizontal.
    cores = strips = 0
    for k in range(6, 10):
        n = k + 1
        for core in enumerate_cores(n, 10):
            cores += 1
            for size in range(1, k + 1):
                for grown in _weak_strips(core, n, size):
                    strips += 1
                    assert in_distinct_columns(core, grown), (k, tuple(core), tuple(grown))
                    assert len(grown) <= len(core) + 1, (k, tuple(core), tuple(grown))
    assert (cores, strips) == (531, 12812)


def test_weak_strips_are_cached_per_core():
    core = Partition((3, 1))  # a 3-core
    strips = _weak_strips(core, 3, 2)
    assert isinstance(strips, tuple) and strips
    assert _weak_strips(core, 3, 2) is strips
    assert _weak_strips.cache_info().maxsize == 4096
    # The chains of a sweep pass through few cores: 139 distinct keys among
    # the 1,146 calls of a cold 5/7 enumeration.
    _weak_strips.cache_clear()
    for k, mu in weights_up_to(5, 7):
        enumerate_k_tableaux(k, mu)
    info = _weak_strips.cache_info()
    assert (info.misses, info.hits) == (139, 1007)


def test_enumeration_leaves_no_cyclic_garbage():
    gc.collect()
    assert enumerate_k_tableaux(4, (4,) + (1,) * 10)
    assert gc.collect() == 0


def test_enumerated_tableaux_validate_and_restrict_to_cores():
    for tab in POOL:
        assert validate(tab, tab.weight).ok
        for i in range(1, tab.n_letters + 1):
            assert is_n_core(restrict_leq(tab, i).shape, tab.k + 1)


def test_sequences_partition_cells():
    for tab in POOL:
        seqs = standard_sequences(tab)
        cells = [c for s in seqs for e in s.entries for c in e.cells]
        assert len(cells) == len(set(cells)) == tab.shape.size()
        for s in seqs:
            for e in s.entries:
                assert len({residue(c, tab.k + 1) for c in e.cells}) == 1
                assert len({c.row for c in e.cells}) == len(e.cells)
                assert len({c.col for c in e.cells}) == len(e.cells)


def test_letter_one_fills_bottom_row_prefix():
    for tab in POOL:
        alpha1 = tab.weight[0]
        assert set(cells_of(tab, 1)) == {Cell(1, j) for j in range(1, alpha1 + 1)}


def test_large_k_tableaux_are_classical():
    for mu in partitions(4):
        for tab in enumerate_k_tableaux(5, mu):
            lam = tab.shape
            assert 5 > lam[0] + len(lam) - 2
            counts = tuple(len(cells_of(tab, i)) for i in range(1, tab.n_letters + 1))
            assert counts == tuple(mu)


def test_text_round_trip(tab_standard_9, tab_weight_222):
    for tab in (tab_standard_9, tab_weight_222):
        text = to_text(tab)
        assert parse_text(text) == tab
        assert to_text(parse_text(text)) == text


def test_text_format_shape(tab_weight_222):
    assert to_text(tab_weight_222) == "k=3\n3_2\n2_3 3_0\n1_0 1_1 2_2 2_3 3_0\n"


def test_text_is_the_literal_writer_and_parse_text_inverts_it(random_tableaux):
    # to_text fills a cached layout per (k, shape); the literal writer
    # formats each cell with residue(Cell(i, j), k + 1).  The layout costs
    # O(cells) at any k, and a shape over the cell bound is not kept.
    over = KTableau(4, [[1] * _KEPT_LAYOUT_CELLS, [2, 2]])
    tableaux = [tab for k, mu in weights_up_to(6, 9) for tab in enumerate_k_tableaux(k, mu)]
    assert len(tableaux) == 12981
    tableaux += [tab for _, tab in random_tableaux]
    tableaux += [KTableau(1, []), KTableau(400000, [[1, 2]]), over]
    for tab in tableaux:
        text = to_text(tab)
        assert text == literal_text(tab)
        assert parse_text(text) == tab
    kept = _kept_text_layout.cache_info()
    to_text(over)
    assert _kept_text_layout.cache_info() == kept


@pytest.mark.parametrize(
    "text,message",
    [
        ("k=3\n1_1\n", "entry at row 1, col 1 claims residue 1, expected 0"),
        (
            "k=3\n3_1\n2_3 3_0\n1_0 1_1 2_2 2_3 3_0\n",
            "entry at row 3, col 1 claims residue 1, expected 2",
        ),
    ],
)
def test_parse_text_names_a_wrong_residue(text, message):
    with pytest.raises(ValueError) as exc:
        parse_text(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        # A bad header is named before any entry.
        ("k=x\n1_x\n", "bad header 'k=x'"),
        # The first malformed entry as written: the top line first, then
        # left to right.
        ("k=3\n1_x 2_y\n1_0 1_z\n", "bad entry '1_x'"),
        ("k=3\n1_0 2_y 1_x\n", "bad entry '2_y'"),
        ("k=3\n0_3\n1_x\n", "bad entry '1_x'"),
        # A malformed entry wins over a wrong residue claim read before it.
        ("k=3\n2_1\n1_0 1_1 1_z\n", "bad entry '1_z'"),
        # k, letter and row-length errors win over a wrong residue claim.
        ("k=0\n1_5\n", "k must be positive, got 0"),
        ("k=3\n2_0\n1_0 0_1\n", "letters must be positive, got 0"),
        (
            "k=3\n1_1 1_1\n1_1\n",
            "row lengths (bottom row first) must be weakly decreasing, got (1, 2)",
        ),
        # Of two wrong claims, the first bottom row first, then left to right.
        ("k=3\n2_1\n1_1 1_1\n", "entry at row 1, col 1 claims residue 1, expected 0"),
        ("k=3\n2_1 2_1\n1_0 1_0\n", "entry at row 1, col 2 claims residue 0, expected 1"),
        ("k=3\n1_0 1_0 1_0\n", "entry at row 1, col 2 claims residue 0, expected 1"),
        (
            "k=3\n3_0\n2_3 3_1\n1_0 1_1 2_2 2_3 3_0\n",
            "entry at row 2, col 2 claims residue 1, expected 0",
        ),
    ],
)
def test_parse_text_names_the_first_error_in_written_order(text, message):
    with pytest.raises(ValueError) as exc:
        parse_text(text)
    assert str(exc.value) == message


def test_parse_text_without_residues():
    assert parse_text("k=3\n3\n2 3\n1 1 2 2 3\n").rows == ((1, 1, 2, 2, 3), (2, 3), (3,))


def test_parse_text_errors():
    with pytest.raises(ValueError):
        parse_text("3\n1 1\n")  # missing header
    with pytest.raises(ValueError):
        parse_text("k=3\n1_x\n")
    with pytest.raises(ValueError):
        parse_text("k=3\n1_1\n")  # cell (1,1) has residue 0
    with pytest.raises(ValueError):
        parse_text("k=3\n1 1\n1\n")  # rows not a partition bottom-first


def test_json_round_trip(tab_semistandard_13):
    blob = json.dumps(to_json_dict(tab_semistandard_13))
    assert parse_json(blob) == tab_semistandard_13
    assert json.dumps(to_json_dict(parse_json(blob))) == blob


def test_parse_json_errors():
    with pytest.raises(ValueError):
        parse_json("{not json")
    with pytest.raises(ValueError):
        parse_json('{"k": 2, "shape": [2], "rows": [[1], [2]]}')
    with pytest.raises(ValueError):
        parse_json('{"k": 2}')


@given(st.sampled_from(POOL))
def test_serialization_round_trips_everywhere(tab):
    assert parse_text(to_text(tab)) == tab
    assert parse_json(json.dumps(to_json_dict(tab))) == tab


@pytest.mark.parametrize(
    "blob",
    [
        '{"k": 3.7, "rows": [[1.9, 2]]}',
        '{"k": true, "rows": [[1]]}',
        '{"k": "3", "rows": [[1]]}',
        '{"k": 3, "rows": [[1, true]]}',
        '{"k": 3, "rows": [[1, 2.0]]}',
        '{"k": 3, "rows": [["1"]]}',
        '{"k": 3, "rows": "11"}',
        '{"k": 3, "shape": [2.0], "rows": [[1, 1]]}',
        '{"k": 3, "shape": [true], "rows": [[1]]}',
        '{"k": 3, "shape": "1", "rows": [[1]]}',
        '{"k": 3, "shape": null, "rows": [[1]]}',
    ],
)
def test_parse_json_rejects_non_integer_fields(blob):
    with pytest.raises(ValueError, match="integer|list"):
        parse_json(blob)


def test_index_shares_each_rows_cells():
    # Tableaux of one k and shape read one kept reading layout, whose cells
    # and one-cell classes are the shared row pairs of `_cell_row`; the
    # layout holds no letters.
    a = KTableau(3, [[1, 1, 2], [2]])
    b = KTableau(3, [[1, 2, 3], [3]])
    layout = _kept_reading_layout(3, a.shape)
    assert _kept_reading_layout(3, b.shape) is layout
    row1, row2 = _cell_row(1, 3), _cell_row(2, 1)
    pairs = row1 + row2
    assert [res for _, _, res in layout] == [0, 1, 2, 3]
    assert all(c is cell and o is one for (c, o, _), (cell, one) in zip(layout, pairs))
    shared = [cell for cell, _ in pairs]
    for tab in (a, b):
        cells = sorted(c for group in tab._letter_index().values() for c in group)
        assert cells == shared
        assert all(c is want and type(c) is Cell for c, want in zip(cells, shared))
    assert a._residue_index()[1][0] is b._residue_index()[1][0] is row1[0][1]
    assert a._residue_index()[2][3] is b._residue_index()[3][3] is row2[0][1]
    assert row1[0][1] == frozenset({Cell(1, 1)})
    # Another k has its own layout of the same cells; another shape with a
    # row of the same position and length shares that row's cells.
    other = _kept_reading_layout(4, a.shape)
    assert [res for _, _, res in other] == [0, 1, 2, 4]
    assert all(c is cell for (c, _, _), cell in zip(other, shared))
    wider = KTableau(3, [[1, 1, 2], [2, 3]])
    assert wider._letter_index()[1][0] is row1[0][0]
    # A class of two cells is its own frozenset; the one-cell class of its
    # first cell is left as it was.
    two = KTableau(3, [[1, 1, 1, 1, 1]])
    assert two._residue_index()[1][0] == frozenset({Cell(1, 1), Cell(1, 5)})
    assert _cell_row(1, 5)[0][1] == frozenset({Cell(1, 1)})
    assert _kept_reading_layout.cache_info().maxsize == 1024
    assert _cell_row.cache_info().maxsize == 4096
    # A shape of more cells than the kept layouts is read for its tableau
    # alone.  Its short rows are still shared; a row longer than the shared
    # rows is made for its tableau alone too.
    kept, rows = _kept_reading_layout.cache_info().currsize, _cell_row.cache_info().currsize
    long_row = KTableau(100, [range(1, _KEPT_LAYOUT_CELLS + 2)])
    assert long_row._letter_index()[65] == (Cell(1, 65),)
    assert (_kept_reading_layout.cache_info().currsize, _cell_row.cache_info().currsize) == (
        kept,
        rows,
    )
    column = KTableau(100, [[x] for x in range(1, _KEPT_LAYOUT_CELLS + 2)])
    assert column._letter_index()[65][0] is _cell_row(65, 1)[0][0]
    assert _kept_reading_layout.cache_info().currsize == kept


def test_index_equals_the_literal_index(random_tableaux):
    # The layout-fed pass against `literal_index`, which reads each cell's
    # residue from `residue`: every 6/9 tableau, the random ones, the
    # empty tableau and shapes above the kept-layout bound.
    tableaux = [tab for k, mu in weights_up_to(6, 9) for tab in enumerate_k_tableaux(k, mu)]
    assert len(tableaux) == 12981
    tableaux += [tab for _, tab in random_tableaux]
    tableaux += [
        KTableau(1, []),
        KTableau(100, [range(1, _KEPT_LAYOUT_CELLS + 2)]),
        KTableau(3, [[1] * 40 + [2] * 30, [2] * 20 + [3] * 5, [3] * 10]),
        KTableau(5, [[1, 2, 2, 4]] * 17 + [[3]]),
    ]
    assert sum(tableaux[-1].shape) > _KEPT_LAYOUT_CELLS
    for tab in tableaux:
        fresh = KTableau._trusted(tab.k, tab.rows, tab.shape)
        letters, classes, weight = literal_index(fresh)
        # Equal, and with the letters and residues in the same order.
        assert list(fresh._letter_index().items()) == list(letters.items()), tab
        got = fresh._residue_index()
        assert [(x, list(got[x].items())) for x in got] == [
            (x, list(classes[x].items())) for x in classes
        ], tab
        assert fresh._weight == weight, tab


def test_long_row_index_peak_stays_at_the_per_row_index():
    # The tracemalloc peak of validating one 100,000-cell row, after a
    # first call has made the one-time allocations of the code it runs.
    # The layout streams such a shape and keeps nothing of it, so the peak
    # stays at or below the per-row index's.
    assert validate(KTableau(200000, [range(1, 100)]))
    tab = KTableau(200000, [range(1, 100001)])
    gc.collect()
    tracemalloc.start()
    try:
        assert validate(tab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PER_ROW_INDEX_PEAK, peak


def test_ktableau_rejects_non_integer_k_and_letters():
    for k, rows in ((3.0, [[1]]), (True, [[1]]), ("3", [[1]]), (3, [[1.0]]), (3, [[False]])):
        with pytest.raises(ValueError, match="must be an integer"):
            KTableau(k, rows)


def test_weight_is_recorded_by_the_index_pass(tab_semistandard_13):
    tab = KTableau(tab_semistandard_13.k, tab_semistandard_13.rows)
    tab._letter_index()
    classes = tab._residue_index()
    assert tab._weight == tuple(len(classes[x]) for x in range(1, 8))
    assert tab.weight is tab.weight is tab._weight
    # With a letter missing nothing is recorded; `weight` spells out the zeros.
    gap = KTableau(2, [[1, 3]])
    gap._letter_index()
    assert gap._weight is None and gap.weight == (1, 0, 1)
    empty = KTableau(2, [])
    assert empty.weight == () and standard_sequences(empty) == []


def test_letter_index_is_lazy_and_outside_equality(tab_semistandard_13):
    tabs = enumerate_k_tableaux(3, (2, 2, 1))
    assert all(t._by_letter is None and t._by_residue is None for t in tabs)
    copy = KTableau(tab_semistandard_13.k, tab_semistandard_13.rows)
    scanned = {x: cells_of(copy, x) for x in range(1, 8)}
    assert tab_semistandard_13._letter_index() == scanned
    n = copy.k + 1
    classes = tab_semistandard_13._residue_index()
    for x in range(1, 8):
        # Residues in order of first cell, each with the letter's cells of it.
        first_seen = list(dict.fromkeys(residue(c, n) for c in scanned[x]))
        assert list(classes[x]) == first_seen
        assert classes[x] == {
            r: frozenset(c for c in scanned[x] if residue(c, n) == r) for r in first_seen
        }
        assert frozenset(classes[x]) == frozenset(first_seen)
    assert sorted(classes) == list(range(1, 8))
    assert tab_semistandard_13.weight == tuple(len(classes[x]) for x in range(1, 8))
    assert 0 not in classes and 99 not in classes
    # A missing letter has no key and spans no residue.
    gap = KTableau(2, [[1, 3]])
    assert gap._residue_index() == {
        1: {0: frozenset({Cell(1, 1)})},
        3: {1: frozenset({Cell(1, 2)})},
    }
    assert gap.weight == (1, 0, 1) and 2 not in gap._residue_index()
    assert copy._by_letter is None and tab_semistandard_13._by_letter is not None
    assert copy._by_residue is None and tab_semistandard_13._by_residue is not None
    assert copy == tab_semistandard_13 and hash(copy) == hash(tab_semistandard_13)


@pytest.mark.parametrize(
    "text",
    [
        "k=+3\n1_0\n",
        "k= 3\n1_0\n",
        "k=1_0\n1_0\n",
        "k=\u0663\n1_0\n",
        "k=3\n+1_0\n",
        "k=3\n1_+0\n",
        "k=3\n1_0_0\n",
        "k=3\n1_\n",
        "k=3\n\u0661_0\n",
        "k=3\n1_\u0660\n",
        "k=3\n\uff11_0\n",
    ],
)
def test_parse_text_takes_only_ascii_digits(text):
    # int() would read each of these: signs, spaces, underscores and
    # non-ASCII digits.
    with pytest.raises(ValueError, match="bad header|bad entry"):
        parse_text(text)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: KTableau(0, [[1]]), "k must be positive, got 0"),
        (lambda: KTableau(3, [[0]]), "letters must be positive, got 0"),
        (
            lambda: restrict_leq(KTableau(2, [[2, 1]]), 1),
            "letters <= 1 do not form row prefixes",
        ),
        (lambda: parse_json_dict([1]), "expected a JSON object, got list"),
        (
            lambda: parse_json_dict({"k": 3, "rows": 5}),
            "malformed tableau fields: 'int' object is not iterable",
        ),
    ],
    ids=["k-zero", "letter-zero", "not-row-prefixes", "json-list", "rows-not-a-list"],
)
def test_rejections_name_the_problem(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[1, True]], "letter must be an integer, got True"),
        ([[1, 2.0]], "letter must be an integer, got 2.0"),
        ([["1"]], "letter must be an integer, got '1'"),
        ([[1, 0, -1]], "letters must be positive, got 0"),
        ([[2], [-3]], "letters must be positive, got -3"),
        # Every letter's type is checked before any letter's sign.
        ([[0], [True]], "letter must be an integer, got True"),
    ],
)
def test_ktableau_names_the_first_bad_letter(rows, message):
    with pytest.raises(ValueError) as exc:
        KTableau(3, rows)
    assert str(exc.value) == message


def test_ktableau_converts_integer_like_letters():
    # Letters of an int subclass are stored as plain ints.
    class Letter(int):
        pass

    tab = KTableau(2, [[Letter(1), 1], (2,)])
    assert tab.rows == ((1, 1), (2,))
    assert {type(x) for row in tab.rows for x in row} == {int}
    assert tab == KTableau(2, [[1, 1], [2]])


@pytest.mark.parametrize(
    "tab,weight,problem,cell",
    [
        (KTableau(1, [[1, 1], [2]]), None, "letter 1 spans 2 residues > k=1", Cell(1, 1)),
        (KTableau(2, [[1]]), (1, 1), "1 letters, expected 2", None),
        # Each case below fails the whole-weight comparison, so the letter
        # scan names the first offender.
        (KTableau(3, [[1, 1, 3]]), None, "letter 2 is missing", None),
        (KTableau(3, [[1, 1, 2]]), (2, 1, 1), "2 letters, expected 3", None),
        (
            KTableau(3, [[1, 1, 2]]),
            (2,),
            "letter 2 spans 1 residues, expected 0",
            Cell(1, 3),
        ),
        (
            KTableau(2, [[1, 2, 2, 2], [3, 3]]),
            None,
            "letter 2 spans 3 residues > k=2",
            Cell(1, 2),
        ),
        (
            KTableau(3, [[1, 1, 2, 3, 3], [2, 3], [3]]),
            (2, 2, 3),
            "residue classes sum to 7 but shape has 6 k-bounded hooks",
            None,
        ),
    ],
    ids=[
        "span-exceeds-k",
        "too-few-letters",
        "missing-letter",
        "expected-extra-part",
        "unexpected-letter",
        "later-span-exceeds-k",
        "hook-sum-mismatch",
    ],
)
def test_validate_names_the_problem_and_cell(tab, weight, problem, cell):
    assert validate(tab, weight) == ValidationReport(False, problem, cell)


def test_oracle_with_a_shape_equals_fast():
    shape = Partition((3,))
    fast = enumerate_k_tableaux(3, (2, 1), shape=shape)
    assert fast == [KTableau(3, [[1, 1, 2]])]
    assert_same_tableaux(fast, [t for t in _enumerate_oracle(3, (2, 1)) if t.shape == shape])


def test_standard_sequences_use_every_residue_class():
    # Every filling with letters 1..4 (valid k-tableau or not) of every
    # partition of size <= 7: whenever standard_sequences accepts the
    # weight, its sequences take each (letter, residue) class exactly once.
    split = 0
    for k in range(1, 5):
        for size in range(1, 8):
            for shape in partitions(size):
                for rows in semistandard_fillings(shape, 4):
                    tab = KTableau(k, rows)
                    try:
                        seqs = standard_sequences(tab)
                    except ValueError:
                        continue
                    split += 1
                    taken = [(e.letter, e.residue) for seq in seqs for e in seq.entries]
                    classes = tab._residue_index()
                    assert sorted(taken) == sorted((x, r) for x in classes for r in classes[x])
                    for seq in seqs:
                        for e in seq.entries:
                            assert e.cells == classes[e.letter][e.residue]
    assert split == 708


def _validate_literal(tab, weight=None):
    """`validate` as it stood before rows and columns were scanned whole:
    every cell is compared with its left and lower neighbour in turn."""
    n = tab.k + 1
    cell, hooks = _hook_facts(tab.shape, n)
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
    return ValidationReport(True)


def _tableaux_and_one_letter_changes():
    """(filling, weight) for every k-tableau with k <= 4 and |weight| <= 6,
    and for every filling that changes one of its entries to another
    letter in 1..n_letters+1, paired with the tableau's weight."""
    cases = []
    for k, mu in weights_up_to(4, 6):
        for tab in enumerate_k_tableaux(k, mu):
            cases.append((tab, mu))
            rows = [list(row) for row in tab.rows]
            for i, row in enumerate(rows):
                for j, old in enumerate(row):
                    for x in range(1, tab.n_letters + 2):
                        if x != old:
                            row[j] = x
                            cases.append((KTableau(k, rows), mu))
                    row[j] = old
    return cases


def test_validate_equals_the_cell_by_cell_scan():
    problems = set()
    for tab, mu in _tableaux_and_one_letter_changes():
        for weight in (None, mu):
            got = validate(tab, weight)
            want = _validate_literal(tab, weight)
            assert (got.ok, got.problem, got.cell) == (want.ok, want.problem, want.cell), (
                tab,
                weight,
            )
            problems.add(got.problem)
    assert "row decreases left-to-right" in problems
    assert "column fails to increase bottom-to-top" in problems


def test_residue_index_files_every_cell_by_its_residue():
    # One-cell letters take a shortcut; the index must not tell.
    for tab, _ in _tableaux_and_one_letter_changes():
        n = tab.k + 1
        literal = {}
        for cell in tab.shape.cells():
            letter = tab.rows[cell.row - 1][cell.col - 1]
            literal.setdefault(letter, {}).setdefault(residue(cell, n), set()).add(cell)
        assert tab._residue_index() == {
            x: {r: frozenset(cs) for r, cs in by_res.items()} for x, by_res in literal.items()
        }


def test_sequence_entry_is_an_immutable_hashable_record():
    cells = frozenset({Cell(1, 1), Cell(2, 3)})
    entry = SequenceEntry(letter=2, residue=0, cells=cells)
    assert entry == SequenceEntry(letter=2, residue=0, cells=frozenset(cells))
    assert hash(entry) == hash(SequenceEntry(letter=2, residue=0, cells=frozenset(cells)))
    assert (entry.letter, entry.residue, entry.cells) == (2, 0, cells)
    with pytest.raises(AttributeError):
        entry.letter = 3
    with pytest.raises(AttributeError):
        entry.extra = 1
    assert repr(SequenceEntry(letter=1, residue=0, cells=frozenset({Cell(1, 1)}))) == (
        "SequenceEntry(letter=1, residue=0, cells=frozenset({Cell(row=1, col=1)}))"
    )


def test_random_tableaux_validate_and_index_as_a_literal_grouping(random_tableaux):
    # Seeded k-tableaux of 15-40 cells, beyond the exhaustive sweeps: the
    # one-pass indexes equal a grouping of freshly built `Cell`s.
    assert len(random_tableaux) >= 200
    for k, tab in random_tableaux:
        assert 15 <= tab.shape.size() <= 40
        assert validate(tab), to_text(tab)
        n = k + 1
        by_letter, by_residue = {}, {}
        for i, row in enumerate(tab.rows, start=1):
            for j, x in enumerate(row, start=1):
                cell = Cell(i, j)
                by_letter.setdefault(x, []).append(cell)
                by_residue.setdefault(x, {}).setdefault(residue(cell, n), set()).add(cell)
        fresh = KTableau(k, tab.rows)
        assert fresh._letter_index() == {x: tuple(cs) for x, cs in by_letter.items()}
        classes = fresh._residue_index()
        assert classes == {
            x: {r: frozenset(cs) for r, cs in by_res.items()} for x, by_res in by_residue.items()
        }
        # Residues in order of first cell, and every entry a `Cell`.
        assert all(list(classes[x]) == list(by_residue[x]) for x in classes)
        assert all(
            type(c) is Cell and (c.row, c.col) == c
            for cells in fresh._letter_index().values()
            for c in cells
        )


def test_every_letter_prefix_of_a_random_tableau_validates(random_tableaux):
    # T restricted to letters <= r is a k-tableau of the weight's first r
    # parts, which a failure's minimal failing prefix relies on.
    prefixes = 0
    for _, tab in random_tableaux:
        for r in range(1, tab.n_letters + 1):
            assert validate(restrict_leq(tab, r), tab.weight[:r]).ok, (to_text(tab), r)
            prefixes += 1
    assert prefixes == 4426


def test_shape_restricted_enumeration_contains_random_prefixes(random_tableaux):
    # Each tableau's largest letter prefix of at most 10 cells is among the
    # tableaux enumerated for its weight and shape, all of that shape.
    # Whole tableaux of 15-40 cells take seconds each to enumerate.
    for k, tab in random_tableaux:
        prefix = None
        for r in range(1, tab.n_letters + 1):
            grown = restrict_leq(tab, r)
            if grown.shape.size() > 10:
                break
            prefix = grown
        assert prefix is not None, to_text(tab)
        found = enumerate_k_tableaux(k, prefix.weight, shape=prefix.shape)
        assert prefix in found, to_text(tab)
        assert all(t.shape == prefix.shape for t in found), to_text(tab)
