from collections import Counter

import pytest
from hypothesis import given, strategies as st

from kcharge.cores import (
    Cell,
    Partition,
    _corner_residues,
    _hook_facts,
    add_residue_class,
    n_stat,
    partition_sort_key,
    partitions,
    semistandard_fillings,
)
from reference import (
    abacus_step,
    addable_corners,
    enumerate_cores,
    hook_length,
    is_n_core,
    k_bounded_hooks,
    k_interior,
    removable_corners,
    residue,
)


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Partition()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return Partition(sorted(Counter(bins).values(), reverse=True))


def all_partitions_up_to(max_size):
    for size in range(max_size + 1):
        yield from partitions(size)


def test_partition_construction():
    assert Partition() == ()
    assert Partition([3, 2, 2]) == (3, 2, 2)
    assert Partition((5,)).size() == 5
    with pytest.raises(ValueError):
        Partition([2, 3])
    with pytest.raises(ValueError):
        Partition([1, 0])
    with pytest.raises(ValueError):
        Partition([-1])
    with pytest.raises(ValueError):
        Partition([10**6 + 1])


@pytest.mark.parametrize("parts", [(2.5, 1), ("3", "1"), (True,)])
def test_partition_rejects_non_integer_parts(parts):
    with pytest.raises(ValueError, match="partition part must be an integer"):
        Partition(parts)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_unchecked_shapes_are_partitions(n):
    # Conjugates and grown cores skip validation; each must equal the
    # checked construction of the same parts.
    for core in enumerate_cores(n, 8):
        conj = core.conjugate()
        assert type(conj) is Partition and conj == Partition(tuple(conj))
        for res in range(n):
            grown = add_residue_class(core, n, res)
            if grown is not None:
                assert type(grown) is Partition and grown == Partition(tuple(grown))


def test_partitions_are_checked_partitions():
    for m in range(11):
        for lam in partitions(m):
            assert type(lam) is Partition and lam == Partition(tuple(lam))


def test_partition_text_form():
    assert str(Partition([7, 3, 2, 1, 1])) == "(7,3,2,1,1)"
    assert str(Partition()) == "()"


def test_conjugate():
    assert Partition([5, 3, 2, 2, 1, 1]).conjugate() == (6, 4, 2, 1, 1)
    assert Partition().conjugate() == ()
    assert Partition([3]).conjugate() == (1, 1, 1)


@given(partition_strategy())
def test_conjugate_involution(lam):
    assert lam.conjugate().conjugate() == lam


def test_hook_length_known():
    assert hook_length(Partition([1]), Cell(1, 1)) == 1
    assert hook_length(Partition([6, 2, 2, 1]), Cell(1, 1)) == 9
    with pytest.raises(ValueError):
        hook_length(Partition([2]), Cell(2, 1))


def test_five_core_has_no_hook_five():
    shape = Partition([7, 3, 2, 1, 1])
    assert all(hook_length(shape, c) != 5 for c in shape.cells())
    assert is_n_core(shape, 5)


def test_is_n_core():
    assert is_n_core(Partition(), 2)
    assert not is_n_core(Partition([1, 1]), 2)
    assert is_n_core(Partition([5, 2, 1]), 4)
    with pytest.raises(ValueError):
        is_n_core(Partition([1]), 1)


@given(partition_strategy())
def test_hooks_positive_and_unit_hooks_are_bare_corners(lam):
    for c in lam.cells():
        h = hook_length(lam, c)
        assert h >= 1
        arm = lam[c.row - 1] - c.col
        leg = lam.conjugate()[c.col - 1] - c.row
        assert (h == 1) == (arm == 0 and leg == 0)


def test_residue_known():
    assert residue(Cell(1, 1), 5) == 0
    assert residue(Cell(2, 1), 5) == 4
    assert residue(Cell(1, 6), 5) == 0


@given(st.integers(1, 30), st.integers(1, 30), st.integers(2, 9))
def test_residue_constant_on_diagonals(i, j, n):
    assert residue(Cell(i, j), n) == residue(Cell(i + 1, j + 1), n)


def test_addable_corners_known():
    assert addable_corners(Partition([2]), 5) == [(Cell(1, 3), 2), (Cell(2, 1), 4)]
    assert addable_corners(Partition(), 5) == [(Cell(1, 1), 0)]
    corners = addable_corners(Partition([4, 1, 1]), 5)
    assert (Cell(1, 5), 4) in corners
    assert (Cell(4, 1), 2) in corners


def _cell_add_residue_class(shape, n, res):
    """The Cell-based residue-class fill, through a row -> column dict."""
    rows = {c.row: c.col for c, r in addable_corners(shape, n) if r == res}
    if not rows:
        return None
    parts = list(shape)
    for row, col in rows.items():
        if row > len(parts):
            parts.append(col)
        else:
            parts[row - 1] = col
    return Partition(parts)


@pytest.mark.parametrize("n", range(2, 7))
def test_integer_corner_rule_equals_the_cell_rule(n):
    # The addable corner of 0-based row i has residue (part_i - i) % n and
    # the new top row -len(shape) % n; compare with Cells and residue() on
    # every n-core with at most 8 bounded hooks, and on small non-cores.
    cores = enumerate_cores(n, 8)
    assert len(cores) > 8
    for shape in cores + list(all_partitions_up_to(6)):
        padded = tuple(shape) + (0,)
        integer_rule = [
            (Cell(i + 1, padded[i] + 1), r)
            for i, r in enumerate(_corner_residues(shape, n))
            if r is not None
        ]
        assert integer_rule == addable_corners(shape, n)
        for res in range(n):
            assert add_residue_class(shape, n, res) == _cell_add_residue_class(shape, n, res)


@pytest.mark.parametrize("n", [0, 1])
def test_corner_functions_reject_a_modulus_below_two(n):
    calls = (
        lambda: list(_corner_residues(Partition([2]), n)),
        lambda: add_residue_class(Partition(), n, 0),
    )
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"residue modulus must be at least 2, got {n}"


@pytest.mark.parametrize(
    "shape, res, message",
    [
        (Partition([2]), 7, "residue must lie in 0..2, got 7"),
        (Partition([2]), -1, "residue must lie in 0..2, got -1"),
        ((1, 3), 1, "parts must be weakly decreasing, got (1, 3)"),
        ([2, 0], 2, "parts must be positive, got (2, 0)"),
    ],
    ids=["residue-above", "residue-below", "increasing-parts", "zero-part"],
)
def test_add_residue_class_rejects_a_bad_residue_or_shape(shape, res, message):
    with pytest.raises(ValueError) as exc:
        add_residue_class(shape, 3, res)
    assert str(exc.value) == message


def test_add_residue_class_takes_a_partition_as_a_list():
    assert add_residue_class([2], 3, 2) == add_residue_class(Partition([2]), 3, 2) == (3, 1)


def test_removable_corners_known():
    assert removable_corners(Partition([1]), 3) == [(Cell(1, 1), 0)]
    assert removable_corners(Partition([5, 2, 1]), 4) == [
        (Cell(1, 5), 0),
        (Cell(2, 2), 0),
        (Cell(3, 1), 2),
    ]
    assert removable_corners(Partition(), 4) == []


@given(partition_strategy(), st.integers(2, 6))
def test_corner_duality(lam, n):
    for corner, res in addable_corners(lam, n):
        parts = list(lam)
        if corner.row > len(parts):
            parts.append(corner.col)
        else:
            parts[corner.row - 1] = corner.col
        grown = Partition(parts)
        assert (corner, res) in removable_corners(grown, n)


def test_k_interior_known():
    assert len(k_interior(Partition([6, 2, 2, 1]), 4)) == 2
    assert len(k_interior(Partition([9, 5, 3, 2, 1, 1]), 4)) == 8
    with pytest.raises(ValueError):
        k_interior(Partition([1]), 0)


@given(partition_strategy(), st.integers(1, 12))
def test_interior_empty_iff_k_exceeds_principal_hook(lam, k):
    principal = (lam[0] + len(lam) - 1) if lam else 0
    assert (len(k_interior(lam, k)) == 0) == (k > principal - 1)


def bounded_hooks(shape, k):
    """The library's count of the shape's hooks of at most k, which
    `validate` and the sweeps read."""
    return _hook_facts(tuple(shape), k + 1)[1]


@given(partition_strategy(), st.integers(1, 10))
def test_bounded_hooks_plus_interior_is_size(lam, k):
    assert bounded_hooks(lam, k) + len(k_interior(lam, k)) == lam.size()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: k_interior(Partition([2, 1]), 0), "k must be positive, got 0"),
        (lambda: enumerate_cores(1, 3), "core modulus must be at least 2, got 1"),
        (lambda: enumerate_cores(3, -1), "bound must be non-negative"),
    ],
    ids=["interior-k-zero", "core-modulus-one", "negative-bound"],
)
def test_rejections_name_the_problem(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_k_bounded_hooks_known():
    for count in (bounded_hooks, k_bounded_hooks):
        assert count(Partition([5, 2, 1]), 3) == 6
        assert count(Partition([6, 2, 2, 1]), 4) == 9
        assert count(Partition(), 3) == 0


@pytest.mark.parametrize("n", range(2, 7))
def test_k_bounded_hooks_counts_hooks_of_cores(n):
    for shape in enumerate_cores(n, 8):
        for k in range(1, n + 2):
            assert bounded_hooks(shape, k) == shape.size() - len(k_interior(shape, k))


def test_hook_facts_equal_the_hook_scan():
    # One pass gives what a scan of each cell's hook_length gives: the
    # first cell, bottom row first, whose hook is n, and the number of
    # hooks below n, the k-bounded hooks for k = n - 1; the same from a
    # cold cache, a warm one, and a plain tuple key.
    shapes = list(all_partitions_up_to(10))
    hooks = {
        shape: [(cell, hook_length(shape, cell)) for cell in shape.cells()] for shape in shapes
    }
    _hook_facts.cache_clear()
    for warm in (False, True):
        for shape in shapes:
            for n in range(2, 8):
                first = next((cell for cell, hook in hooks[shape] if hook == n), None)
                expected = (first, sum(hook < n for _, hook in hooks[shape]))
                assert _hook_facts(shape, n) == expected
                assert _hook_facts(tuple(shape), n) == expected
    assert _hook_facts.cache_info().misses == len(shapes) * 6


@pytest.mark.parametrize(
    "hook_function",
    [
        lambda shape: hook_length(shape, Cell(1, 1)),
        lambda shape: is_n_core(shape, 3),
        lambda shape: k_interior(shape, 2),
        lambda shape: bounded_hooks(shape, 2),
    ],
    ids=["hook_length", "is_n_core", "k_interior", "k_bounded_hooks"],
)
def test_hook_functions_read_any_partition_like_shape(hook_function):
    # A list or a tuple answers as the Partition does; a non-partition
    # raises Partition's own error.
    for parts in ((2, 1), (3, 1, 1), (4, 2, 2, 1)):
        expected = hook_function(Partition(parts))
        assert hook_function(parts) == hook_function(list(parts)) == expected
    for parts, fault in (((1, 3), "weakly decreasing"), ([2, 0], "positive")):
        with pytest.raises(ValueError, match=f"parts must be {fault}, got"):
            hook_function(parts)


def test_hook_facts_raise_for_a_non_partition_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="weakly decreasing"):
            _hook_facts((1, 2), 3)
        with pytest.raises(ValueError, match="positive"):
            _hook_facts((2, 0), 3)


def test_n_stat_known():
    assert n_stat(Partition()) == 0
    assert n_stat(Partition([1] * 9)) == 36
    assert n_stat(Partition([2, 2, 2, 2, 2, 2, 1])) == 36


def test_enumerate_cores_two_core_staircases():
    assert enumerate_cores(2, 2) == [Partition(), Partition([1]), Partition([2, 1])]
    assert enumerate_cores(3, 0) == [Partition()]
    assert Partition([5, 2, 1]) in enumerate_cores(4, 6)


@pytest.mark.parametrize("n,bound,window", [(2, 3, 12), (3, 4, 14), (4, 4, 12), (5, 3, 10)])
def test_enumerate_cores_matches_brute_filter(n, bound, window):
    enumerated = enumerate_cores(n, bound)
    assert max((c.size() for c in enumerated), default=0) <= window
    brute = {
        lam
        for lam in all_partitions_up_to(window)
        if is_n_core(lam, n) and k_bounded_hooks(lam, n - 1) <= bound
    }
    assert set(enumerated) == brute
    assert enumerated == sorted(enumerated, key=partition_sort_key)


@pytest.mark.parametrize("n", range(2, 9))
def test_corner_rule_equals_the_abacus_step(n):
    # The oracle grows its cores on the abacus, so `_corner_residues` is
    # checked here against a rule that reads no corner: on every n-core
    # with at most 9 bounded hooks, and on every partition of at most 6.
    shapes = enumerate_cores(n, 9) + list(all_partitions_up_to(6))
    for shape in shapes:
        for res in range(n):
            assert add_residue_class(shape, n, res) == abacus_step(shape, n, res), (shape, res)


@pytest.mark.parametrize("n", range(2, 9))
def test_cores_with_m_bounded_hooks_are_counted_by_bounded_partitions(n):
    # Lapointe-Morse: the n-cores with m (n-1)-bounded hooks are as many as
    # the partitions of m into parts of at most n-1, a count that neither
    # grower reads.
    bound = 9
    found = Counter(k_bounded_hooks(core, n - 1) for core in enumerate_cores(n, bound))
    assert found == {m: sum(1 for _ in partitions(m, max_part=n - 1)) for m in range(bound + 1)}


@pytest.mark.parametrize("n,bound", [(2, 4), (3, 5), (4, 5), (5, 4)])
def test_residue_fill_adds_one_bounded_hook(n, bound):
    for core in enumerate_cores(n, bound):
        before = k_bounded_hooks(core, n - 1)
        for res in range(n):
            grown = add_residue_class(core, n, res)
            if grown is not None:
                assert is_n_core(grown, n)
                assert k_bounded_hooks(grown, n - 1) == before + 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cores_never_share_addable_and_removable_residue(n):
    for core in enumerate_cores(n, 6):
        addable = {r for _, r in addable_corners(core, n)}
        removable = {r for _, r in removable_corners(core, n)}
        assert not (addable & removable), (core, addable & removable)


def test_canonical_order_is_size_then_reverse_lex():
    shapes = [
        Partition([3, 3]),
        Partition([6, 3]),
        Partition([4, 2]),
        Partition([2, 2, 2]),
        Partition([5, 2, 1]),
        Partition(),
    ]
    ordered = sorted(shapes, key=partition_sort_key)
    assert ordered == [
        Partition(),
        Partition([4, 2]),
        Partition([3, 3]),
        Partition([2, 2, 2]),
        Partition([5, 2, 1]),
        Partition([6, 3]),
    ]


@pytest.mark.parametrize("content", [[5, 5], [0, 3], [1, 1]])
def test_fillings_with_another_content_sum_are_none(content):
    # A content that does not sum to the shape's size used to yield every
    # filling that used each letter at most that often.
    assert list(semistandard_fillings(Partition([2, 1]), 2, content)) == []


def test_fillings_use_each_letter_exactly_as_often_as_the_content_says():
    for size in range(1, 7):
        for shape in partitions(size):
            everything = list(semistandard_fillings(shape, 3))
            for a in range(size + 1):
                for b in range(size + 1 - a):
                    content = (a, b, size - a - b)
                    expected = [
                        rows
                        for rows in everything
                        if tuple(sum(row.count(x) for row in rows) for x in (1, 2, 3)) == content
                    ]
                    assert list(semistandard_fillings(shape, 3, content)) == expected


@pytest.mark.parametrize(
    "args,message",
    [
        ((Partition([2, 1]), 2, [-1, 4]), "content entries must be non-negative, got [-1, 4]"),
        ((Partition([2, 1]), 2, [1.5, 1.5]), "content entry must be an integer, got 1.5"),
        ((Partition([2, 1]), 2, [True, 2]), "content entry must be an integer, got True"),
        ((Partition([2, 1]), 3, [1]), "content must have n_letters=3 entries, got [1]"),
        ((Partition([2, 1]), 1, [1, 2]), "content must have n_letters=1 entries, got [1, 2]"),
        ((Partition([2, 1]), 2.0), "n_letters must be an integer, got 2.0"),
        ((Partition([2, 1]), True), "n_letters must be an integer, got True"),
        ((Partition(), -3), "n_letters must be non-negative, got -3"),
        (([1, 2], 2), "parts must be weakly decreasing, got (1, 2)"),
    ],
    ids=[
        "negative-entry",
        "float-entry",
        "bool-entry",
        "short-content",
        "long-content",
        "float-letters",
        "bool-letters",
        "negative-letters",
        "non-partition-shape",
    ],
)
def test_filling_arguments_are_read_strictly(args, message):
    # Checked at the call, before anything is yielded.
    with pytest.raises(ValueError) as exc:
        semistandard_fillings(*args)
    assert str(exc.value) == message


def test_fillings_read_a_list_shape_as_a_partition():
    assert list(semistandard_fillings([2, 1], 2)) == [((1, 1), (2,)), ((1, 2), (2,))]
    assert list(semistandard_fillings([2, 1], 2, [2, 1])) == [((1, 1), (2,))]
