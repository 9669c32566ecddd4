import random

import pytest

from kcharge import KTableau
from kcharge.cores import Partition
from kcharge.ktableaux import _extend_rows, _weak_strips


@pytest.fixture
def tab_weight_222():
    """k=3 tableau of shape (5,2,1) and weight (2,2,2)."""
    return KTableau(3, [[1, 1, 2, 2, 3], [2, 3], [3]])


@pytest.fixture
def tab_standard_9():
    """Standard k=4 tableau of shape (6,2,2,1) and weight (1^9)."""
    return KTableau(4, [[1, 2, 3, 5, 7, 9], [4, 6], [5, 7], [8]])


@pytest.fixture
def tab_semistandard_13():
    """k=4 tableau of shape (9,5,3,2,1,1) and weight (2,2,2,2,2,2,1)."""
    return KTableau(
        4,
        [[1, 1, 2, 3, 4, 4, 5, 5, 6], [2, 3, 5, 5, 6], [3, 4, 7], [5, 6], [6], [7]],
    )


def random_k_tableau(rng, k, min_cells=15, max_cells=40, max_part=4):
    """A random k-tableau whose shape has min_cells..max_cells cells.

    It grows one letter at a time.  Each letter takes a random size, at
    most the last letter's (so the weight stays a partition) and at most
    max_part, and a random weak strip of that size from
    `ktableaux._weak_strips` that keeps the shape within max_cells; the
    other sizes are tried in random order when none fits.  It stops at a
    random target size, so sizes spread over the range, or short of it
    when no strip fits and the shape has min_cells cells; below that, the
    letter before is undone.
    """
    n = k + 1
    target = rng.randint(min_cells, max_cells)
    # (shape, rows, largest size the next letter may take)
    stack = [(Partition(), (), min(k, max_part))]
    while True:
        shape, rows, cap = stack[-1]
        if sum(shape) >= target:
            return KTableau(k, rows)
        for size in rng.sample(range(1, cap + 1), cap):
            fits = [grown for grown in _weak_strips(shape, n, size) if sum(grown) <= max_cells]
            if fits:
                grown = rng.choice(fits)
                stack.append((grown, _extend_rows(rows, grown, len(stack)), size))
                break
        else:
            if sum(shape) >= min_cells:
                return KTableau(k, rows)
            stack.pop()


@pytest.fixture(scope="session")
def random_tableaux():
    """(k, tableau) for seeded random k-tableaux of 15-40 cells: 240 with k
    in 2..6, beyond the exhaustive sweeps, and 60 with k in 12..16, most of
    them of large k (classical)."""
    rng = random.Random(20261018)
    small = [(k, random_k_tableau(rng, k)) for k in rng.choices(range(2, 7), k=240)]
    large = [(k, random_k_tableau(rng, k)) for k in rng.choices(range(12, 17), k=60)]
    return small + large
