import random

import pytest

from kcharge import KTableau
from reference import random_k_tableau


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


@pytest.fixture(scope="session")
def random_tableaux():
    """(k, tableau) for seeded random k-tableaux of 15-40 cells: 240 with k
    in 2..6, beyond the exhaustive sweeps, and 60 with k in 12..16, most of
    them of large k (classical)."""
    rng = random.Random(20261018)
    small = [(k, random_k_tableau(rng, k)) for k in rng.choices(range(2, 7), k=240)]
    large = [(k, random_k_tableau(rng, k)) for k in rng.choices(range(12, 17), k=60)]
    return small + large
