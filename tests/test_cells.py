"""Cell-dimension bookkeeping: suspension and smash multisets."""

import math

import pytest

from cells import (
    CellComplex,
    CellError,
    complex_from_dims,
    cp,
    min_cell_dim_excluding,
    smash,
    sphere,
    suspend,
)


def test_cp_dimensions():
    assert cp(3).dimensions() == [2, 4, 6]
    assert cp(1).dimensions() == [2]


def test_suspension_shifts():
    assert suspend(cp(2), 3).dimensions() == [5, 7]
    c = complex_from_dims([1, 4, 4])
    assert suspend(c, 0) is c


def test_smash_adds_dimensions():
    assert smash(cp(3), sphere(6)).dimensions() == [8, 10, 12]
    assert smash(cp(2), cp(2)).dimensions() == [4, 6, 6, 8]


def test_smash_symmetric_dims():
    a, b = cp(2), complex_from_dims([3, 5], prefix="f")
    assert smash(a, b).dimensions() == smash(b, a).dimensions()
    c = sphere(2)
    assert (
        smash(smash(a, b), c).dimensions() == smash(a, smash(b, c)).dimensions()
    )


def test_cell_counts_multiply():
    a, b = cp(3), cp(2)
    assert len(smash(a, b).cells) == len(a.cells) * len(b.cells)


def test_criterion_10_multisets():
    """Criterion 10: the three cell computations."""
    assert suspend(smash(cp(3), sphere(6)), 3).dimensions() == [11, 13, 15]
    assert smash(cp(2), cp(2)).dimensions() == [4, 6, 6, 8]
    quad = cp(2)
    for _ in range(3):
        quad = smash(quad, cp(2))
    s3quad = suspend(quad, 3)
    low = [lab for dim, lab in s3quad.cells if dim in (11, 13)]
    assert min_cell_dim_excluding(s3quad, low) == 15


def test_min_cell_dim_edge_cases():
    c = cp(2)
    assert min_cell_dim_excluding(c, []) == 2
    all_labels = [lab for _, lab in c.cells]
    assert min_cell_dim_excluding(c, all_labels) == math.inf
    with pytest.raises(CellError):
        min_cell_dim_excluding(c, ["nope"])


def test_label_uniqueness_enforced():
    with pytest.raises(CellError):
        CellComplex(((2, "a"), (3, "a")))
    with pytest.raises(CellError):
        CellComplex(((0, "a"),))
    # smash of distinct complexes never collides labels
    sq = smash(cp(2), cp(2))
    assert len({lab for _, lab in sq.cells}) == 4


def test_suspend_negative():
    with pytest.raises(CellError):
        suspend(cp(1), -1)
