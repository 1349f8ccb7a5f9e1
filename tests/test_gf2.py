"""GF(2) kernel against a naive numpy oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lscat import gf2


def _to_matrix(rows, ncols):
    return np.array(
        [[(r >> j) & 1 for j in range(ncols)] for r in rows], dtype=np.uint8
    )


def _naive_rank(rows, ncols):
    m = _to_matrix(rows, ncols)
    rank = 0
    for col in range(ncols):
        pivot = next(
            (i for i in range(rank, m.shape[0]) if m[i, col]), None
        )
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for i in range(m.shape[0]):
            if i != rank and m[i, col]:
                m[i] ^= m[rank]
        rank += 1
    return rank


matrices = st.integers(1, 8).flatmap(
    lambda ncols: st.lists(
        st.integers(0, 2**ncols - 1), min_size=0, max_size=10
    ).map(lambda rows: (rows, ncols))
)


@settings(max_examples=200, deadline=None)
@given(data=matrices)
def test_rref_matches_naive_rank(data):
    rows, ncols = data
    work = list(rows)
    pivots = gf2.rref(work, ncols)
    assert len(pivots) == _naive_rank(rows, ncols)
    # pivots strictly increasing, pivot columns cleared elsewhere
    assert pivots == sorted(set(pivots))
    for i, col in enumerate(pivots):
        for j in range(len(work)):
            assert ((work[j] >> col) & 1) == (1 if j == i else 0)
    # row space preserved both ways
    for r in rows:
        assert gf2.in_span(r, work[: len(pivots)], ncols)
    for r in work[: len(pivots)]:
        assert gf2.in_span(r, list(rows), ncols)


def test_rref_wide_rows_with_tags():
    # 3 rows over 2 pivot columns with tag bits above.
    rows = [0b01 | (1 << 2), 0b11 | (1 << 3), 0b10 | (1 << 4)]
    pivots = gf2.rref(rows, 2)
    assert pivots == [0, 1]
    # third row is the sum of the first two: its tag part records that.
    assert rows[2] >> 2 == 0b111


def test_left_kernel():
    rows = [0b011, 0b110, 0b101]  # r0 + r1 + r2 == 0
    kernel = gf2.left_kernel(rows, 3)
    assert kernel == [0b111]
    for c in kernel:
        acc = 0
        for i in range(3):
            if (c >> i) & 1:
                acc ^= rows[i]
        assert acc == 0
    assert gf2.left_kernel([], 3) == []
    assert gf2.left_kernel([0b1, 0b10], 2) == []


def test_quotient_basis():
    cycles = [0b001, 0b010, 0b100, 0b110]
    boundaries = [0b110]
    reps, pivots = gf2.quotient_basis(cycles, boundaries, 3)
    assert len(reps) == 2
    assert 1 not in pivots  # boundary pivot excluded
    for rep in reps:
        assert not gf2.in_span(rep, boundaries, 3)


def test_rank_and_span():
    assert gf2.rank([0b01, 0b10, 0b11], 2) == 2
    basis, pivots = gf2.span_basis([0b11, 0b11, 0b01], 2)
    assert len(basis) == len(pivots) == 2
    assert gf2.in_span(0b10, [0b11, 0b01], 2)
    assert not gf2.in_span(0b100, [0b11, 0b01], 3)


def test_large_widths_cross_word_boundary():
    # Identity-like rows spread past 64 and 128 bits.
    cols = [0, 63, 64, 127, 128, 200]
    rows = [1 << c for c in cols]
    work = list(rows)
    pivots = gf2.rref(work, 201)
    assert pivots == cols
    assert work[: len(pivots)] == rows
