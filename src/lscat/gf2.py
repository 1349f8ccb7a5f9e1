"""GF(2) linear algebra on int bitsets.

Vectors are Python ints (bit j = coordinate j), of arbitrary width.
"""

from __future__ import annotations


def rref(rows: list[int], pivot_limit: int) -> list[int]:
    """Reduced row echelon form of `rows`, in place.

    Pivots only in columns [0, pivot_limit); higher bits ride along as
    tags.  Returns the pivot columns; rows 0..rank-1 end up as the pivot
    rows in ascending pivot order.
    """
    rank = 0
    nrows = len(rows)
    pivots: list[int] = []
    for col in range(pivot_limit):
        if rank == nrows:
            break
        mask = 1 << col
        pivot = -1
        for r in range(rank, nrows):
            if rows[r] & mask:
                pivot = r
                break
        if pivot < 0:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        piv_row = rows[rank]
        for r in range(nrows):
            if r != rank and (rows[r] & mask):
                rows[r] ^= piv_row
        pivots.append(col)
        rank += 1
    return pivots


def span_basis(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """RREF basis of the span: (rows in pivot order, pivot columns)."""
    work = list(rows)
    pivots = rref(work, ncols)
    return work[: len(pivots)], pivots


def left_kernel(rows: list[int], ncols: int) -> list[int]:
    """Basis of {c : XOR of rows[i] over set bits i of c == 0}.

    Coefficient vectors are ints with bit i <-> rows[i].
    """
    n = len(rows)
    if n == 0:
        return []
    tagged = [rows[i] | (1 << (ncols + i)) for i in range(n)]
    npiv = len(rref(tagged, ncols))
    kernel = [row >> ncols for row in tagged[npiv:]]
    return [c for c in kernel if c]


def quotient_basis(
    cycles: list[int], boundaries: list[int], ncols: int
) -> tuple[list[int], list[int]]:
    """Representatives of span(cycles)/span(boundaries), fully reduced.

    Returns (representative rows, their pivot columns); each
    representative's pivot is its leading coordinate, distinct from every
    boundary pivot.
    """
    bnd, bnd_pivots = span_basis(boundaries, ncols)
    work = list(bnd) + list(cycles)
    pivots = rref(work, ncols)
    bnd_set = set(bnd_pivots)
    reps = []
    rep_pivots = []
    for row, col in zip(work[: len(pivots)], pivots):
        if col not in bnd_set:
            reps.append(row)
            rep_pivots.append(col)
    return reps, rep_pivots
