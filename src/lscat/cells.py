"""Cell-dimension bookkeeping for suspensions and smash products.

Only dimension multisets are modeled (reduced complexes, basepoint cell
omitted); attaching maps and homotopy identities are carried elsewhere as
untestable annotations.
"""

from __future__ import annotations

import math


class CellError(ValueError):
    pass


class CellComplex:
    __slots__ = ("cells",)

    def __init__(self, cells):
        self.cells = tuple(cells)  # (dimension, label) pairs
        labels = [lab for _, lab in self.cells]
        if len(set(labels)) != len(labels):
            raise CellError("cell labels must be unique")
        for dim, lab in self.cells:
            if dim < 1:
                raise CellError(f"cell {lab!r}: dimension must be >= 1")

    def dimensions(self) -> list[int]:
        return sorted(dim for dim, _ in self.cells)


def complex_from_dims(dims, prefix: str = "e") -> CellComplex:
    cells = tuple(
        (dim, f"{prefix}{dim}_{i}") for i, dim in enumerate(sorted(dims))
    )
    return CellComplex(cells)


def sphere(k: int, label: str | None = None) -> CellComplex:
    return CellComplex(((k, label or f"S{k}"),))


def cp(n: int, prefix: str = "cp") -> CellComplex:
    """Complex projective n-space: one cell in each even dimension 2..2n."""
    return CellComplex(tuple((2 * i, f"{prefix}{2 * i}") for i in range(1, n + 1)))


def suspend(c: CellComplex, k: int) -> CellComplex:
    if k < 0:
        raise CellError("suspension count must be >= 0")
    if k == 0:
        return c
    return CellComplex(tuple((dim + k, f"S^{k}({lab})") for dim, lab in c.cells))


def smash(a: CellComplex, b: CellComplex) -> CellComplex:
    cells = tuple(
        (da + db, f"({la})^({lb})")
        for da, la in a.cells
        for db, lb in b.cells
    )
    return CellComplex(cells)


def min_cell_dim_excluding(c: CellComplex, excluded_labels) -> float:
    """Minimum dimension among the non-excluded cells (inf if none remain)."""
    excluded = set(excluded_labels)
    known = {lab for _, lab in c.cells}
    unknown = excluded - known
    if unknown:
        raise CellError(f"unknown labels: {sorted(unknown)}")
    remaining = [dim for dim, lab in c.cells if lab not in excluded]
    return min(remaining) if remaining else math.inf
