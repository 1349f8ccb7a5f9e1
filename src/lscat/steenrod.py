"""Steenrod square action on a presented F2-algebra.

The action is given on generators (only the nonzero values, for
1 <= k < |g|, each a row over the basis of degree |g| + k) and extended
to monomials by the Cartan formula.  Sq^0 g = g and Sq^{|g|} g = g^2 are
implicit and never stored.  Sq^k on degree d is a matrix, read as its
rows: row i is Sq^k of the i-th basis monomial, over `basis(d + k)`.
The rows are kept per monomial, for every k at once.
"""

from __future__ import annotations

from functools import cached_property

from lscat import gf2
from lscat.algebra import Algebra, AlgebraError


class SteenrodAction:
    """`table` maps (generator name, k) to Sq^k of that generator of
    `algebra`, a row over the basis of degree |g| + k."""

    def __init__(
        self, algebra: Algebra, table: dict[tuple[str, int], int] | None = None
    ):
        self.algebra = algebra
        self.table = {} if table is None else table
        self._squares: dict[tuple[int, ...], tuple[int, ...]] = {}

    @cached_property
    def _gen_squares(self) -> list[list[tuple[int, int]]]:
        """The nonzero (j, Sq^j g) of each generator g: g itself, the
        stored values for 0 < j < |g|, and g^2."""
        alg = self.algebra
        n = len(alg.generators)
        out = []
        for i, g in enumerate(alg.generators):
            gen = 0  # g is above the cap
            if g.degree <= alg.degree_cap:
                gen = 1 << alg.index(g.degree)[tuple(int(m == i) for m in range(n))]
            rows = [(0, gen), (g.degree, alg.mul(gen, g.degree, gen, g.degree))]
            rows += [(j, self.table.get((g.name, j), 0)) for j in range(1, g.degree)]
            out.append([(j, row) for j, row in rows if row])
        return out

    def squares(self, mono: tuple[int, ...]) -> tuple[int, ...]:
        """Sq^k of a monomial of degree d for k = 0..d, each a row over
        `basis(d + k)` (zero above the cap), kept per monomial.

        Cartan recursion: a monomial is g * rest for its first generator
        g, and Sq^k(g rest) = sum_j Sq^j g * Sq^(k-j) rest.
        """
        out = self._squares.get(mono)
        if out is None:
            alg = self.algebra
            i = next((n for n, e in enumerate(mono) if e), None)
            if i is None:
                out = (1,)  # the unit
            else:
                g = alg.generators[i].degree
                rest = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
                rest_degree = alg.monomial_degree(rest)
                rows = [0] * (g + rest_degree + 1)
                for k, b in enumerate(self.squares(rest)):
                    if not b:
                        continue
                    for j, a in self._gen_squares[i]:
                        rows[j + k] ^= alg.mul(a, g + j, b, rest_degree + k)
                out = tuple(rows)
            self._squares[mono] = out
        return out

    def sq(self, k: int, degree: int) -> tuple[int, ...]:
        """Sq^k on degree `degree`, as matrix rows: row i is Sq^k of
        `basis(degree)[i]`, over `basis(degree + k)`."""
        if k < 0:
            raise AlgebraError("Sq^k needs k >= 0")
        if k > degree:
            return (0,) * len(self.algebra.basis(degree))
        return tuple(self.squares(m)[k] for m in self.algebra.basis(degree))

    def image_of_sq(self, k: int, target_degree: int) -> list[int]:
        """RREF basis of Sq^k(H^{target_degree-k}), rows over the target basis."""
        if not 0 <= target_degree <= self.algebra.degree_cap:
            raise AlgebraError("target degree out of range")
        source = target_degree - k
        if source < 0:
            return []
        ncols = len(self.algebra.basis(target_degree))
        return gf2.span_basis(list(self.sq(k, source)), ncols)[0]

    def verify_instability(self) -> list[str]:
        """Axiom check on the stored table; empty list = pass."""
        problems = []
        for (name, k), value in sorted(self.table.items()):
            i = self.algebra._index[name]
            d = self.algebra.generators[i].degree
            if k < 1:
                problems.append(f"Sq^{k} {name}: k must be >= 1")
            elif k > d:
                problems.append(f"Sq^{k} {name}: k > degree {d}")
            elif k == d and value != dict(self._gen_squares[i]).get(d, 0):
                problems.append(f"Sq^{k} {name}: must equal {name}^2")
        return problems
