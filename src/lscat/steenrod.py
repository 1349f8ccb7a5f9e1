"""Steenrod square action on a presented F2-algebra.

The action is given on generators (only the nonzero values, for
1 <= k < |g|, each as its terms, the monomials of degree |g| + k in
canonical order) and extended to monomials by the Cartan formula.  Sq^0
g = g and Sq^{|g|} g = g^2 are implicit and never stored.  The squares
of a monomial are kept as their terms too, for every k at once, and the
Cartan recursion multiplies terms (exponent tuples), so squaring builds
no basis.  Rows are made only where a rank is taken: Sq^k on degree d
is a matrix, read as its rows (`sq`), row i Sq^k of the i-th basis
monomial over `basis(d + k)`, and `image_of_sq` reduces them.
"""

from __future__ import annotations

from functools import cached_property

from lscat import gf2
from lscat.algebra import Algebra, AlgebraError

Terms = tuple[tuple[int, ...], ...]


class SteenrodAction:
    """`table` maps (generator name, k) to Sq^k of that generator of
    `algebra`, as its terms in canonical order."""

    def __init__(
        self, algebra: Algebra, table: dict[tuple[str, int], Terms] | None = None
    ):
        self.algebra = algebra
        self.table = {} if table is None else table
        self._squares: dict[tuple[int, ...], tuple[Terms, ...]] = {}

    @cached_property
    def _gen_squares(self) -> list[list[tuple[int, Terms]]]:
        """The nonzero (j, Sq^j g) of each generator g, as terms, in
        ascending j: g itself, the table's values for 0 < j < |g|, and g^2."""
        alg = self.algebra
        n = len(alg.generators)
        out = []
        for i, g in enumerate(alg.generators):
            gen = (0,) * i + (1,) + (0,) * (n - i - 1)
            square = alg._mul_exps(gen, gen)
            out.append([(0, (gen,) if g.degree <= alg.degree_cap else ()),
                        (g.degree, (square,) if square else ())])
        for (name, j), terms in self.table.items():
            i = alg._index[name]
            if 0 < j < alg.generators[i].degree:
                out[i].append((j, terms))
        return [sorted((j, t) for j, t in per if t) for per in out]

    def squares(self, mono: tuple[int, ...]) -> tuple[Terms, ...]:
        """Sq^k of a monomial of degree d for k = 0..d, each as its terms
        in canonical order (none above the cap), kept per monomial.

        Cartan recursion: a monomial is g * rest for its first generator
        g, and Sq^k(g rest) = sum_j Sq^j g * Sq^(k-j) rest, where a
        product of terms that recurs cancels mod 2.
        """
        out = self._squares.get(mono)
        if out is None:
            alg = self.algebra
            i = next((n for n, e in enumerate(mono) if e), None)
            if i is None:
                out = ((mono,),)  # the unit
            else:
                g = alg.generators[i].degree
                rest = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
                below = self.squares(rest)
                room = alg.degree_cap - alg.monomial_degree(mono)
                sums: dict[int, set] = {}
                for k, ys in enumerate(below[:room + 1]):
                    if not ys:
                        continue
                    for j, xs in self._gen_squares[i]:
                        if j + k > room:
                            break
                        here = sums.setdefault(j + k, set())
                        for x in xs:
                            for y in ys:
                                p = alg._mul_exps(x, y)
                                if p is not None:
                                    here ^= {p}
                out = [()] * (g + len(below))
                for k, s in sums.items():
                    out[k] = tuple(sorted(s))
                out = tuple(out)
            self._squares[mono] = out
        return out

    def sq(self, k: int, degree: int) -> tuple[int, ...]:
        """Sq^k on degree `degree`, as matrix rows: row i is Sq^k of
        `basis(degree)[i]`, over `basis(degree + k)`."""
        if k < 0:
            raise AlgebraError("Sq^k needs k >= 0")
        basis = self.algebra.basis(degree)
        if k > degree or degree + k > self.algebra.degree_cap:
            return (0,) * len(basis)
        index = {m: i for i, m in enumerate(self.algebra.basis(degree + k))}
        return tuple(sum(1 << index[t] for t in self.squares(m)[k]) for m in basis)

    def image_of_sq(self, k: int, target_degree: int) -> list[int]:
        """RREF basis of Sq^k(H^{target_degree-k}), rows over the target
        basis; empty, with no basis built, when the source degree has no
        cohomology."""
        if not 0 <= target_degree <= self.algebra.degree_cap:
            raise AlgebraError("target degree out of range")
        source, series = target_degree - k, self.algebra.poincare_series()
        if source < 0 or not series[source]:
            return []
        return gf2.span_basis(list(self.sq(k, source)), series[target_degree])[0]

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
            elif k == d and value != dict(self._gen_squares[i]).get(d, ()):
                problems.append(f"Sq^{k} {name}: must equal {name}^2")
        return problems
