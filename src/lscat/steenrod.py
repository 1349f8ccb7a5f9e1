"""Steenrod square action on a presented F2-algebra.

The action is given on generators (only the nonzero values, for
1 <= k < |g|) and extended to monomials multiplicatively via the total
square Sq = sum_k Sq^k, i.e. the Cartan formula.  Sq^0 g = g and
Sq^{|g|} g = g^2 are implicit and never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from lscat import gf2
from lscat.algebra import Algebra, AlgebraError, Element


@dataclass
class SteenrodAction:
    algebra: Algebra
    table: dict[tuple[str, int], Element] = field(default_factory=dict)

    def __post_init__(self):
        self._sq_cache: dict[str, Element] = {}

    def total_square_of_gen(self, name: str) -> Element:
        """Sq(g) = g + (stored Sq^k g) + g^2, as one inhomogeneous element."""
        cached = self._sq_cache.get(name)
        if cached is not None:
            return cached
        g = self.algebra.gen(name)
        total = g + g * g
        deg = next(
            gen.degree for gen in self.algebra.generators if gen.name == name
        )
        for (gname, k), value in self.table.items():
            if gname == name and 1 <= k < deg:
                total = total + value
        self._sq_cache[name] = total
        return total

    def total_square(self, e: Element) -> Element:
        """Multiplicative extension of Sq to any element."""
        out = self.algebra.zero()
        for mono in e.terms:
            term = self.algebra.one()
            for gen, exp in zip(self.algebra.generators, mono):
                if exp:
                    sq_g = self.total_square_of_gen(gen.name)
                    for _ in range(exp):
                        term = term * sq_g
            out = out + term
        return out

    def apply_sq(self, k: int, e: Element) -> Element:
        """Sq^k on a homogeneous element."""
        if k < 0:
            raise AlgebraError("Sq^k needs k >= 0")
        if not e:
            return e
        if not e.is_homogeneous():
            raise AlgebraError("apply_sq needs a homogeneous element")
        if k == 0:
            return e
        return self.total_square(e).homogeneous_part(e.degree + k)

    def image_of_sq(self, k: int, target_degree: int) -> list[Element]:
        """Spanning set (reduced) of Sq^k(H^{target_degree-k}) in the target degree."""
        if not 0 <= target_degree <= self.algebra.degree_cap:
            raise AlgebraError("target degree out of range")
        source = target_degree - k
        if source < 0:
            return []
        ambient = {m: i for i, m in enumerate(self.algebra.basis(target_degree))}
        rows = []
        for mono in self.algebra.basis(source):
            img = self.apply_sq(k, self.algebra.element([mono]))
            if img:
                rows.append(sum(1 << ambient[e] for e in img.terms))
        basis_rows, _ = gf2.span_basis(rows, len(ambient))
        index = {i: exps for exps, i in ambient.items()}
        out = []
        for row in basis_rows:
            exps_list = [index[i] for i in range(len(ambient)) if (row >> i) & 1]
            out.append(self.algebra.element(exps_list))
        return out

    def verify_instability(self) -> list[str]:
        """Axiom check on the stored table; empty list = pass."""
        problems = []
        degrees = {g.name: g.degree for g in self.algebra.generators}
        for (name, k), value in sorted(self.table.items()):
            if name not in degrees:
                problems.append(f"Sq^{k} given on unknown generator {name!r}")
                continue
            d = degrees[name]
            if k < 1:
                problems.append(f"Sq^{k} {name}: k must be >= 1")
            elif k > d:
                problems.append(f"Sq^{k} {name}: k > degree {d}")
            elif k == d:
                if value != self.algebra.gen(name) * self.algebra.gen(name):
                    problems.append(f"Sq^{k} {name}: must equal {name}^2")
            if value and value.degree != d + k:
                problems.append(
                    f"Sq^{k} {name}: value not homogeneous of degree {d + k}"
                )
        return problems
