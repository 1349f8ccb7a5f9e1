"""Finitely presented graded-commutative algebras over F2 with monomial basis.

A presentation lists generators (name, degree, height) plus a mandatory
total-degree cap; everything above the cap is discarded.  Height h means
g**h == 0 (h = 2 is an exterior generator, None is polynomial, silently
capped by the degree cap).  Elements are finite sets of monomials; a
monomial present in the set has coefficient 1.

Monomials are stored as exponent tuples aligned with the declared
generator order, which also fixes the deterministic basis order:
ascending exponent tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    height: int | None = None  # None = polynomial (unbounded)


@dataclass(frozen=True)
class AlgebraPresentation:
    generators: tuple[Generator, ...]
    degree_cap: int

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise AlgebraError(f"duplicate generator names in {names}")
        for g in self.generators:
            if g.degree < 1:
                raise AlgebraError(f"generator {g.name}: degree must be >= 1")
            if g.height is not None and g.height < 2:
                raise AlgebraError(f"generator {g.name}: height must be >= 2")
        if self.degree_cap < 1:
            raise AlgebraError("degree_cap must be >= 1")


class Algebra:
    """Monomial-basis arithmetic for one presentation.  Immutable."""

    def __init__(self, presentation: AlgebraPresentation):
        self.presentation = presentation
        self.generators = presentation.generators
        self.degree_cap = presentation.degree_cap
        self._index = {g.name: i for i, g in enumerate(self.generators)}
        # Effective exponent bound: true height, or the cap-derived one.
        self._max_exp = tuple(
            min(
                (g.height - 1) if g.height is not None else self.degree_cap,
                self.degree_cap // g.degree,
            )
            for g in self.generators
        )
        self._degrees = tuple(g.degree for g in self.generators)

    # -- basis ------------------------------------------------------------

    @cached_property
    def _basis_by_degree(self) -> tuple[tuple["Monomial", ...], ...]:
        """Every monomial up to the cap, bucketed by degree, in canonical order.

        Exponent vectors grow one generator at a time, pruned by the degree
        left under the cap; extending a sorted list with ascending exponents
        keeps it sorted, so each bucket is already in ascending-tuple order.
        """
        cap = self.degree_cap
        partial = [((), 0)]
        for d, max_e in zip(self._degrees, self._max_exp):
            partial = [
                (exps + (e,), degree + e * d)
                for exps, degree in partial
                for e in range(min(max_e, (cap - degree) // d) + 1)
            ]
        buckets: list[list[Monomial]] = [[] for _ in range(cap + 1)]
        for exps, degree in partial:
            buckets[degree].append(Monomial(self, exps))
        return tuple(tuple(b) for b in buckets)

    def basis(self, degree: int) -> tuple["Monomial", ...]:
        """All monomials of exactly this total degree, in canonical order."""
        if not 0 <= degree <= self.degree_cap:
            raise AlgebraError(f"degree {degree} out of range [0, {self.degree_cap}]")
        return self._basis_by_degree[degree]

    def monomials(self) -> Iterator["Monomial"]:
        for d in range(self.degree_cap + 1):
            yield from self.basis(d)

    def poincare_series(self) -> list[int]:
        """dim per degree, 0..degree_cap."""
        return [len(self.basis(d)) for d in range(self.degree_cap + 1)]

    def total_dimension(self) -> int:
        return sum(self.poincare_series())

    def cup_length(self) -> int:
        """Largest m with a nonzero product of m positive-degree classes.

        In a monomial algebra this is the largest exponent sum among
        nonzero monomials.
        """
        return max(sum(m.exps) for m in self.monomials())

    # -- element constructors ---------------------------------------------

    def zero(self) -> "Element":
        return Element(self, frozenset())

    def one(self) -> "Element":
        return Element(self, frozenset({(0,) * len(self.generators)}))

    def gen(self, name: str) -> "Element":
        if name not in self._index:
            raise AlgebraError(f"unknown generator {name!r}")
        exps = [0] * len(self.generators)
        exps[self._index[name]] = 1
        return Element(self, frozenset({tuple(exps)}))

    def element(self, monomials: Iterable["Monomial | tuple[int, ...]"]) -> "Element":
        terms = set()
        for m in monomials:
            exps = m.exps if isinstance(m, Monomial) else tuple(m)
            terms ^= {exps}
        return Element(self, frozenset(terms))

    # -- monomial arithmetic ----------------------------------------------

    def _mul_exps(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
        """Product of two monomials; None if it dies (height or cap)."""
        out = []
        degree = 0
        for i, (ea, eb) in enumerate(zip(a, b)):
            e = ea + eb
            g = self.generators[i]
            if g.height is not None and e >= g.height:
                return None
            degree += e * g.degree
            out.append(e)
        if degree > self.degree_cap:
            return None
        return tuple(out)

    def monomial_degree(self, exps: tuple[int, ...]) -> int:
        return sum(e * d for e, d in zip(exps, self._degrees))

    def parse_monomial(self, text: str) -> "Monomial":
        """Parse 'x3^2*x5' (or '1' for the unit)."""
        exps = [0] * len(self.generators)
        text = text.strip()
        if text != "1":
            for factor in text.split("*"):
                factor = factor.strip()
                name, _, power = factor.partition("^")
                if name not in self._index:
                    raise AlgebraError(f"unknown generator {name!r} in {text!r}")
                exps[self._index[name]] += int(power) if power else 1
        mono = Monomial(self, tuple(exps))
        for i, e in enumerate(exps):
            if e > self._max_exp[i]:
                raise AlgebraError(f"{text!r}: exponent of {self.generators[i].name} too high")
        if mono.degree > self.degree_cap:
            raise AlgebraError(f"{text!r}: degree {mono.degree} above cap")
        return mono

    def parse_element(self, monomial_texts: Iterable[str]) -> "Element":
        return self.element(self.parse_monomial(t) for t in monomial_texts)


@dataclass(frozen=True)
class Monomial:
    algebra: Algebra = field(compare=False, repr=False)
    exps: tuple[int, ...] = ()

    @property
    def exponents(self) -> dict[str, int]:
        return {
            g.name: e for g, e in zip(self.algebra.generators, self.exps) if e
        }

    @property
    def degree(self) -> int:
        return self.algebra.monomial_degree(self.exps)

    def __str__(self) -> str:
        return format_exps(self.algebra.generators, self.exps)


def format_exps(generators, exps) -> str:
    parts = [
        g.name if e == 1 else f"{g.name}^{e}"
        for g, e in zip(generators, exps)
        if e
    ]
    return "*".join(parts) if parts else "1"


class Element:
    """F2-linear combination of monomials of one algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: frozenset):
        self.algebra = algebra
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(self.terms)

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, self.terms ^ other.terms)

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        acc: set = set()
        for a in self.terms:
            for b in other.terms:
                p = self.algebra._mul_exps(a, b)
                if p is not None:
                    acc ^= {p}
        return Element(self.algebra, frozenset(acc))

    def _check(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise AlgebraError("elements of different algebras")

    @property
    def monomials(self) -> list[Monomial]:
        return [Monomial(self.algebra, e) for e in sorted(self.terms)]

    def is_homogeneous(self) -> bool:
        degs = {self.algebra.monomial_degree(e) for e in self.terms}
        return len(degs) <= 1

    @property
    def degree(self) -> int | None:
        """Total degree if homogeneous and nonzero, else None."""
        degs = {self.algebra.monomial_degree(e) for e in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def homogeneous_part(self, degree: int) -> "Element":
        return Element(
            self.algebra,
            frozenset(
                e for e in self.terms if self.algebra.monomial_degree(e) == degree
            ),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(m) for m in self.monomials)

    def __repr__(self) -> str:
        return f"<Element {self}>"
