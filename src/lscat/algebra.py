"""Finitely presented graded-commutative algebras over F2 with monomial basis.

A presentation lists generators (name, degree, height) plus a mandatory
total-degree cap; everything above the cap is discarded.  Height h means
g**h == 0 (h = 2 is an exterior generator, None is polynomial, silently
capped by the degree cap).

A monomial is its exponent tuple, aligned with the declared generator
order, which also fixes the deterministic basis order: ascending
exponent tuple.  `Algebra.monomial_str` is its one text form.

A homogeneous class of degree d is a row: an int over `basis(d)`, bit i
the coefficient of the i-th monomial (`Algebra.index`), the row format
of `gf2` and of the spectral-sequence pages.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator


class AlgebraError(ValueError):
    pass


class Record:
    """Base of the package's slotted records, which compare field by field.

    Every record type of the package is a plain class: a dataclass or
    NamedTuple takes far longer to define, and each is defined at every
    import of the package.  A record has `__slots__` unless a
    `cached_property` needs its `__dict__`, and derives from `Record` only
    where records are compared."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)


class Generator(Record):
    __slots__ = ("name", "degree", "height")

    def __init__(self, name: str, degree: int, height: int | None = None):
        self.name = name
        self.degree = degree
        self.height = height  # None = polynomial (unbounded)


class AlgebraPresentation(Record):
    __slots__ = ("generators", "degree_cap")

    def __init__(self, generators: Iterable[Generator], degree_cap: int):
        self.generators: tuple[Generator, ...] = tuple(generators)
        self.degree_cap = degree_cap
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

    def top_degree(self) -> int | None:
        """Degree of the top monomial, the sum of d (h - 1) over the
        generators, before any cap; None when a generator is polynomial."""
        if any(g.height is None for g in self.generators):
            return None
        return sum(g.degree * (g.height - 1) for g in self.generators)


class Algebra:
    """Arithmetic in the monomial basis of one presentation.  Immutable."""

    def __init__(self, presentation: AlgebraPresentation):
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
    def _basis_by_degree(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
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
        buckets: list[list[tuple[int, ...]]] = [[] for _ in range(cap + 1)]
        for exps, degree in partial:
            buckets[degree].append(exps)
        return tuple(tuple(b) for b in buckets)

    def basis(self, degree: int) -> tuple[tuple[int, ...], ...]:
        """All monomials of exactly this total degree, in canonical order."""
        if not 0 <= degree <= self.degree_cap:
            raise AlgebraError(f"degree {degree} out of range [0, {self.degree_cap}]")
        return self._basis_by_degree[degree]

    def monomials(self) -> Iterator[tuple[int, ...]]:
        for d in range(self.degree_cap + 1):
            yield from self.basis(d)

    def poincare_series(self) -> list[int]:
        """dim per degree, 0..degree_cap."""
        return list(map(len, self._basis_by_degree))

    def cup_length(self) -> int:
        """Largest m with a nonzero product of m positive-degree classes.

        In a monomial algebra this is the largest exponent sum among
        nonzero monomials.
        """
        return max(sum(m) for m in self.monomials())

    # -- rows ---------------------------------------------------------------

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """Each monomial's bit in a row over the basis of its degree."""
        return {m: i for b in self._basis_by_degree for i, m in enumerate(b)}

    def terms(self, row: int, degree: int) -> list[tuple[int, ...]]:
        """The monomials of a row over `basis(degree)`, in canonical order."""
        basis = self.basis(degree)
        out = []
        while row:
            low = row & -row
            out.append(basis[low.bit_length() - 1])
            row ^= low
        return out

    def mul(self, a: int, da: int, b: int, db: int) -> int:
        """Product of rows over `basis(da)` and `basis(db)`: a row over
        `basis(da + db)`, zero above the cap."""
        if not (a and b) or da + db > self.degree_cap:
            return 0
        index = self.index
        out = 0
        ys = self.terms(b, db)
        for x in self.terms(a, da):
            for y in ys:
                p = self._mul_exps(x, y)
                if p is not None:
                    out ^= 1 << index[p]
        return out

    def row_str(self, row: int, degree: int) -> str:
        """'x7 + x3^2*x5' (or '0'); `parse_row` reads it back."""
        terms = self.terms(row, degree)
        return " + ".join(map(self.monomial_str, terms)) if terms else "0"

    def parse_row(self, monomial_texts: Iterable[str], degree: int) -> int:
        """The sum of the monomials, a row over `basis(degree)`."""
        row = 0
        for text in monomial_texts:
            mono = self.parse_monomial(text)
            if self.monomial_degree(mono) != degree:
                raise AlgebraError(f"value not homogeneous of degree {degree}")
            row ^= 1 << self.index[mono]
        return row

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

    def monomial_str(self, exps: tuple[int, ...]) -> str:
        """'x3^2*x5' (or '1' for the unit); `parse_monomial` reads it back."""
        parts = [
            g.name if e == 1 else f"{g.name}^{e}"
            for g, e in zip(self.generators, exps)
            if e
        ]
        return "*".join(parts) if parts else "1"

    def parse_monomial(self, text: str) -> tuple[int, ...]:
        """Parse 'x3^2*x5' (or '1' for the unit)."""
        exps = [0] * len(self.generators)
        text = text.strip()
        if text != "1":
            for factor in text.split("*"):
                factor = factor.strip()
                name, caret, power = factor.partition("^")
                if name not in self._index:
                    raise AlgebraError(f"unknown generator {name!r} in {text!r}")
                if caret and not power.strip().isdecimal():
                    raise AlgebraError(f"{text!r}: exponent {power!r} is not a natural number")
                exps[self._index[name]] += int(power) if caret else 1
        for g, e in zip(self.generators, exps):
            if g.height is not None and e >= g.height:
                raise AlgebraError(f"{text!r}: exponent of {g.name} too high")
        mono = tuple(exps)
        degree = self.monomial_degree(mono)
        if degree > self.degree_cap:
            raise AlgebraError(f"{text!r}: degree {degree} above cap {self.degree_cap}")
        return mono
