"""Finitely presented graded-commutative algebras over F2 with monomial basis.

A presentation lists generators (name, degree, height) plus a mandatory
total-degree cap; everything above the cap is discarded.  Height h means
g**h == 0 (h = 2 is an exterior generator, None is polynomial, silently
capped by the degree cap).

A monomial is its exponent tuple, aligned with the declared generator
order, which also fixes the deterministic basis order: ascending
exponent tuple.  `Algebra.monomial_str` is its one text form.

A homogeneous class is its terms: its monomials in canonical order, a
tuple, read from text by `parse_terms`.  Rows over `basis(d)`, the
`gf2` format, are made only where a rank is taken
(`steenrod.SteenrodAction.sq`).

`basis(d)` filters the walk up to d, and no report reads it.  The
Poincare series and cup-length read the generators alone, so a report
on a large exterior algebra walks none of its 2^n monomials.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, gt, mul as times
from typing import Iterable


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

    def basis(self, degree: int) -> tuple[tuple[int, ...], ...]:
        """All monomials of exactly this total degree, in canonical order."""
        if not 0 <= degree <= self.degree_cap:
            raise AlgebraError(
                f"degree {degree} out of range [0, {self.degree_cap}]"
            )
        return tuple(m for m, d in self.walk(cap=degree) if d == degree)

    def walk(
        self, among: list[int] | None = None, cap: int | None = None
    ) -> list[tuple[tuple[int, ...], int]]:
        """(exponents, degree) of every monomial up to `cap` (default: the
        algebra's) in the generators `among` (default: all), ascending.
        Exponent vectors grow one generator at a time, pruned by the degree
        left; extending a sorted list with ascending exponents keeps it
        sorted, and so does filling in the other generators' zeros."""
        cap = self.degree_cap if cap is None else cap
        among = range(len(self._degrees)) if among is None else among
        partial = [((), 0)]
        for i in among:
            d, max_e = self._degrees[i], self._max_exp[i]
            partial = [
                (exps + (e,), degree + e * d)
                for exps, degree in partial
                for e in range(min(max_e, (cap - degree) // d) + 1)
            ]
        if len(among) == len(self._degrees):
            return partial
        full = [0] * len(self._degrees)
        out = []
        for exps, degree in partial:
            for i, e in zip(among, exps):
                full[i] = e
            out.append((tuple(full), degree))
        return out

    def poincare_series(self) -> list[int]:
        """dim per degree, 0..degree_cap, as a new list."""
        return list(self._series)

    @cached_property
    def _series(self) -> list[int]:
        """The product over the generators of 1 + t^d + ... + t^(d e), e
        the generator's exponent bound, truncated at the cap."""
        series = [1] + [0] * self.degree_cap
        for d, max_e in zip(self._degrees, self._max_exp):
            new = series[:]
            for shift in range(d, d * max_e + 1, d):
                new[shift:] = map(add, new[shift:], series)
            series = new
        return series

    def cup_length(self, cap: int | None = None) -> int:
        """Largest m with a nonzero product of m positive-degree classes,
        of degree at most `cap` (default: the algebra's cap).

        In a monomial algebra this is the largest exponent sum of a
        nonzero monomial, which a greedy finds, smallest degree first.
        Exchange argument: a monomial of exponent sum m picks m factors
        from the multiset with e copies of d per generator (degree d,
        exponent bound e), with degree sum at most the cap; the m smallest
        factors sum to no more.  So m is largest when the smallest factors
        are taken first while they fit.
        """
        room, count = self.degree_cap if cap is None else cap, 0
        for d, max_e in sorted(zip(self._degrees, self._max_exp)):
            e = min(max_e, room // d)
            room -= e * d
            count += e
        return count

    # -- terms ------------------------------------------------------------

    def parse_terms(
        self, monomial_texts: Iterable[str], degree: int, capped: bool = True
    ) -> tuple[tuple[int, ...], ...]:
        """The sum of the monomials, each of this degree, as its terms in
        canonical order: a monomial given twice cancels.  `capped` is as
        in `parse_monomial`."""
        terms = set()
        for text in monomial_texts:
            mono = self.parse_monomial(text, capped)
            if self.monomial_degree(mono) != degree:
                raise AlgebraError(f"value not homogeneous of degree {degree}")
            terms ^= {mono}
        return tuple(sorted(terms))

    # -- monomial arithmetic ----------------------------------------------

    def _mul_exps(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
        """Product of two monomials; None if it dies (height or cap).  An
        exponent past its bound dies by height or puts the degree past
        the cap."""
        out = tuple(map(add, a, b))
        if any(map(gt, out, self._max_exp)):
            return None
        return None if sum(map(times, out, self._degrees)) > self.degree_cap else out

    def monomial_degree(self, exps: tuple[int, ...]) -> int:
        return sum(map(times, exps, self._degrees))

    def monomial_str(self, exps: tuple[int, ...]) -> str:
        """'x3^2*x5' (or '1' for the unit); `parse_monomial` reads it back."""
        parts = [
            g.name if e == 1 else f"{g.name}^{e}"
            for g, e in zip(self.generators, exps)
            if e
        ]
        return "*".join(parts) if parts else "1"

    def parse_monomial(self, text: str, capped: bool = True) -> tuple[int, ...]:
        """Parse 'x3^2*x5' (or '1' for the unit); a monomial past the cap
        is refused unless `capped` is false."""
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
        if capped and degree > self.degree_cap:
            raise AlgebraError(f"{text!r}: degree {degree} above cap {self.degree_cap}")
        return mono
