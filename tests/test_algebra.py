"""Monomial algebra arithmetic against independent series/product oracles."""

import itertools
import random

import pytest

from lscat.algebra import (
    Algebra,
    AlgebraError,
    AlgebraPresentation,
    Generator,
)


def spin9_algebra() -> Algebra:
    return Algebra(
        AlgebraPresentation(
            (
                Generator("x3", 3, 4),
                Generator("x5", 5, 2),
                Generator("x7", 7, 2),
                Generator("x15", 15, 2),
            ),
            36,
        )
    )


def series_oracle(gens, cap):
    """Poincare series by polynomial convolution, one generator at a time."""
    dims = [0] * (cap + 1)
    dims[0] = 1
    for g in gens:
        max_e = (g.height - 1) if g.height is not None else cap // g.degree
        new = [0] * (cap + 1)
        for d in range(cap + 1):
            if not dims[d]:
                continue
            for e in range(max_e + 1):
                dd = d + e * g.degree
                if dd > cap:
                    break
                new[dd] += dims[d]
        dims = new
    return dims


def test_poincare_series_oracle():
    alg = spin9_algebra()
    assert alg.poincare_series() == series_oracle(alg.generators, 36)


def test_spin9_dimensions():
    alg = spin9_algebra()
    assert alg.total_dimension() == 32
    assert len(alg.basis(32)) == 0
    b36 = alg.basis(36)
    assert len(b36) == 1
    assert str(b36[0]) == "x3^3*x5*x7*x15"


def test_basis_matches_brute_force():
    """Every monomial of each degree, in ascending exponent order."""
    gens = (
        Generator("a2", 2, None),
        Generator("b3", 3, 4),
        Generator("c5", 5, 2),
        Generator("d4", 4, None),
    )
    cap = 23
    alg = Algebra(AlgebraPresentation(gens, cap))
    bounds = [
        range(min(g.height - 1 if g.height else cap, cap // g.degree) + 1)
        for g in gens
    ]
    for degree in range(cap + 1):
        want = [
            exps
            for exps in itertools.product(*bounds)
            if sum(e * g.degree for e, g in zip(exps, gens)) == degree
        ]
        assert [m.exps for m in alg.basis(degree)] == want
    for bad in (-1, cap + 1):
        with pytest.raises(AlgebraError, match="out of range"):
            alg.basis(bad)


def test_cup_length_exhaustive_oracle():
    """Longest nonzero product of positive-degree classes, by brute force."""
    alg = spin9_algebra()
    positive = [
        alg.element([m]) for m in alg.monomials() if m.degree > 0
    ]
    gens = [alg.gen(g.name) for g in alg.generators]
    best = 0
    frontier = [alg.one()]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                p = e * g
                if p:
                    nxt.append(p)
        if not nxt:
            break
        best += 1
        frontier = nxt
    assert best == alg.cup_length() == 6
    # products of arbitrary positive classes cannot do better
    for combo in itertools.combinations(gens, 2):
        assert (combo[0] * combo[1]) or True  # smoke: multiplication total
    assert all(not (p * p * p * p) for p in positive if p.degree >= 10)


def test_ring_axioms_randomized():
    alg = spin9_algebra()
    monos = list(alg.monomials())
    rng = random.Random(7)

    def rand_elem():
        return alg.element(rng.sample(monos, rng.randint(0, 5)))

    for _ in range(1000):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + a == alg.zero()
        assert a * alg.one() == a


def test_degree_additivity():
    alg = spin9_algebra()
    monos = [m for m in alg.monomials() if m.degree > 0]
    for a in monos:
        for b in monos:
            p = alg.element([a]) * alg.element([b])
            if p:
                assert p.degree == a.degree + b.degree


def test_heights_enforced():
    alg = spin9_algebra()
    x3, x5 = alg.gen("x3"), alg.gen("x5")
    assert not (x3 * x3 * x3 * x3)  # height 4
    assert not (x5 * x5)  # exterior
    assert x3 * x3 * x3


def test_parse_round_trip():
    alg = spin9_algebra()
    for m in alg.monomials():
        assert alg.parse_monomial(str(m)).exps == m.exps
    e = alg.parse_element(["x3^2*x5", "x7"])
    # canonical term order is ascending exponent tuple: x7 = (0,0,1,0) first
    assert str(e) == "x7 + x3^2*x5"
    assert alg.parse_element([]) == alg.zero()
    assert alg.parse_monomial("1").degree == 0


def test_parse_errors():
    alg = spin9_algebra()
    with pytest.raises(AlgebraError):
        alg.parse_monomial("y3")
    with pytest.raises(AlgebraError):
        alg.parse_monomial("x5^2")  # above height
    with pytest.raises(AlgebraError):
        alg.parse_monomial("x15^2*x3^3")  # above cap


def test_presentation_validation():
    with pytest.raises(AlgebraError):
        AlgebraPresentation((Generator("a", 0),), 10)
    with pytest.raises(AlgebraError):
        AlgebraPresentation((Generator("a", 2), Generator("a", 3)), 10)
    with pytest.raises(AlgebraError):
        AlgebraPresentation((Generator("a", 2, 1),), 10)
    with pytest.raises(AlgebraError):
        AlgebraPresentation((), 0)


def test_trivial_algebra():
    alg = Algebra(AlgebraPresentation((), 1))
    assert alg.total_dimension() == 1
    assert alg.cup_length() == 0
