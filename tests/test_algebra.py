"""Arithmetic of monomial algebras against independent series/product oracles."""

import itertools
import random
from collections import Counter

import pytest

from lscat import specseq
from lscat.algebra import (
    Algebra,
    AlgebraError,
    AlgebraPresentation,
    Generator,
)
from lscat.specseq import E2Cells
from reference import (
    cup_length_walk,
    lattice_walk,
    monomials,
    mul,
    parse_row,
    row_of,
    row_str,
    terms,
    total_dimension,
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
    assert total_dimension(alg) == 32
    assert len(alg.basis(32)) == 0
    b36 = alg.basis(36)
    assert len(b36) == 1
    assert alg.monomial_str(b36[0]) == "x3^3*x5*x7*x15"


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
        assert list(alg.basis(degree)) == want
    for bad in (-1, cap + 1):
        with pytest.raises(AlgebraError, match="out of range"):
            alg.basis(bad)


def monomial_row(alg, exps):
    """A monomial as (row, degree)."""
    return row_of(alg, exps), alg.monomial_degree(exps)


def graded(alg, monos):
    """The sum of `monos` as {degree: row}, zero parts left out."""
    out = {}
    for m in monos:
        row, d = monomial_row(alg, m)
        out[d] = out.get(d, 0) ^ row
    return {d: r for d, r in out.items() if r}


def graded_add(a, b):
    out = dict(a)
    for d, r in b.items():
        out[d] = out.get(d, 0) ^ r
    return {d: r for d, r in out.items() if r}


def graded_mul(alg, a, b):
    out = {}
    for da, ra in a.items():
        for db, rb in b.items():
            p = mul(alg, ra, da, rb, db)
            out[da + db] = out.get(da + db, 0) ^ p
    return {d: r for d, r in out.items() if r}


def test_cup_length_exhaustive_oracle():
    """Longest nonzero product of positive-degree classes, by brute force."""
    alg = spin9_algebra()
    positive = [
        monomial_row(alg, m) for m in monomials(alg) if alg.monomial_degree(m) > 0
    ]
    gens = [monomial_row(alg, alg.parse_monomial(g.name)) for g in alg.generators]
    best = 0
    frontier = [monomial_row(alg, alg.parse_monomial("1"))]
    while frontier:
        nxt = []
        for e, de in frontier:
            for g, dg in gens:
                p = mul(alg, e, de, g, dg)
                if p:
                    nxt.append((p, de + dg))
        if not nxt:
            break
        best += 1
        frontier = nxt
    assert best == alg.cup_length() == 6
    # products of arbitrary positive classes cannot do better
    for (a, da), (b, db) in itertools.combinations(gens, 2):
        assert mul(alg, a, da, b, db) or True  # smoke: multiplication total
    for p, d in positive:
        if d >= 10:
            p2 = mul(alg, p, d, p, d)
            assert not mul(alg, mul(alg, p2, 2 * d, p, d), 3 * d, p, d)


def test_ring_axioms_randomized():
    """On the graded sums of random monomial sets, split into rows."""
    alg = spin9_algebra()
    monos = list(monomials(alg))
    rng = random.Random(7)
    one = graded(alg, [alg.parse_monomial("1")])

    def rand_elem():
        return graded(alg, rng.sample(monos, rng.randint(0, 5)))

    def times(a, b):
        return graded_mul(alg, a, b)

    for _ in range(1000):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert times(a, b) == times(b, a)
        assert times(times(a, b), c) == times(a, times(b, c))
        assert times(a, graded_add(b, c)) == graded_add(times(a, b), times(a, c))
        assert graded_add(a, a) == {}
        assert times(a, one) == a


def test_degree_additivity():
    """The product of two monomial rows is the row of the product monomial,
    in the sum of the degrees."""
    alg = spin9_algebra()
    monos = [m for m in monomials(alg) if alg.monomial_degree(m) > 0]
    for a in monos:
        for b in monos:
            (ra, da), (rb, db) = monomial_row(alg, a), monomial_row(alg, b)
            p = mul(alg, ra, da, rb, db)
            if p:
                exps = tuple(x + y for x, y in zip(a, b))
                assert terms(alg, p, da + db) == [exps]
                assert alg.monomial_degree(exps) == da + db


def test_heights_enforced():
    alg = spin9_algebra()
    x3, x5 = parse_row(alg, ["x3"], 3), parse_row(alg, ["x5"], 5)
    x3_2 = mul(alg, x3, 3, x3, 3)
    x3_3 = mul(alg, x3_2, 6, x3, 3)
    assert not mul(alg, x3_3, 9, x3, 3)  # height 4
    assert not mul(alg, x5, 5, x5, 5)  # exterior
    assert x3_3


def test_parse_round_trip():
    alg = spin9_algebra()
    for m in monomials(alg):
        assert alg.parse_monomial(alg.monomial_str(m)) == m
    e = parse_row(alg, ["x3*x5*x7", "x15"], 15)
    # canonical term order is ascending exponent tuple: x15 = (0,0,0,1) first
    assert row_str(alg, e, 15) == "x15 + x3*x5*x7"
    assert parse_row(alg, [], 15) == 0
    assert row_str(alg, 0, 15) == "0"
    assert alg.monomial_degree(alg.parse_monomial("1")) == 0
    # every row of every degree reads back from its text form
    for d in range(alg.degree_cap + 1):
        for row in range(1, 1 << len(alg.basis(d))):
            assert parse_row(alg, row_str(alg, row, d).split(" + "), d) == row


def test_parse_row_checks_degree():
    """A row is homogeneous: the old mixed-degree sum x3^2*x5 + x7 is
    rejected in either degree."""
    alg = spin9_algebra()
    for degree in (7, 11):
        with pytest.raises(AlgebraError, match="not homogeneous of degree"):
            parse_row(alg, ["x3^2*x5", "x7"], degree)


def test_parse_terms_cancels_and_sorts():
    """A value is the sum of its monomials mod 2, as its terms in
    canonical order: a monomial given twice, in either spelling, cancels,
    and a monomial of another degree fails even where a pair cancels."""
    alg = spin9_algebra()
    x15, x3x5x7 = (0, 0, 0, 1), (1, 1, 1, 0)
    assert alg.parse_terms(["x3*x5*x7", "x15"], 15) == (x15, x3x5x7)
    assert alg.parse_terms(["x15", "x3*x5*x7", "x15"], 15) == (x3x5x7,)
    assert alg.parse_terms(["x3^2", "x3*x3", "x3^2"], 6) == ((2, 0, 0, 0),)
    assert alg.parse_terms(["x7", "x7"], 7) == ()
    assert alg.parse_terms([], 15) == ()
    with pytest.raises(AlgebraError, match="not homogeneous of degree 15"):
        alg.parse_terms(["x15", "x15", "x7"], 15)


def test_parse_errors():
    alg = spin9_algebra()
    with pytest.raises(AlgebraError):
        alg.parse_monomial("y3")
    with pytest.raises(AlgebraError):
        alg.parse_monomial("x5^2")  # above height
    with pytest.raises(AlgebraError):
        alg.parse_monomial("x15^2*x3^3")  # above cap
    for text in ("x3^-1*x5", "x3^a", "x3^*x5"):
        with pytest.raises(AlgebraError, match="is not a natural number"):
            alg.parse_monomial(text)


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
    assert total_dimension(alg) == 1
    assert alg.cup_length() == 0


def random_presentation(rng: random.Random) -> AlgebraPresentation:
    """Up to 9 generators of degree 1..7, each exterior, truncated (height
    3 or 4) or polynomial, under a cap from 1 to past the top degree (or
    to 40 when a generator is polynomial)."""
    gens = tuple(
        Generator(f"g{i}", rng.randint(1, 7), rng.choice((2, 2, 3, 4, None)))
        for i in range(rng.randint(0, 9))
    )
    top = AlgebraPresentation(gens, 1).top_degree()
    return AlgebraPresentation(gens, rng.randint(1, 40 if top is None else top + 5))


def test_per_degree_bases_match_the_lattice_walk(monkeypatch):
    """On 300 seeded random presentations, and on `unit`'s empty one: each
    degree's basis, read in a random order, is the whole-lattice walk's
    bucket in the same order; the Poincare series is the bucket lengths;
    the greedy cup-length is the walk's largest exponent sum, under the
    algebra's cap and under a random lower one; E2's cell widths over the
    algebra are the counts of the walk's bidegrees, its cells read one
    degree at a time the same monomials, with no walk of E2; and E2's
    classes and labels at that lower number as column cap are the walk's
    monomials in those columns, and their `monomial_str` texts."""
    walks = []
    real_walk = specseq._walk_cells
    monkeypatch.setattr(
        specseq, "_walk_cells", lambda *args: walks.append(1) or real_walk(*args)
    )
    rng = random.Random(29)
    presentations = [random_presentation(rng) for _ in range(300)]
    presentations.append(AlgebraPresentation((), 1))
    for pres in presentations:
        alg = Algebra(pres)
        walk = lattice_walk(Algebra(pres))
        degrees = list(range(pres.degree_cap + 1))
        rng.shuffle(degrees)
        assert all(alg.basis(d) == walk[d] for d in degrees), pres.generators
        assert alg.poincare_series() == [len(b) for b in walk]
        assert alg.cup_length() == cup_length_walk(alg)
        cap = rng.randint(0, pres.degree_cap)
        assert alg.cup_length(cap) == max(sum(m) for b in walk[: cap + 1] for m in b)
        cells = Counter()
        for bucket in walk:
            for exps in bucket:
                s = sum(exps)
                cells[(s, alg.monomial_degree(exps) - s)] += 1
        e2 = E2Cells(Algebra(pres), pres.degree_cap)
        classes = e2.classes(None)
        assert {k: len(c) for k, c in classes.items()} == dict(cells)
        # A cell read per degree is the walk's, with no walk of E2.
        fresh = E2Cells(Algebra(pres), pres.degree_cap)
        walks.clear()
        for (s, t), width in cells.items():
            want = [classes[(s, t)][i][0] for i in range(width)]
            assert want == list(fresh.cell(s, t))
        assert walks == []
        # Pruned at a column cap, the walk keeps those columns whole.
        kept = {key: c for key, c in classes.items() if key[0] <= cap}
        assert fresh.classes(cap) == kept
        assert fresh.labels(cap) == {
            key: [alg.monomial_str(m) for (m,) in c] for key, c in kept.items()
        }
