"""Steenrod action: Cartan, instability, and the spin9 table."""

import random

import pytest

from lscat.algebra import AlgebraError
from lscat.spaces import builtin
from lscat.steenrod import SteenrodAction


@pytest.fixture(scope="module")
def spin9():
    sp = builtin("spin9")
    alg = sp.algebra()
    return alg, sp.action(alg)


def test_table_values(spin9):
    alg, action = spin9
    assert action.apply_sq(2, alg.gen("x3")) == alg.gen("x5")
    assert action.apply_sq(1, alg.gen("x5")) == alg.gen("x3") * alg.gen("x3")
    assert action.apply_sq(3, alg.gen("x3")) == alg.gen("x3") * alg.gen("x3")
    assert not action.apply_sq(1, alg.gen("x3"))
    assert action.apply_sq(0, alg.gen("x7")) == alg.gen("x7")


def test_cartan_formula(spin9):
    """Sq(ab) = Sq(a) Sq(b) on random pairs, componentwise."""
    alg, action = spin9
    monos = list(alg.monomials())
    rng = random.Random(11)
    for _ in range(300):
        a = alg.element(rng.sample(monos, rng.randint(1, 3)))
        b = alg.element(rng.sample(monos, rng.randint(1, 3)))
        assert action.total_square(a * b) == action.total_square(
            a
        ) * action.total_square(b)


def test_linearity(spin9):
    alg, action = spin9
    monos = list(alg.monomials())
    rng = random.Random(13)
    for _ in range(300):
        a = alg.element(rng.sample(monos, rng.randint(0, 4)))
        b = alg.element(rng.sample(monos, rng.randint(0, 4)))
        assert action.total_square(a + b) == action.total_square(
            a
        ) + action.total_square(b)


def test_top_square_is_squaring(spin9):
    alg, action = spin9
    for m in alg.monomials():
        e = alg.element([m])
        if alg.monomial_degree(m) == 0:
            continue
        assert action.apply_sq(alg.monomial_degree(m), e) == e * e


def test_sq1_sq1_zero(spin9):
    alg, action = spin9
    for m in alg.monomials():
        e = alg.element([m])
        if alg.monomial_degree(m) + 2 > alg.degree_cap:
            continue
        once = action.apply_sq(1, e)
        if once:
            assert not action.apply_sq(1, once)


def test_instability_passes(spin9):
    _, action = spin9
    assert action.verify_instability() == []


def test_instability_catches_bad_table(spin9):
    alg, _ = spin9
    bad = SteenrodAction(alg, {("x3", 5): alg.gen("x3") * alg.gen("x5")})
    assert any("k > degree" in p for p in bad.verify_instability())
    bad2 = SteenrodAction(alg, {("x3", 3): alg.gen("x3") * alg.gen("x3")})
    assert bad2.verify_instability() == []
    bad3 = SteenrodAction(alg, {("x3", 3): alg.gen("x3")})
    assert any("must equal" in p for p in bad3.verify_instability())


def test_image_of_sq(spin9):
    alg, action = spin9
    # Sq^2: H^3 -> H^5 hits x5.
    img = action.image_of_sq(2, 5)
    assert img == [alg.gen("x5")]
    # Sq^4: H^28 -> H^32 = 0, so the image is empty.
    assert action.image_of_sq(4, 32) == []
    # Sq^1: H^5 -> H^6 hits x3^2.
    assert action.image_of_sq(1, 6) == [alg.gen("x3") * alg.gen("x3")]


def test_apply_sq_rejects_inhomogeneous(spin9):
    alg, action = spin9
    with pytest.raises(AlgebraError):
        action.apply_sq(1, alg.gen("x3") + alg.gen("x5"))
    with pytest.raises(AlgebraError):
        action.apply_sq(-1, alg.gen("x3"))
