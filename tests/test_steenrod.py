"""Steenrod action: Cartan, instability, and the spin9 table."""

import functools
import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from lscat.algebra import Algebra, AlgebraError
from lscat.cli import main
from lscat.gf2 import span_basis
from lscat.report import build_report
from lscat.spaces import BUILTINS, SpacePresentation, builtin, validate
from lscat.steenrod import SteenrodAction
from lscat.weights import LoopSpaceModel
from reference import monomials, mul, parse_row, row_of, row_str, terms
from test_algebra import graded
from test_tools import same_outputs
from test_weights import su_space


@pytest.fixture(scope="module")
def spin9():
    sp = builtin("spin9")
    return sp.algebra, sp.action


def terms_of(alg, *texts):
    """The sum of the monomials, in the degree of the first, as its terms."""
    return alg.parse_terms(texts, alg.monomial_degree(alg.parse_monomial(texts[0])))


def row(alg, *texts):
    """The sum of the monomials, in the degree of the first, as a row."""
    return parse_row(alg, texts, alg.monomial_degree(alg.parse_monomial(texts[0])))


@functools.cache
def sq_rows(action, k, degree):
    """`action.sq(k, degree)`, kept: the Cartan check reads each many times."""
    return action.sq(k, degree)


def apply_sq(action, k, vec, degree):
    """Sq^k of a row over `basis(degree)`."""
    out = 0
    if vec:
        for i, r in enumerate(sq_rows(action, k, degree)):
            if (vec >> i) & 1:
                out ^= r
    return out


def cartan_holds(action, a, da, b, db):
    """Sq^k(ab) = sum_i Sq^i a * Sq^(k-i) b for every k."""
    alg = action.algebra
    ab = mul(alg, a, da, b, db)
    for k in range(da + db + 1):
        want = 0
        for i in range(k + 1):
            want ^= mul(alg, 
                apply_sq(action, i, a, da), da + i,
                apply_sq(action, k - i, b, db), db + k - i,
            )
        if apply_sq(action, k, ab, da + db) != want:
            return False
    return True


def test_table_values(spin9):
    alg, action = spin9
    assert action.sq(2, 3)[0] == row(alg, "x5")
    assert action.sq(1, 5)[0] == row(alg, "x3^2")
    assert action.sq(3, 3)[0] == row(alg, "x3^2")
    assert not action.sq(1, 3)[0]
    assert action.sq(0, 7)[0] == row(alg, "x7")


def test_cartan_formula(spin9):
    """Sq^k(ab) = sum_i Sq^i a Sq^(k-i) b on random pairs, on each pair of
    their homogeneous parts."""
    alg, action = spin9
    monos = list(monomials(alg))
    rng = random.Random(11)
    for _ in range(300):
        a = graded(alg, rng.sample(monos, rng.randint(1, 3)))
        b = graded(alg, rng.sample(monos, rng.randint(1, 3)))
        for da, ra in a.items():
            for db, rb in b.items():
                assert cartan_holds(action, ra, da, rb, db)


def test_linearity(spin9):
    alg, action = spin9
    monos = list(monomials(alg))
    rng = random.Random(13)
    for _ in range(300):
        a = graded(alg, rng.sample(monos, rng.randint(0, 4)))
        b = graded(alg, rng.sample(monos, rng.randint(0, 4)))
        for d in a.keys() & b.keys():
            for k in range(alg.degree_cap - d + 1):
                assert apply_sq(action, k, a[d] ^ b[d], d) == apply_sq(
                    action, k, a[d], d
                ) ^ apply_sq(action, k, b[d], d)


def test_top_square_is_squaring(spin9):
    alg, action = spin9
    for m in monomials(alg):
        d = alg.monomial_degree(m)
        if d == 0:
            continue
        e = row_of(alg, m)
        assert apply_sq(action, d, e, d) == mul(alg, e, d, e, d)


def test_sq1_sq1_zero(spin9):
    alg, action = spin9
    for m in monomials(alg):
        d = alg.monomial_degree(m)
        if d + 2 > alg.degree_cap:
            continue
        once = apply_sq(action, 1, row_of(alg, m), d)
        if once:
            assert not apply_sq(action, 1, once, d + 1)


def test_instability_passes(spin9):
    _, action = spin9
    assert action.verify_instability() == []


def test_instability_catches_bad_table(spin9):
    alg, _ = spin9
    bad = SteenrodAction(alg, {("x3", 5): terms_of(alg, "x3*x5")})
    assert any("k > degree" in p for p in bad.verify_instability())
    bad2 = SteenrodAction(alg, {("x3", 3): terms_of(alg, "x3^2")})
    assert bad2.verify_instability() == []
    bad3 = SteenrodAction(alg, {("x3", 3): ()})
    assert any("must equal" in p for p in bad3.verify_instability())
    # A value in the wrong degree is no row: the fixture fails to parse.
    data = BUILTINS["spin9"]()
    data["steenrod"].append({"gen": "x3", "k": 3, "value": ["x3"]})
    problems = validate(SpacePresentation.from_dict(data))
    assert problems == ["Sq^3 x3: value not homogeneous of degree 6"]


def test_image_of_sq(spin9):
    alg, action = spin9
    # Sq^2: H^3 -> H^5 hits x5.
    img = action.image_of_sq(2, 5)
    assert img == [row(alg, "x5")]
    # Sq^4: H^28 -> H^32 = 0, so the image is empty.
    assert action.image_of_sq(4, 32) == []
    # Sq^1: H^5 -> H^6 hits x3^2.
    assert action.image_of_sq(1, 6) == [row(alg, "x3^2")]


def test_image_of_sq_reduces_over_the_whole_target_basis():
    """On spin9's extended algebra and on SU(6), for every target degree
    and k: the image of Sq^k is its rows in RREF with a pivot allowed in
    every column of the target basis."""
    for action in (builtin("spin9").extended_action, su_space(6).action):
        alg = action.algebra
        for d in range(alg.degree_cap + 1):
            width = len(alg.basis(d))
            for k in range(d + 1):
                rows = list(action.sq(k, d - k))
                assert action.image_of_sq(k, d) == span_basis(rows, width)[0]


def count_basis_calls(monkeypatch) -> list:
    """The degree of every `Algebra.basis` call made from here on."""
    calls = []
    real = Algebra.basis
    monkeypatch.setattr(
        Algebra, "basis", lambda alg, degree: calls.append(degree) or real(alg, degree)
    )
    return calls


@pytest.mark.parametrize("cap", [36, 52])
def test_spin9_report_builds_no_basis_past_degree_15(monkeypatch, cap):
    """The Steenrod tables are parsed as terms, the witness search squares
    terms, and `image_of_sq` reads the Poincare series before any basis:
    a source degree with no cohomology, as in every call the search
    makes, has an empty image.  So a spin9 report builds no basis of
    either algebra, in any degree."""
    calls = count_basis_calls(monkeypatch)
    model = LoopSpaceModel(builtin("spin9"), degree_cap=cap)
    rep, code = build_report(model, [7, 8, 9])
    assert code == 0 and rep["invariants"]["module_weight_lower"]["value"] == 8
    assert calls == []


def test_no_op_of_the_benchmark_or_the_parity_tool_builds_a_basis(
    monkeypatch, tmp_path
):
    """Every op `tools/same_outputs.py` runs, among them every op of the
    benchmark's three workloads (spin9 reports, SU(4..7) reports, pages
    and `validate`, on spin9 and SU(n) too) and the malformed tables,
    reads Steenrod values as terms and builds no basis."""
    calls = count_basis_calls(monkeypatch)
    for name, argv in same_outputs.invocations(tmp_path):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            main(argv)
        assert calls == [], name


def test_rows_reject_inhomogeneous_values(spin9):
    alg, action = spin9
    with pytest.raises(AlgebraError):
        alg.parse_terms(["x3", "x5"], 3)
    with pytest.raises(AlgebraError):
        action.sq(-1, 3)


def test_squares_match_pinned_digest():
    """Sq^k of every basis monomial of spin9's cohomology and extended
    algebras and of SU(6), for 0 <= k <= cap - degree, hashed.  The digest
    was computed by the total-square path these rows replaced."""
    spin9 = LoopSpaceModel(builtin("spin9"))
    su6 = su_space(6)
    cases = [
        ("spin9", spin9.space.action, 608),
        ("spin9-extended", spin9.space.extended_action, 896),
        ("su6", su6.action, 592),
    ]
    digest = hashlib.sha256()
    for name, action, pairs in cases:
        alg = action.algebra
        count = 0
        for d in range(alg.degree_cap + 1):
            for i, mono in enumerate(alg.basis(d)):
                squares = action.squares(mono)
                for k in range(alg.degree_cap - d + 1):
                    # Sq^k as terms: its row's monomials, in basis order.
                    assert list(squares[k] if k <= d else ()) == terms(
                        alg, action.sq(k, d)[i], d + k
                    )
                    value = row_str(alg, action.sq(k, d)[i], d + k)
                    line = f"{name} Sq^{k} {alg.monomial_str(mono)} = {value}\n"
                    digest.update(line.encode())
                    count += 1
        assert count == pairs
    assert digest.hexdigest() == (
        "4ea2fa1235fb7ee6a52f4d7653f322d87cab7af3f784719c37180032fd670ea3"
    )
