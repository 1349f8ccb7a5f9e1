"""Acceptance gate: the eleven headline results, one pass line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import json

import pytest

from lscat import LoopSpaceModel, assemble_bracket, builtin, bundle_upper_bound
from lscat.cli import main as cli_main
from lscat.report import build_ledger
from lscat.specseq import _value_monomials, leibniz
from lscat.weights import BUCKET_PARTIAL, BUCKET_PRODUCT, BUCKET_RESIDUAL
from cells import cp, min_cell_dim_excluding, smash, sphere, suspend
from reference import (
    bits, mul, parse_class, parse_row, surviving, total_dimension, wgt,
)
from test_steenrod import cartan_holds


@pytest.fixture(scope="module")
def spin9():
    return LoopSpaceModel(builtin("spin9"))


def ok(msg):
    print(f"PASS: {msg}")


def test_01_cohomology_fixture(spin9):
    alg = spin9.algebra
    assert total_dimension(alg) == 32
    assert len(alg.basis(32)) == 0
    assert [alg.monomial_str(m) for m in alg.basis(36)] == ["x3^3*x5*x7*x15"]
    ok("criterion 1: dim H* = 32, H^32 = 0, H^36 = <x3^3*x5*x7*x15>")


def test_02_cup_length(spin9):
    assert spin9.cup_length() == 6
    # independent oracle: grow products generator by generator
    alg = spin9.algebra
    frontier, best = [(1, 0)], 0  # (row, degree): the unit
    gens = [(parse_row(alg, [g.name], g.degree), g.degree) for g in alg.generators]
    while frontier:
        frontier = [
            (p, de + dg)
            for e, de in frontier
            for g, dg in gens
            if (p := mul(alg, e, de, g, dg))
        ]
        if frontier:
            best += 1
    assert best == 6
    ok("criterion 2: cup_length = 6 (exhaustive-product oracle agrees)")


def test_03_koszul_e2_dimensions(spin9):
    dims = [0] * 37
    dims[0] = 1
    for g in spin9.e2.lattice.generators:  # independent series expansion
        step, new = g.degree, [0] * 37
        top = (g.height - 1) if g.height is not None else 36 // step
        for d, v in enumerate(dims):
            for e in range(top + 1):
                if v and d + e * step <= 36:
                    new[d + e * step] += v
        dims = new
    assert spin9.e2.dims_by_total_degree() == dims
    ok("criterion 3: E2 = F2[x1_2] (x) Lambda(x1_4, x1_6, x1_10, x1_14)")


def test_04_forced_differential(spin9):
    specs = spin9.differentials
    assert len(specs) == 1 and specs[0].r == 3
    assert specs[0].assignments == {
        "x1_10": parse_class(spin9.e2, ["x1_2^4"], 4, 8)
    }
    assert (
        spin9.e_infinity.dims_by_total_degree()
        == spin9.algebra.poincare_series()
    )
    ok("criterion 4: unique inference d_3(x1_10) = x1_2^4; E-inf = H*(Spin(9))")


def test_05_truncation_survival(spin9):
    src = spin9.e2.lattice.parse_monomial("x1_2^3*x1_4*x1_6*x1_10")
    assert spin9.e2.bidegree(src) == (6, 26)
    e2, spec = spin9.e2, spin9.differentials[0]
    bit = bits(e2.lattice)
    img = leibniz(e2.lattice, bit, src, _value_monomials(e2, spec))
    tgt = spin9.e2.lattice.parse_monomial("x1_2^7*x1_4*x1_6")
    assert img == 1 << bit[tgt]
    assert spin9.e2.bidegree(tgt) == (9, 24)
    assert src in surviving(spin9._tower.page(8))
    assert src not in surviving(spin9._tower.page(9))
    ok("criterion 5: (6,26) class survives at m = 8, dies at m = 9 via (9,24)")


def test_06_truncation_buckets(spin9):
    p_idx = spin9.e2.lattice._index["x1_10"]
    for m in range(10):
        page = spin9._tower.page(m)
        report = spin9.stage_report(m)
        assert len(report) == sum(
            len(v) for (s, t), v in page.basis.items() if s + t <= 36
        )
        for cls, bucket in report:
            assert bucket in (
                BUCKET_PRODUCT,
                BUCKET_PARTIAL,
                BUCKET_RESIDUAL,
            )
            if bucket == BUCKET_PARTIAL:
                count = cls.s - 1
                assert max(0, m - 3) <= count <= m - 1
                assert cls.leading[p_idx] == 1
    ok("criterion 6: every truncated class is A^[m], x11-partial, or residual")


def test_07_weights(spin9):
    assert spin9.wgt_space() == 6
    for name in ("x3", "x5", "x7", "x15"):
        degree = int(name[1:])
        assert wgt(spin9, parse_row(spin9.algebra, [name], degree), degree) == 1
    ok("criterion 7: wgt(Spin(9)) = 6; wgt(x3) = wgt(x5) = wgt(x7) = wgt(x15) = 1")


def test_08_obstruction_witness(spin9):
    w = spin9.find_obstruction(7)
    assert w is not None and w["k"] == 4
    assert w["class"] == "x3^3*x5*x7*x11" and w["target"] == "x3^3*x5*x7*x15"
    assert w["vanishing_degree"] == 32 and not spin9.algebra.basis(32)
    assert spin9.find_obstruction(8) is None
    assert spin9.mwgt_lower_bound() == 8
    ok("criterion 8: stage-7 witness Sq^4, H^32 = 0; mwgt_lower_bound = 8")


def test_09_bracket(spin9):
    assert bundle_upper_bound(5, 3) == 8
    ledger = build_ledger(spin9)
    assert assemble_bracket(ledger) == (8, 8)
    ok("criterion 9: bundle_upper_bound(5,3) = 8; bracket = (8,8): cat = 8")


def test_10_cells():
    assert suspend(smash(cp(3), sphere(6)), 3).dimensions() == [11, 13, 15]
    assert smash(cp(2), cp(2)).dimensions() == [4, 6, 6, 8]
    quad = cp(2)
    for _ in range(3):
        quad = smash(quad, cp(2))
    c = suspend(quad, 3)
    low = [lab for dim, lab in c.cells if dim in (11, 13)]
    assert min_cell_dim_excluding(c, low) == 15
    ok("criterion 10: cell multisets {11,13,15}, {4,6,6,8}, next cell = 15")


def test_11_property_suites(spin9, capsys, tmp_path):
    # Cartan/instability spot checks
    assert spin9.space.action.verify_instability() == []
    alg = spin9.algebra
    b = parse_row(alg, ["x3*x7"], 10)
    for a, da in ((parse_row(alg, ["x3^2"], 6), 6), (parse_row(alg, ["x5"], 5), 5)):
        assert cartan_holds(spin9.space.action, a, da, b, 10)
    # ladder on every builtin with loop homology
    for name in ("spin9", "toy-trunc-poly", "unit"):
        model = LoopSpaceModel(builtin(name))
        assert (
            model.cup_length()
            <= model.wgt_space()
            <= max(model.wgt_space(), model.mwgt_lower_bound())
        )
    # determinism: byte-identical CLI reports
    outs = []
    for _ in range(2):
        code = cli_main(
            ["report", "spin9", "--truncate", "7,8,9", "--format", "json"]
        )
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    json.loads(outs[0])
    ok("criterion 11: Cartan/instability, ladder, byte-identical reports")
