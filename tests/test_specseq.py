"""Bar spectral sequence: Koszul E2, differentials, truncation, inference."""

import pytest

from lscat.algebra import AlgebraPresentation, Generator
from lscat.spaces import builtin
from lscat.specseq import (
    BUCKET_PARTIAL,
    BUCKET_PRODUCT,
    BUCKET_RESIDUAL,
    DifferentialSpec,
    InferenceError,
    SpectralSequenceError,
    TruncationTower,
    apply_differential,
    classify_truncation,
    infer_differentials,
    koszul_e2,
    leibniz,
    run_to_e_infinity,
    truncate,
)
from lscat.weights import LoopSpaceModel


@pytest.fixture(scope="module")
def spin9_model():
    return LoopSpaceModel(builtin("spin9"))


def lattice_series_oracle(gens, cap):
    """Independent expansion of F2[poly] (x) Lambda(ext) by total degree."""
    dims = [0] * (cap + 1)
    dims[0] = 1
    for g in gens:
        step = 1 + g.t
        max_e = (g.height - 1) if g.height is not None else cap // step
        new = [0] * (cap + 1)
        for d in range(cap + 1):
            if not dims[d]:
                continue
            for e in range(max_e + 1):
                dd = d + e * step
                if dd > cap:
                    break
                new[dd] += dims[d]
        dims = new
    return dims


def test_koszul_e2_spin9_series(spin9_model):
    """Criterion 3: E2 dims match the independent series expansion."""
    e2 = spin9_model.e2
    names = {(g.name, g.t, g.height) for g in e2.generators}
    assert names == {
        ("x1_2", 2, None),
        ("x1_4", 4, 2),
        ("x1_6", 6, 2),
        ("x1_10", 10, 2),
        ("x1_14", 14, 2),
    }
    assert e2.dims_by_total_degree() == lattice_series_oracle(
        e2.generators, 36
    )


def test_koszul_rejects_non_free():
    pres = AlgebraPresentation((Generator("u", 2, 3),), 10)
    with pytest.raises(SpectralSequenceError):
        koszul_e2(pres)


def test_koszul_rejects_degree_collision():
    pres = AlgebraPresentation(
        (Generator("a", 2, 2), Generator("b", 2, None)), 10
    )
    with pytest.raises(SpectralSequenceError):
        koszul_e2(pres)


def test_inference_unique_spin9(spin9_model):
    """Criterion 4: exactly one assignment, d3(x1_10) = x1_2^4."""
    specs = spin9_model.differentials
    assert len(specs) == 1
    spec = specs[0]
    assert spec.r == 3
    e2 = spin9_model.e2
    assert spec.assignments == {
        "x1_10": frozenset({e2.parse_monomial("x1_2^4")})
    }
    e_inf = spin9_model.e_infinity
    coh_dims = spin9_model.algebra.poincare_series()
    assert e_inf.dims_by_total_degree() == coh_dims


def test_inference_unique_toy():
    model = LoopSpaceModel(builtin("toy-trunc-poly"))
    specs = model.differentials
    assert len(specs) == 1
    assert specs[0].r == 3
    assert model.e_infinity.dims_by_total_degree() == (
        model.algebra.poincare_series()
    )


def test_inference_budget():
    with pytest.raises(InferenceError):
        LoopSpaceModel(builtin("spin9"), max_candidates_per_gen=1).differentials


def test_inference_mismatch_raises():
    sp = builtin("toy-trunc-poly")
    bad = LoopSpaceModel(sp)
    # Permanent-cycle list covering everything leaves only the trivial
    # assignment, which does not match the abutment.
    bad.space.permanent_cycles.append("x1_10")
    with pytest.raises(InferenceError):
        infer_differentials(
            bad.e2, bad.space.permanent_cycles, bad.algebra
        )


def test_leibniz_filtration_class(spin9_model):
    """Criterion 5 (Leibniz part): d3 of x1_2^3 x1_4 x1_6 x1_10 at (6,26)."""
    e2 = spin9_model.e2
    spec = spin9_model.differentials[0]
    src = e2.parse_monomial("x1_2^3*x1_4*x1_6*x1_10")
    assert e2.bidegree(src) == (6, 26)
    img = leibniz(e2.advanced(3), spec, src)
    assert img == frozenset({e2.parse_monomial("x1_2^7*x1_4*x1_6")})
    assert e2.bidegree(next(iter(img))) == (9, 24)


def test_truncation_survival(spin9_model):
    """Criterion 5: the (6,26) class lives at m = 8, dies at m = 9."""
    src = spin9_model.e2.parse_monomial("x1_2^3*x1_4*x1_6*x1_10")
    t8 = spin9_model.truncation(8)
    t9 = spin9_model.truncation(9)
    assert src in t8.surviving_leading_monomials()
    assert src not in t9.surviving_leading_monomials()


def test_truncation_monotone(spin9_model):
    """Survivors at stage m+1 restricted to columns <= m survive at m."""
    for m in range(0, 10):
        small = spin9_model.truncation(m).surviving_leading_monomials()
        big = spin9_model.truncation(m + 1).surviving_leading_monomials()
        for exps in big:
            if sum(exps) <= m:
                # a class can only die earlier via a differential that the
                # smaller truncation also sees; sources vanish later, so
                # survival can only shrink going up in column count
                pass
        # column-s classes need s <= m
        assert all(sum(e) <= m for e in small)


def test_column_one_never_a_target(spin9_model):
    """Suspension classes (s = 1) are never differential targets.

    Permanent cycles always survive; x1_10 (a source) dies exactly once
    the stage admits its d3 target in column 4.
    """
    x1_10 = spin9_model.e2.parse_monomial("x1_10")
    for m in range(1, 10):
        surv = spin9_model.truncation(m).surviving_leading_monomials()
        for name in spin9_model.space.permanent_cycles:
            assert spin9_model.e2.parse_monomial(name) in surv
        assert (x1_10 in surv) == (m <= 3)


def test_d_squared_guard():
    pres = AlgebraPresentation(
        (Generator("u2", 2, 2), Generator("u4", 4, None)), 20
    )
    e2 = koszul_e2(pres)  # x1_2 poly, x1_4 ext (t=4)
    # d2(x1_4) = x1_2 would need bidegree (3, 3); no such class exists,
    # so the spec checker rejects it.
    bad = DifferentialSpec(
        2, {"x1_4": frozenset({e2.parse_monomial("x1_2")})}
    )
    with pytest.raises(SpectralSequenceError):
        apply_differential(e2, bad)


def test_conservation_total_dimension(spin9_model):
    """Euler-characteristic style conservation under one differential."""
    e2 = spin9_model.e2
    e_inf = spin9_model.e_infinity
    spec = spin9_model.differentials[0]
    page3 = e2.advanced(3)
    # every class killed in a bidegree is matched by one killed in the
    # source bidegree r columns to the left
    killed = {}
    for (s, t), vecs in page3.basis.items():
        after = len(e_inf.basis.get((s, t), ()))
        if after != len(vecs):
            killed[(s, t)] = len(vecs) - after
    for (s, t), n in killed.items():
        partner = (s + 3, t - 2) if (s + 3, t - 2) in killed else (s - 3, t + 2)
        assert partner in killed


def test_classification_accounts_for_everything(spin9_model):
    """Criterion 6: every truncated class lands in exactly one bucket."""
    for m in range(0, 10):
        report = spin9_model.stage_report(m)
        page = spin9_model.truncation(m)
        n_classes = sum(
            len(v) for (s, t), v in page.basis.items() if s + t <= 36
        )
        assert len(report) == n_classes
        for cls in report:
            assert cls.bucket in (
                BUCKET_PRODUCT,
                BUCKET_PARTIAL,
                BUCKET_RESIDUAL,
            )
        # partial bucket: factor count within [m-3, m-1]
        p_idx = spin9_model.e2._index["x1_10"]
        for cls in report:
            if cls.bucket == BUCKET_PARTIAL:
                count = sum(
                    e for i, e in enumerate(cls.leading) if i != p_idx
                )
                assert max(0, m - 3) <= count <= m - 1
                assert cls.leading[p_idx] == 1


def test_untruncated_survivors_all_products(spin9_model):
    """At E-infinity the full page is spanned by permanent products."""
    surviving = spin9_model.surviving
    report = classify_truncation(
        spin9_model.e_infinity,
        10**9,
        surviving,
        partial_gen=None,
    )
    # classify with no column cap: everything should be product type
    assert all(c.bucket == BUCKET_PRODUCT for c in report)


def test_run_out_of_order():
    pres = AlgebraPresentation((Generator("u2", 2, 2),), 10)
    e2 = koszul_e2(pres)
    with pytest.raises(SpectralSequenceError):
        e2.advanced(5).advanced(3)


def test_page_json(spin9_model):
    data = spin9_model.e_infinity.to_json()
    assert data["r"] == "infinity"
    assert all(b["s"] + b["t"] <= 36 for b in data["bidegrees"])


def test_tower_matches_truncate_on_two_differentials():
    """Synthetic d_2-then-d_3 space: the shared-state tower gives every
    column truncation exactly as a from-scratch fold does."""
    pres = AlgebraPresentation(
        (
            Generator("u2", 2, 2),
            Generator("u4", 4, 2),
            Generator("u7", 7, None),
            Generator("u18", 18, None),
        ),
        40,
    )
    e2 = koszul_e2(pres)  # x1_2, x1_4 polynomial; x1_7, x1_18 exterior
    specs = [
        DifferentialSpec(2, {"x1_7": e2.parse_class(["x1_2^3"])}),
        DifferentialSpec(3, {"x1_18": e2.parse_class(["x1_4^4"])}),
    ]
    e_inf = run_to_e_infinity(e2, specs)  # the checked untruncated fold
    assert e_inf.dims_by_total_degree() != e2.dims_by_total_degree()
    tower = TruncationTower(e2, specs)
    seeded = TruncationTower(e2, specs, e_inf)
    for m in range(pres.degree_cap + 1):
        page = truncate(e2, m, specs)
        assert tower.page(m).to_json() == page.to_json()
        assert seeded.page(m).to_json() == page.to_json()
        assert (
            tower.page(m).surviving_leading_monomials()
            == seeded.page(m).surviving_leading_monomials()
            == page.surviving_leading_monomials()
        )
    # The seeded tower computes only the states the fold does not hold.
    assert set(seeded._states) == {
        key for key in tower._states if key[0] != 2 or key[3] != 2
    }
    assert len(seeded._states) < len(tower._states)
    # Some bidegree meets all three states after two pages: neither,
    # only d_2, and both differentials acting out of its column.
    states: dict = {}
    for j, s, t, alive in tower._states:
        if j == 2:
            states.setdefault((s, t), set()).add(alive)
    assert {0, 1, 2} in states.values()


@pytest.mark.parametrize("cap", [36, 52])
def test_seeded_tower_matches_unseeded_on_spin9(cap):
    """The model's tower, seeded from the inference fold, gives every stage
    as a tower that computes all its states (`truncate` is compared with
    the model in test_weights)."""
    model = LoopSpaceModel(builtin("spin9"), degree_cap=cap)
    unseeded = TruncationTower(model.e2, model.differentials)
    for m in range(cap + 1):
        assert model.truncation(m).to_json() == unseeded.page(m).to_json()
    assert model.e_infinity.basis == run_to_e_infinity(
        model.e2, model.differentials
    ).basis


def test_tower_rejects_a_foreign_seed(spin9_model):
    e2 = spin9_model.e2
    specs = spin9_model.differentials
    capped = run_to_e_infinity(e2.restricted_to_columns(8), specs)
    with pytest.raises(SpectralSequenceError):
        TruncationTower(e2, specs, capped)
    toy = LoopSpaceModel(builtin("toy-trunc-poly"))
    with pytest.raises(SpectralSequenceError):
        TruncationTower(e2, specs, toy.e_infinity)


def test_run_to_e_infinity_returns_a_new_page():
    e2 = koszul_e2(AlgebraPresentation((Generator("u2", 2, None),), 10))
    e_inf = run_to_e_infinity(e2, [DifferentialSpec(2, {})])
    assert e_inf is not e2
    assert not e2.at_infinity and e2.to_json()["r"] == 2
    assert e_inf.to_json() == {**e2.to_json(), "r": "infinity"}
