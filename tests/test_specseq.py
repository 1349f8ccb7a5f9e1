"""Bar spectral sequence: Koszul E2, differentials, truncation, inference."""

import functools
import json

import pytest

from lscat import gf2, specseq
from lscat.algebra import AlgebraError, AlgebraPresentation, Generator
from lscat.spaces import BUILTINS, SpacePresentation, builtin
from lscat.specseq import (
    DEFAULT_SCRATCH,
    DifferentialSpec,
    InferenceError,
    SpectralSequenceError,
    TruncationTower,
    candidate_widths,
    infer_differentials,
    _value_monomials,
    koszul_e2,
    leibniz,
)
from lscat.weights import (
    BUCKET_PARTIAL,
    BUCKET_PRODUCT,
    BUCKET_RESIDUAL,
    LoopSpaceModel,
)
from reference import (
    apply_differential,
    check_d_squared,
    classify_truncation,
    d_of_vec,
    page_json,
    parse_class,
    restricted_to_columns,
    run_to_e_infinity,
    surviving,
    truncate,
)


@pytest.fixture(scope="module")
def spin9_model():
    return LoopSpaceModel(builtin("spin9"))


def lattice_series_oracle(gens, cap):
    """Independent expansion of F2[poly] (x) Lambda(ext) by total degree."""
    dims = [0] * (cap + 1)
    dims[0] = 1
    for g in gens:
        step = g.degree
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
    names = {(g.name, g.degree - 1, g.height) for g in e2.lattice.generators}
    assert names == {
        ("x1_2", 2, None),
        ("x1_4", 4, 2),
        ("x1_6", 6, 2),
        ("x1_10", 10, 2),
        ("x1_14", 14, 2),
    }
    assert e2.dims_by_total_degree() == lattice_series_oracle(
        e2.lattice.generators, 36
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


@pytest.mark.parametrize(
    "text",
    [
        "x1_4^2",  # x1_4 is exterior
        "x1_2^40",  # degree 120, past the lattice cap 40
        "x1_3",  # no such generator
    ],
)
def test_lattice_parsing_validates(spin9_model, text):
    with pytest.raises(AlgebraError):
        spin9_model.e2.lattice.parse_monomial(text)
    with pytest.raises(AlgebraError):
        parse_class(spin9_model.e2, [text], 4, 8)


def test_inference_unique_spin9(spin9_model):
    """Criterion 4: exactly one assignment, d3(x1_10) = x1_2^4."""
    specs = spin9_model.differentials
    assert len(specs) == 1
    spec = specs[0]
    assert spec.r == 3
    e2 = spin9_model.e2
    assert spec.assignments == {"x1_10": parse_class(e2, ["x1_2^4"], 4, 8)}
    assert e2.target(3, "x1_10") == (4, 8)
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


@pytest.mark.parametrize("name", ["unit", "su4"])
def test_inference_without_a_differential_is_the_empty_fold(name):
    """The no-differential result is the tower with no spec, whose page is
    E2; the model lists no differential."""
    from test_weights import su_space

    model = LoopSpaceModel(builtin(name) if name == "unit" else su_space(4))
    candidates = candidate_widths(model.e2, model.space.permanent_cycles)
    found = infer_differentials(model.e2, candidates, model.algebra)
    assert [tower.specs for tower in found] == [[]]
    assert model.differentials == []
    assert page_json(found[0].page()) == page_json(model.e2)


def test_inference_budget(monkeypatch):
    monkeypatch.setattr(specseq, "SEARCH_BUDGET", 1)
    with pytest.raises(InferenceError, match="search budget exceeded"):
        LoopSpaceModel(builtin("spin9")).differentials


def test_inference_mismatch_raises():
    sp = builtin("toy-trunc-poly")
    bad = LoopSpaceModel(sp)
    # Permanent-cycle list covering everything leaves only the trivial
    # assignment, which does not match the abutment.
    bad.space.permanent_cycles.append("x1_10")
    with pytest.raises(InferenceError):
        infer_differentials(
            bad.e2, candidate_widths(bad.e2, bad.space.permanent_cycles), bad.algebra
        )


def test_leibniz_filtration_class(spin9_model):
    """Criterion 5 (Leibniz part): d3 of x1_2^3 x1_4 x1_6 x1_10 at (6,26)."""
    e2 = spin9_model.e2
    spec = spin9_model.differentials[0]
    src = e2.lattice.parse_monomial("x1_2^3*x1_4*x1_6*x1_10")
    assert e2.bidegree(src) == (6, 26)
    page = e2.advanced(3)
    img = leibniz(page, spec, src, _value_monomials(page, spec))
    tgt = e2.lattice.parse_monomial("x1_2^7*x1_4*x1_6")
    assert e2.monomials(9, 24, img) == [tgt]
    assert e2.bidegree(tgt) == (9, 24)


def test_truncation_survival(spin9_model):
    """Criterion 5: the (6,26) class lives at m = 8, dies at m = 9."""
    src = spin9_model.e2.lattice.parse_monomial("x1_2^3*x1_4*x1_6*x1_10")
    t8 = spin9_model._tower.page(8)
    t9 = spin9_model._tower.page(9)
    assert src in surviving(t8)
    assert src not in surviving(t9)


def test_truncation_monotone():
    """Survivors at stage m+1 restricted to columns <= m survive at m
    (spin9 at caps 36 and 52, every m below the cap)."""
    for cap in (36, 52):
        model = LoopSpaceModel(builtin("spin9"), degree_cap=cap)
        big = surviving(model._tower.page(0))
        for m in range(cap):
            small = big
            big = surviving(model._tower.page(m + 1))
            # column-s classes need s <= m
            assert all(sum(e) <= m for e in small)
            assert {e for e in big if sum(e) <= m} <= small


def test_column_one_never_a_target(spin9_model):
    """Suspension classes (s = 1) are never differential targets.

    Permanent cycles always survive; x1_10 (a source) dies exactly once
    the stage admits its d3 target in column 4.
    """
    x1_10 = spin9_model.e2.lattice.parse_monomial("x1_10")
    for m in range(1, 10):
        surv = surviving(spin9_model._tower.page(m))
        for name in spin9_model.space.permanent_cycles:
            assert spin9_model.e2.lattice.parse_monomial(name) in surv
        assert (x1_10 in surv) == (m <= 3)


def test_d_squared_guard():
    pres = AlgebraPresentation(
        (Generator("u2", 2, 2), Generator("u4", 4, None)), 20
    )
    e2 = koszul_e2(pres)  # x1_2 poly, x1_4 ext (t=4)
    # d2(x1_4) lands in bidegree (3, 3); no such class exists, so the
    # spec checker rejects any nonzero row there.
    assert e2.target(2, "x1_4") == (3, 3) and (3, 3) not in e2.cells
    bad = DifferentialSpec(2, {"x1_4": 1})
    with pytest.raises(SpectralSequenceError):
        apply_differential(e2, bad)


def test_conservation_total_dimension():
    """Euler-characteristic style conservation under one differential, on
    spin9 in every degree up to 36 + DEFAULT_SCRATCH: the page is capped one
    degree higher, since a class killed as a d_3 source has its partner one
    degree up."""
    top = 36 + DEFAULT_SCRATCH
    model = LoopSpaceModel(builtin("spin9"), degree_cap=top + 1)
    e2 = model.e2
    e_inf = model.e_infinity
    spec = model.differentials[0]
    page3 = e2.advanced(3)
    # every class killed in a bidegree is matched by one killed in the
    # source bidegree r columns to the left
    killed = {}
    for (s, t), vecs in page3.basis.items():
        after = len(e_inf.basis.get((s, t), ()))
        if after != len(vecs):
            killed[(s, t)] = len(vecs) - after
    for (s, t), n in killed.items():
        if s + t > top:
            continue
        partner = (s + 3, t - 2) if (s + 3, t - 2) in killed else (s - 3, t + 2)
        assert partner in killed


def test_classification_accounts_for_everything(spin9_model):
    """Criterion 6: every truncated class lands in exactly one bucket."""
    for m in range(0, 10):
        report = spin9_model.stage_report(m)
        page = spin9_model._tower.page(m)
        n_classes = sum(
            len(v) for (s, t), v in page.basis.items() if s + t <= 36
        )
        assert len(report) == n_classes
        for _, bucket in report:
            assert bucket in (
                BUCKET_PRODUCT,
                BUCKET_PARTIAL,
                BUCKET_RESIDUAL,
            )
        # partial bucket: factor count within [m-3, m-1]
        p_idx = spin9_model.e2.lattice._index["x1_10"]
        for cls, bucket in report:
            if bucket == BUCKET_PARTIAL:
                count = sum(
                    e for i, e in enumerate(cls.leading) if i != p_idx
                )
                assert max(0, m - 3) <= count <= m - 1
                assert cls.leading[p_idx] == 1


def test_untruncated_survivors_all_products(spin9_model):
    """At E-infinity the full page is spanned by permanent products."""
    report = classify_truncation(
        spin9_model.e_infinity,
        10**9,
        surviving(spin9_model.e_infinity),
        partial_gen=None,
    )
    # classify with no column cap: everything should be product type
    assert all(b == BUCKET_PRODUCT for _, b in report)


def test_run_out_of_order():
    pres = AlgebraPresentation((Generator("u2", 2, 2),), 10)
    e2 = koszul_e2(pres)
    with pytest.raises(SpectralSequenceError):
        e2.advanced(5).advanced(3)


def test_page_json(spin9_model):
    data = json.loads(spin9_model.e_infinity.json_text())
    assert data["r"] == 4
    assert all(b["s"] + b["t"] <= 36 for b in data["bidegrees"])


def two_page_synthetic():
    """E2 and [d_2(x1_7) = x1_2^3, d_3(x1_18) = x1_4^4], cap 40."""
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
        DifferentialSpec(2, {"x1_7": parse_class(e2, ["x1_2^3"], 3, 6)}),
        DifferentialSpec(3, {"x1_18": parse_class(e2, ["x1_4^4"], 4, 16)}),
    ]
    return e2, specs


def test_tower_matches_truncate_on_two_differentials():
    """Synthetic d_2-then-d_3 space: the shared-state tower gives every
    column truncation exactly as a from-scratch fold does."""
    e2, specs = two_page_synthetic()
    e_inf = run_to_e_infinity(e2, specs)  # the checked untruncated fold
    assert e_inf.dims_by_total_degree() != e2.dims_by_total_degree()
    tower = TruncationTower(e2, specs)
    last = max(s for s, _ in e2.cells)
    for m in range(e2.degree_cap + 1):
        page = truncate(e2, m, specs)
        assert page_json(tower.page(m)) == page_json(page)
        # The stage listing: the page's bidegrees, each with the number
        # of differentials acting out of its column, or all of them at or
        # past the last E2 column.
        assert tower.stage(m) == [
            (s, t, sum(m >= last or s + spec.r <= m for spec in specs))
            for s, t in sorted(page.basis)
        ]
        assert (
            surviving(tower.page(m))
            == surviving(page)
        )
    # Some bidegree meets all three states after two pages: neither,
    # only d_2, and both differentials acting out of its column.
    states: dict = {}
    for j, s, t, alive in tower._states:
        if j == 2:
            states.setdefault((s, t), set()).add(alive)
    assert {0, 1, 2} in states.values()


@pytest.mark.parametrize("cap", [36, 52])
def test_seeded_tower_matches_unseeded_on_spin9(cap):
    """The model's tower, kept from inference, gives every stage as a fresh
    tower does (`truncate` is compared with the model in test_weights)."""
    model = LoopSpaceModel(builtin("spin9"), degree_cap=cap)
    fresh = TruncationTower(model.e2, model.differentials)
    for m in range(cap + 1):
        assert page_json(model._tower.page(m)) == page_json(fresh.page(m))
    assert model.e_infinity.basis == run_to_e_infinity(
        model.e2, model.differentials
    ).basis


def padded_spin9(*degrees):
    """spin9 tensored with a permanent exterior factor per degree d: u_d
    polynomial in the loop homology, so x1_d exterior and permanent, and
    x_(d+1) exterior in the cohomology."""
    return SpacePresentation.from_dict(padded_spin9_data(*degrees))


def padded_spin9_data(*degrees):
    """`padded_spin9(*degrees)` as fixture data."""
    data = BUILTINS["spin9"]()
    data["name"] = "spin9-padded"
    for d in degrees:
        data["loop_homology"]["generators"].append(
            {"name": f"u{d}", "degree": d, "height": "unbounded"}
        )
        data["cohomology"]["generators"].append(
            {"name": f"x{d + 1}", "degree": d + 1, "height": 2}
        )
        data["permanent_cycles"].append(f"x1_{d}")
    return data


def assert_matches_the_leibniz_fold(e2, specs):
    """A fresh tower's page at every truncation m = None, 0..cap equals
    the Leibniz-direct fold of that truncation; return the tower."""
    tower = TruncationTower(e2, specs)
    for m in [None, *range(e2.degree_cap + 1)]:
        if m is None:
            want = run_to_e_infinity(e2, specs)
        else:
            want = truncate(e2, m, specs)
        got = tower.page(m)
        assert got.basis == want.basis, m
        assert page_json(got) == page_json(want), m
    return tower


@pytest.mark.parametrize(
    "space, cap",
    [
        ("spin9", 36),
        ("spin9", 52),
        ("padded", 36),
        ("padded", 52),
        ("two-page", None),
    ],
)
def test_split_tower_matches_the_leibniz_fold(space, cap):
    """A tower that folds only the factor its specs touch gives every
    truncation as the from-scratch Leibniz fold over all of E2 does:
    spin9, and spin9 with two more permanent exterior factors, split;
    the two-page synthetic touches every generator and does not."""
    if space == "two-page":
        e2, specs = two_page_synthetic()
    else:
        sp = builtin("spin9") if space == "spin9" else padded_spin9(8, 12)
        model = LoopSpaceModel(sp, degree_cap=cap)
        e2, specs = model.e2, model.differentials
    tower = assert_matches_the_leibniz_fold(e2, specs)
    assert (tower._blocks is None) == (space == "two-page")


def scratch_listing(tower, m, j):
    """`tower.stage(m, j)` listed column by column from scratch: at or
    past the last E2 column, every differential counts as alive."""
    rs = [spec.r for spec in tower.specs[:j]]
    last = tower.last_column
    out = []
    for s, t in sorted(tower.e2.basis):
        if m is not None and s > m:
            continue
        untruncated = m is None or m >= last
        alive = len(rs) if untruncated else sum(s + r <= m for r in rs)
        if tower.state(j, s, t, alive):
            out.append((s, t, alive))
    return out


@pytest.mark.parametrize("space", ["spin9", "two-page"])
def test_stage_listing_matches_a_scratch_listing(space):
    """The tower's scan up to column m lists the same states as a scan
    from scratch that reads every E2 bidegree, for every m, truncated or
    not, and every number of specs folded, whichever m the tower is asked
    for first (so whichever states it has folded before)."""
    if space == "spin9":
        model = LoopSpaceModel(builtin("spin9"))
        e2, specs = model.e2, model.differentials
    else:
        e2, specs = two_page_synthetic()
    ms = [*range(-1, e2.degree_cap + 4), None]
    for order in (ms, ms[::-1]):
        tower = TruncationTower(e2, specs)
        for m in order:
            for j in range(len(specs) + 1):
                assert tower.stage(m, j) == scratch_listing(tower, m, j)


@pytest.mark.parametrize("space", ["spin9", "two-page"])
def test_stages_past_the_last_column_read_the_untruncated_states(space):
    """A d_r out of column s that lands past the last E2 column m >= s
    is zero, so every stage from that column on holds the untruncated
    page and folds no state of its own."""
    if space == "spin9":
        model = LoopSpaceModel(builtin("spin9"), degree_cap=52)
        tower = model._tower
    else:
        tower = TruncationTower(*two_page_synthetic())
    untruncated = tower.page()
    folded = len(tower._states)
    last = tower.last_column
    for m in range(last, tower.e2.degree_cap + 5):
        assert tower.page(m).basis == untruncated.basis
    assert len(tower._states) == folded


def test_tower_pages_match_folds_after_each_spec():
    """`page(m, j)`, for every truncation and every number of specs folded,
    is the checked fold of the first j specs over the column-m E2."""
    e2, specs = two_page_synthetic()
    tower = TruncationTower(e2, specs)
    for m in [None, *range(e2.degree_cap + 1)]:
        page = e2 if m is None else restricted_to_columns(e2, m)
        for j in range(len(specs) + 1):
            want = run_to_e_infinity(page, specs[:j])
            got = tower.page(m, j)
            assert got.basis == want.basis
            assert got.column_cap == want.column_cap == m


def full_homology(page, spec, s, t, vecs, incoming, alive):
    """`homology_at` with no shortcut: d by the Leibniz rule, then the
    cycles' quotient by the boundaries through `gf2.quotient_basis`."""
    r = spec.r
    out_rows = [d_of_vec(page, spec, s, t, v) for v in vecs] if alive else []
    boundaries = [d_of_vec(page, spec, s - r, t + r - 1, u) for u in incoming]
    cycles = list(vecs)
    if any(out_rows):
        ncols = len(page.cells[(s + r, t - r + 1)])
        cycles = [
            acc
            for c in gf2.left_kernel(out_rows, ncols)
            if (acc := xor_of(v for i, v in enumerate(vecs) if (c >> i) & 1))
        ]
    reps, _ = gf2.quotient_basis(cycles, boundaries, len(page.cells[(s, t)]))
    return tuple(sorted(reps, key=lambda v: v & -v))


def xor_of(vecs):
    acc = 0
    for v in vecs:
        acc ^= v
    return acc


@pytest.mark.parametrize("space", ["spin9-52", "two-page"])
def test_tower_states_match_the_full_homology_path(space):
    """Every state the tower computes, assembled from its blocks' folded
    states or folded with its image tables and its shortcut for a
    bidegree where d_r does nothing, is the full kernel-and-quotient
    homology over E2 of the states it folds.  spin9 splits, so it folds
    the sub-basis of the touched factor (`_folded`), and the shortcut is
    taken there; the two-page synthetic folds E2 itself, and its
    `_folded` is its `_states`."""
    if space == "spin9-52":
        model = LoopSpaceModel(builtin("spin9"), degree_cap=52)
        e2, specs = model.e2, model.differentials
    else:
        e2, specs = two_page_synthetic()
    tower = TruncationTower(e2, specs)
    assert (tower._blocks is None) == (space == "two-page")
    assert (tower._folded is tower._states) == (space == "two-page")
    for m in [None, *range(e2.degree_cap + 1)]:
        for j in range(len(specs) + 1):
            tower.page(m, j)
    for state, states in ((tower.state, tower._states), (tower._fold, tower._folded)):
        shortcut = 0
        for (j, s, t, alive), got in list(states.items()):
            spec = tower.specs[j - 1]
            r = spec.r
            here = state(j - 1, s, t, min(alive, j - 1))
            if not here:
                assert got == ()
                continue
            incoming = state(j - 1, s - r, t + r - 1, j - 1)
            assert got == full_homology(e2, spec, s, t, here, incoming, alive == j)
            shortcut += got is here
    # The last count is the fold's: an assembled state is a new tuple.
    assert 0 < shortcut < len(tower._folded)


@pytest.mark.parametrize(
    "assignments, message",
    [
        pytest.param(
            {"x1_7": ["x1_2^3"], "x1_12": ["x1_7*x1_2^2"]},
            "does not square to zero on x1_12",
            id="d-squared",
        ),
        # A term off the target cell (3, 6), which holds x1_2^3 alone,
        # is a bit past its row.
        pytest.param(
            {"x1_7": 0b10}, r"wider than its target cell \(3, 6\)", id="bidegree"
        ),
        pytest.param(
            {"x1_9": 1}, "unknown generator 'x1_9'", id="unknown-generator"
        ),
    ],
)
def test_tower_checks_its_specs(assignments, message):
    """A tower refuses a d_2 that is not a differential.  A value is a
    row, or monomials parsed over the generator's target cell."""
    pres = AlgebraPresentation(
        (
            Generator("u2", 2, 2),
            Generator("u7", 7, None),
            Generator("u12", 12, None),
        ),
        40,
    )
    e2 = koszul_e2(pres)  # x1_2 polynomial; x1_7, x1_12 exterior
    spec = DifferentialSpec(
        2,
        {
            name: value
            if isinstance(value, int)
            else parse_class(e2, value, *e2.target(2, name))
            for name, value in assignments.items()
        },
    )
    with pytest.raises(SpectralSequenceError, match=message):
        TruncationTower(e2, [spec])


def test_parse_class_names_an_off_cell_bidegree(spin9_model):
    """A monomial off the cell a class is parsed over is named with its
    bidegree; the cell's monomials sum over F2 into a row."""
    e2 = spin9_model.e2
    with pytest.raises(
        SpectralSequenceError,
        match=r"'x1_2' has bidegree \(1, 2\), not \(2, 16\)",
    ):
        parse_class(e2, ["x1_6*x1_10", "x1_2"], 2, 16)
    assert parse_class(e2, ["x1_6*x1_10", "x1_2*x1_14"], 2, 16) == 0b11
    row = parse_class(e2, ["x1_6*x1_10", "x1_2*x1_14", "x1_6*x1_10"], 2, 16)
    assert e2.class_str(2, 16, row) == "x1_2*x1_14"


def test_run_to_e_infinity_returns_a_new_page():
    e2 = koszul_e2(AlgebraPresentation((Generator("u2", 2, None),), 10))
    e_inf = run_to_e_infinity(e2, [DifferentialSpec(2, {})])
    assert e_inf is not e2
    assert page_json(e2)["r"] == 2
    assert page_json(e_inf) == page_json(e2)


# Small loop homologies, as (exterior degrees, polynomial degrees, cap):
# the one of `test_tower_checks_its_specs`, and two whose low-degree
# classes give many d_r values with products in them.
SPEC_LATTICES = {
    "checks": ((2,), (7, 12), 40),
    "low-5": ((1, 2), (5, 9, 13), 30),
    "low-7": ((1, 2), (4, 7, 11), 26),
}


def all_specs(e2, r):
    """Every nonzero assignment of rows to every generator at page r."""
    names = [g.name for g in e2.lattice.generators]
    widths = [len(e2.cells.get(e2.target(r, name), ())) for name in names]
    for code in range(1, 1 << sum(widths)):
        values = {}
        for name, width in zip(names, widths):
            values[name] = code & ((1 << width) - 1)
            code >>= width
        yield DifferentialSpec(r, values)


def refusal(check):
    """The message `check()` raises as a SpectralSequenceError, or None."""
    try:
        check()
    except SpectralSequenceError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("lattice", sorted(SPEC_LATTICES))
def test_generator_check_agrees_with_the_walk(lattice):
    """A tower's d^2 check, on the assigned generators, refuses a spec
    exactly when the reference walk over every monomial of every E_r class
    does, with the same message, for every assignment of rows to the
    generators at r = 2..7 (44 specs over the three lattices, 12 of them
    refused)."""
    exterior, polynomial, cap = SPEC_LATTICES[lattice]
    e2 = koszul_e2(
        AlgebraPresentation(
            tuple(Generator(f"u{d}", d, 2) for d in exterior)
            + tuple(Generator(f"u{d}", d, None) for d in polynomial),
            cap,
        )
    )
    outcomes = []
    for r in range(2, 8):
        page = e2.advanced(r)
        for spec in all_specs(e2, r):
            walk = refusal(
                lambda: check_d_squared(
                    page, spec, functools.partial(d_of_vec, page, spec)
                )
            )
            tower = refusal(lambda: TruncationTower(e2, [spec]))
            assert tower == walk, spec
            outcomes.append(walk is None)
    # Both outcomes occur on every lattice.
    assert set(outcomes) == {True, False}


def test_tower_refuses_specs_out_of_page_order():
    """Specs act on successive pages: two with one r, or an r below E2's,
    are refused, each checked spec before the next is looked at."""
    e2, (d2, d3) = two_page_synthetic()
    for specs in ([d2, d2], [d2, d3, d3], [DifferentialSpec(1, {"x1_7": 1})]):
        with pytest.raises(
            SpectralSequenceError, match="cannot move to an earlier page"
        ):
            TruncationTower(e2, specs)


def test_constructing_a_tower_folds_nothing(monkeypatch):
    """Building a tower, a candidate of inference or a model's, runs its
    checks alone: no state and no homology is computed until a page or a
    state is read."""
    calls = {"homology": 0, "state": 0}
    real_homology = specseq.homology_at
    real_state = TruncationTower.state

    def counting_homology(*args):
        calls["homology"] += 1
        return real_homology(*args)

    def counting_state(self, *args):
        calls["state"] += 1
        return real_state(self, *args)

    model = LoopSpaceModel(builtin("spin9"), degree_cap=52)
    folds = [(model.e2, model.differentials), two_page_synthetic()]
    monkeypatch.setattr(specseq, "homology_at", counting_homology)
    monkeypatch.setattr(TruncationTower, "state", counting_state)
    for e2, specs in folds:
        tower = TruncationTower(e2, specs)
        assert calls == {"homology": 0, "state": 0}
        tower.page()
        assert calls["homology"] > 0 and calls["state"] > 0
        calls.update(homology=0, state=0)


@pytest.mark.parametrize(
    "make, cap",
    [
        pytest.param(lambda: builtin("spin9"), 36, id="spin9-36"),
        pytest.param(lambda: builtin("spin9"), 52, id="spin9-52"),
        pytest.param(lambda: padded_spin9(8, 12), 36, id="padded-36"),
    ],
)
def test_a_split_tower_is_one_tower_over_one_e2(monkeypatch, make, cap):
    """A tower that folds only its touched factor does so inside E2's own
    cells: building it and reading its untruncated page constructs no
    second page and no second tower, and builds each spec's image table
    and runs its d^2 check once."""
    model = LoopSpaceModel(make(), degree_cap=cap)
    e2, specs = model.e2, model.differentials
    calls = {"page": 0, "tower": 0, "table": 0, "d2": 0}

    def counting(key, real):
        def wrapper(*args):
            calls[key] += 1
            return real(*args)

        return wrapper

    for owner, name, key in (
        (specseq.BigradedPage, "__init__", "page"),
        (TruncationTower, "__init__", "tower"),
        (specseq, "_image_table", "table"),
        (specseq, "_check_d_squared", "d2"),
    ):
        monkeypatch.setattr(owner, name, counting(key, getattr(owner, name)))
    tower = TruncationTower(e2, specs)
    tower.page()
    assert tower._blocks is not None
    assert calls == {"page": 0, "tower": 1, "table": len(specs), "d2": len(specs)}
