"""Category weight and the module-weight obstruction on the fixtures."""

import gc
import io
import re
import weakref
from collections import Counter
from contextlib import redirect_stdout
from itertools import product
from math import comb
from pathlib import Path

import pytest

from lscat import cli, specseq, weights
from lscat.algebra import Algebra, AlgebraPresentation, Generator
from lscat.report import build_ledger, build_report
from lscat.spaces import (
    ExtraGenerator,
    FixtureError,
    SpacePresentation,
    builtin,
    validate,
)
from lscat.specseq import DEFAULT_SCRATCH, TruncationTower
from lscat.steenrod import SteenrodAction
from lscat.weights import (
    BUCKET_RESIDUAL,
    LoopSpaceModel,
    WeightError,
    bucket,
    can_be_non_residual,
)
from reference import (
    cells,
    classify_truncation,
    full_walk,
    page_json,
    per_state_report,
    parse_row,
    row_of,
    row_str,
    surviving,
    truncate,
    wgt,
)
from test_specseq import padded_spin9, two_page_synthetic


def su_data(n: int) -> dict:
    """SU(n)'s fixture data: Lambda(x3, ..., x(2n-1)) with Borel's squares
    Sq^(2i) x(2j-1) = C(j-1, i) x(2i+2j-1), loop homology polynomial on
    u2, ..., u(2n-2) (Bott), every suspension class permanent."""
    top = 2 * n - 1
    return {
        "name": f"su{n}",
        "degree_cap": n * n - 1,
        "cohomology": {
            "generators": [
                {"name": f"x{d}", "degree": d, "height": 2}
                for d in range(3, top + 1, 2)
            ]
        },
        "steenrod": [
            {"gen": f"x{2 * j - 1}", "k": 2 * i, "value": [f"x{2 * i + 2 * j - 1}"]}
            for j in range(2, n + 1)
            for i in range(1, j)
            if 2 * i + 2 * j - 1 <= top and comb(j - 1, i) % 2
        ],
        "loop_homology": {
            "generators": [
                {"name": f"u{d}", "degree": d, "height": "unbounded"}
                for d in range(2, 2 * n, 2)
            ]
        },
        "permanent_cycles": [f"x1_{d}" for d in range(2, 2 * n, 2)],
    }


def su_space(n: int) -> SpacePresentation:
    """SU(n)'s presentation, read from `su_data(n)`."""
    return SpacePresentation.from_dict(su_data(n))


def reference_stage(model: LoopSpaceModel, m: int):
    """Stage m with no pruning or reuse: (page, report, first witness).

    Truncates and classifies from scratch, squares every computable class
    and scans k ascending, then the classes in report order.
    """
    extra = next(iter(model.space.extra_generators), None)
    page = truncate(model.e2, m, model._tower.specs)
    report = classify_truncation(
        page,
        m,
        surviving(model.e_infinity),
        partial_gen=f"x1_{extra.t}" if extra else None,
        extension_height=extra.extension_height if extra else 0,
    )
    ext = model.space.extended_algebra
    extra_idx = [
        i for i, g in enumerate(ext.generators) if extra and g.name == extra.name
    ]
    alive = {cls.leading for cls, _ in report}
    residual_degrees = {cls.degree for cls, b in report if b == BUCKET_RESIDUAL}
    computable = [cls for cls, b in report if b != BUCKET_RESIDUAL]
    z = {
        cls.leading: model._extended_exps_of_lattice(cls.leading)
        for cls in computable
    }
    max_k = max((g.degree for g in ext.generators), default=0)
    for k in range(1, max_k + 1):
        for cls in computable:
            degree = cls.degree + k
            squares = model.space.extended_action.squares(z[cls.leading])
            terms = squares[k] if k < len(squares) else ()
            plain = [e for e in terms if not any(e[i] for i in extra_idx)]
            if not plain or len(plain) < len(terms):
                continue
            u_terms = [
                tuple(e for i, e in enumerate(exps) if i not in extra_idx)
                for exps in plain
            ]
            u = sum(row_of(model.algebra, e) for e in u_terms)
            if (
                not u
                or not any(
                    model._lattice_exps_of_monomial(e) in alive for e in u_terms
                )
                or model.algebra.basis(cls.degree)
                or degree in residual_degrees
            ):
                continue
            assert not model.space.action.image_of_sq(k, degree)
            return page, report, {
                "m": m,
                "k": k,
                "class": ext.monomial_str(z[cls.leading]),
                "target": row_str(model.algebra, u, degree),
                "target_degree": degree,
                "vanishing_degree": cls.degree,
                "facts": [
                    f"Sq^{k} of the stage-{m} class equals the restriction "
                    f"of a nonzero degree-{degree} class",
                    f"the cohomology of the space vanishes in degree "
                    f"{cls.degree}, so nothing upstairs can map onto it "
                    f"under Sq^{k}",
                    f"no residual stage-{m} class lives in degree {degree}",
                ],
            }
    return page, report, None


@pytest.fixture(scope="module")
def spin9():
    return LoopSpaceModel(builtin("spin9"))


def test_generator_weights(spin9):
    """Criterion 7: every generator has weight 1."""
    alg = spin9.algebra
    for name in ("x3", "x5", "x7", "x15"):
        degree = int(name[1:])
        assert wgt(spin9, parse_row(alg, [name], degree), degree) == 1


def test_space_weight(spin9):
    """Criterion 7: wgt(Spin(9)) = 6, on the top class."""
    assert spin9.wgt_space() == 6
    alg = spin9.algebra
    top = parse_row(alg, ["x3^3*x5*x7*x15"], 36)
    assert wgt(spin9, top, 36) == 6


def test_weight_is_filtration(spin9):
    """Weight of a monomial equals its E-infinity column."""
    alg = spin9.algebra
    assert wgt(spin9, parse_row(alg, ["x3^2"], 6), 6) == 2
    assert wgt(spin9, parse_row(alg, ["x3*x5"], 8), 8) == 2
    assert wgt(spin9, parse_row(alg, ["x3^2*x5*x7"], 18), 18) == 4
    # min over terms, in one degree: x15 has weight 1, x3*x5*x7 weight 3
    assert wgt(spin9, parse_row(alg, ["x3*x5*x7", "x15"], 15), 15) == 1


def test_weight_undefined_cases(spin9):
    alg = spin9.algebra
    with pytest.raises(WeightError):
        wgt(spin9, 0, 5)
    with pytest.raises(WeightError):
        wgt(spin9, parse_row(alg, ["1"], 0), 0)


def test_cup_length_vs_weight_ladder(spin9):
    assert spin9.cup_length() <= spin9.wgt_space()


def test_witness_at_stage_seven(spin9):
    """Criterion 8: the k = 4 witness with H^32 = 0 appears at m = 7."""
    w = spin9.find_obstruction(7)
    assert w is not None
    assert w["k"] == 4
    assert w["target_degree"] == 36
    assert w["vanishing_degree"] == 32
    assert w["class"] == "x3^3*x5*x7*x11"
    assert w["target"] == "x3^3*x5*x7*x15"
    assert not spin9.algebra.basis(32)


def test_witness_is_the_report_record(spin9):
    """The stage-7 witness is the report's own record, key for key, and a
    report writes the model's witnesses as they are."""
    assert spin9.find_obstruction(7) == {
        "m": 7,
        "k": 4,
        "class": "x3^3*x5*x7*x11",
        "target": "x3^3*x5*x7*x15",
        "target_degree": 36,
        "vanishing_degree": 32,
        "facts": [
            "Sq^4 of the stage-7 class equals the restriction of a nonzero "
            "degree-36 class",
            "the cohomology of the space vanishes in degree 32, so nothing "
            "upstairs can map onto it under Sq^4",
            "no residual stage-7 class lives in degree 36",
        ],
    }
    model = LoopSpaceModel(builtin("spin9"))
    report, code = build_report(model)
    assert code == 0
    assert report["witnesses"] == model.witnesses
    assert [w["m"] for w in report["witnesses"]] == [3, 4, 5, 6, 7]


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: su_space(7), id="su7"),
        pytest.param(lambda: builtin("toy-trunc-poly"), id="toy-trunc-poly"),
    ],
)
def test_no_partial_generator_searches_no_stage_past_the_last_column(
    monkeypatch, make
):
    """With no partial-product generator no class is ever partial, and a
    product class leads an E-infinity class, so it lies in no vanishing
    degree: no bidegree can hold a candidate, and a report searches no
    stage."""
    calls = []
    real_find = LoopSpaceModel.find_obstruction

    def counting_find(self, m):
        calls.append(m)
        return real_find(self, m)

    monkeypatch.setattr(LoopSpaceModel, "find_obstruction", counting_find)
    model = LoopSpaceModel(make())
    _, code = build_report(model)
    assert code == 0
    assert walk_end(model) == -1
    assert calls == []


def test_no_witness_at_stage_eight(spin9):
    """The stage-8 model has a residual class in the target degree."""
    assert spin9.find_obstruction(8) is None
    residual_36 = [
        c
        for c, b in spin9.stage_report(8)
        if b == BUCKET_RESIDUAL and c.degree == 36
    ]
    assert residual_36  # this is exactly what blocks the witness


def test_mwgt_lower_bound(spin9):
    """Criterion 8: mwgt_lower_bound = 8."""
    assert spin9.mwgt_lower_bound() == 8
    witnessed = {
        m for m in range(37) if spin9.find_obstruction(m) is not None
    }
    assert max(witnessed) == 7
    assert 8 not in witnessed


def test_ladder(spin9):
    assert (
        spin9.cup_length() <= spin9.wgt_space() <= spin9.mwgt_lower_bound()
    )


def test_toy_has_no_obstruction():
    model = LoopSpaceModel(builtin("toy-trunc-poly"))
    assert model.mwgt_lower_bound() == 0
    assert model.wgt_space() == 3
    assert model.cup_length() == 3


def test_unit_space():
    model = LoopSpaceModel(builtin("unit"))
    assert model.cup_length() == 0
    assert model.wgt_space() == 0
    assert model.mwgt_lower_bound() == 0


def test_degree_cap_override():
    model = LoopSpaceModel(builtin("spin9"), degree_cap=20)
    assert model.space.degree_cap == 20
    assert model.algebra.degree_cap == 20
    # the forced differential is still found under the smaller cap
    assert model.differentials[0].r == 3


@pytest.mark.parametrize("cap", [20, 52])
@pytest.mark.parametrize("name", ["spin9", "toy-trunc-poly"])
def test_degree_cap_override_builds_a_new_presentation(name, cap):
    """`LoopSpaceModel(sp, degree_cap=c)` reads a new presentation whose
    cohomology and loop homology carry cap c, and leaves `sp` and the
    objects it built untouched."""
    sp = builtin(name)
    built = {n: getattr(sp, n) for n in ("algebra", "e2", "extended_algebra")}
    model = LoopSpaceModel(sp, degree_cap=cap)
    new = model.space
    assert new is not sp
    assert new.degree_cap == new.cohomology.degree_cap == cap
    assert new.loop_homology.degree_cap == cap
    assert new.cohomology.generators == sp.cohomology.generators
    assert new.loop_homology.generators == sp.loop_homology.generators
    assert model.algebra.degree_cap == model.e2.degree_cap == cap
    assert new.extended_algebra.degree_cap == cap
    assert model.mwgt_lower_bound() == LoopSpaceModel(new).mwgt_lower_bound()
    assert sp == builtin(name)
    assert sp.degree_cap == sp.cohomology.degree_cap == 36
    assert sp.loop_homology.degree_cap == 36
    for n, obj in built.items():
        assert getattr(sp, n) is obj and obj.degree_cap == 36, n
    # The presentation's own cap needs no copy, and no loop homology stays none.
    assert LoopSpaceModel(sp, degree_cap=36).space is sp
    sp.loop_homology = None
    assert LoopSpaceModel(sp, degree_cap=cap).space.loop_homology is None


@pytest.mark.parametrize(
    "make",
    [
        *(
            pytest.param(
                lambda cap=cap: LoopSpaceModel(builtin("spin9"), degree_cap=cap),
                id=f"spin9-{cap}",
            )
            for cap in (36, 52)
        ),
        pytest.param(
            lambda: LoopSpaceModel(builtin("toy-trunc-poly")),
            id="toy-trunc-poly",
        ),
        *(
            pytest.param(lambda n=n: LoopSpaceModel(su_space(n)), id=f"su{n}")
            for n in (4, 5, 6)
        ),
        pytest.param(lambda: two_page_model(), id="two-page"),
    ],
)
def test_pruned_search_matches_reference(make):
    """Filtering, square caching and reading stages past the last column
    and the walk's end unclamped change no stage or witness."""
    model = make()
    cap = model.space.degree_cap
    assert walk_end(model) < cap  # stages past it are compared too
    witnessed = []
    # Descending, so later stages are asked for before the walk's end.
    for m in range(cap, -1, -1):
        page, report, witness = reference_stage(model, m)
        assert model.find_obstruction(m) == witness
        assert model.stage_report(m) == report
        assert page_json(model._tower.page(m)) == page_json(page)
        assert (
            surviving(model._tower.page(m))
            == surviving(page)
        )
        if witness is not None:
            witnessed.append(m)
    assert model.mwgt_lower_bound() == (max(witnessed) + 1 if witnessed else 0)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: LoopSpaceModel(builtin("spin9")), id="spin9"),
        pytest.param(lambda: two_page_model(), id="two-page"),
    ],
)
def test_state_lookups_match_the_reference_report(make):
    """What the search reads of stage m from single tower states, which
    monomials lead a class and which degrees hold a residual class, is
    what a from-scratch report of the stage says."""
    model = make()
    cap = model.space.degree_cap
    monomials = [
        lead
        for (s, t), cell in cells(model.e2.lattice).items()
        if s + t <= cap
        for lead in cell
    ]
    for m in range(cap + 1):
        _, report, _ = reference_stage(model, m)
        alive = {cls.leading for cls, _ in report}
        assert {e for e in monomials if model._leads_at(e, m)} == alive
        residual = {cls.degree for cls, b in report if b == BUCKET_RESIDUAL}
        assert {
            d for d in range(cap + 1) if model._residual_in(m, d)
        } == residual


def walk_end(model: LoopSpaceModel) -> int:
    """The last stage the witness walk searches, before the cap clamps it:
    the last at which some vanishing bidegree can hold a candidate."""
    return max(model._vanishing_keys.values(), default=-1)


def two_page_model() -> LoopSpaceModel:
    """A model over the two-page synthetic's E2 and fold, with cohomology
    F2[x3]/(x3^3) (x) F2[x5]/(x5^4) and a partial-product generator on
    x1_7.  Inference is single-page, so the model is handed the fold."""
    e2, specs = two_page_synthetic()
    cap = e2.degree_cap
    space = SpacePresentation(
        name="two-page",
        degree_cap=cap,
        cohomology=AlgebraPresentation(
            (Generator("x3", 3, 3), Generator("x5", 5, 4)), cap
        ),
        loop_homology=AlgebraPresentation(
            tuple(
                Generator(f"u{d}", d, h)
                for d, h in ((2, 2), (4, 2), (7, None), (18, None))
            ),
            cap,
        ),
        permanent_cycles=["x1_2", "x1_4"],
        extra_generators=[ExtraGenerator("y8", 7, 3)],
    )
    model = LoopSpaceModel(space)
    model.__dict__.update(e2=e2, _tower=TruncationTower(e2, specs))
    return model


def unfolded_spin9_model() -> LoopSpaceModel:
    """spin9 at cap 36 handed the fold with no differential, whose
    E-infinity (E2) does not match the cohomology: product classes lie in
    degrees where the cohomology vanishes, at every stage."""
    model = LoopSpaceModel(builtin("spin9"), degree_cap=36)
    model.__dict__["_tower"] = TruncationTower(model.e2, [])
    return model


FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))


def bound_cases():
    """spin9 at caps 36-68, toy-trunc-poly, SU(4..7), the two-page model
    (handed its fold) and every fixture file that validates, each as a
    maker of a fresh model."""
    cases = [
        *(
            pytest.param(
                lambda cap=cap: LoopSpaceModel(builtin("spin9"), degree_cap=cap),
                id=f"spin9-{cap}",
            )
            for cap in (36, 44, 52, 68)
        ),
        pytest.param(
            lambda: LoopSpaceModel(builtin("toy-trunc-poly")), id="toy-trunc-poly"
        ),
        *(
            pytest.param(lambda n=n: LoopSpaceModel(su_space(n)), id=f"su{n}")
            for n in (4, 5, 6, 7)
        ),
        pytest.param(two_page_model, id="two-page"),
        pytest.param(unfolded_spin9_model, id="spin9-unfolded"),
    ]
    for path in FIXTURES:
        if not validate(SpacePresentation.load(path)):
            cases.append(pytest.param(
                lambda path=path: LoopSpaceModel(SpacePresentation.load(path)),
                id=path.stem,
            ))
    return cases


@pytest.mark.parametrize("make", bound_cases())
def test_the_witness_walk_ends_where_no_stage_can_hold_a_candidate(make):
    """Past the walk's end no stage up to the cap has a candidate or a
    witness, and the walk finds the witnesses a walk over every stage
    up to the cap finds; a model whose inference fails raises the same
    error either way."""
    try:
        full = full_walk(make())
    except ValueError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            make().witnesses
        return
    model = make()
    assert model.witnesses == full
    for m in range(walk_end(model) + 1, model.space.degree_cap + 1):
        assert model._candidates(m) == []
        assert model.find_obstruction(m) is None
        assert not [
            cls for cls in reference_candidates(model, m)
            if set(model._square_tests(cls)[1]) != {None}
        ]


@pytest.mark.parametrize(
    "make",
    [
        *(
            pytest.param(
                lambda cap=cap: LoopSpaceModel(builtin("spin9"), degree_cap=cap),
                id=f"spin9-{cap}",
            )
            for cap in (36, 52)
        ),
        pytest.param(
            lambda: LoopSpaceModel(builtin("toy-trunc-poly")), id="toy-trunc-poly"
        ),
        pytest.param(lambda: LoopSpaceModel(su_space(5)), id="su5"),
        pytest.param(two_page_model, id="two-page"),
    ],
)
def test_stage_report_matches_a_per_state_listing(make):
    """Every stage's report, read from one record per column and alive
    count, is the stage listed state by state through the tower's stage
    listing, whichever stage is asked for first."""
    for descending in (False, True):
        model = make()
        stages = range(-1, model.space.degree_cap + 1)
        for m in reversed(stages) if descending else stages:
            assert model.stage_report(m) == per_state_report(model, m)


def reference_candidates(model: LoopSpaceModel, m: int):
    """Stage m's non-residual classes in degrees with no cohomology, from
    a from-scratch truncation classified bidegree by bidegree."""
    if m < 0:
        return []
    extra = next(iter(model.space.extra_generators), None)
    page = truncate(model.e2, m, model._tower.specs)
    report = classify_truncation(
        page,
        m,
        surviving(model.e_infinity),
        partial_gen=f"x1_{extra.t}" if extra else None,
        extension_height=extra.extension_height if extra else 0,
    )
    return [
        cls for cls, b in report
        if b != BUCKET_RESIDUAL and not model.algebra.basis(cls.degree)
    ]


@pytest.mark.parametrize(
    "make",
    [
        *(
            pytest.param(
                lambda cap=cap: LoopSpaceModel(builtin("spin9"), degree_cap=cap),
                id=f"spin9-{cap}",
            )
            for cap in (36, 44, 52)
        ),
        pytest.param(
            lambda: LoopSpaceModel(builtin("toy-trunc-poly")),
            id="toy-trunc-poly",
        ),
        *(
            pytest.param(lambda n=n: LoopSpaceModel(su_space(n)), id=f"su{n}")
            for n in (4, 5, 6)
        ),
        pytest.param(two_page_model, id="two-page"),
        pytest.param(unfolded_spin9_model, id="spin9-unfolded"),
    ],
)
def test_candidates_match_an_unfiltered_walk(make):
    """Walking only the bidegrees where some monomial can lead a
    non-residual class, in degrees from which some square reaches the
    cohomology, finds every stage's witness candidates: every class the
    degree filter drops has no Sq^k test."""
    model = make()
    series = model.algebra.poincare_series()
    reach = {
        d for d, dim in enumerate(series)
        if not dim and any(series[d + 1:d + model._max_k + 1])
    }
    found, dropped = [], []
    for m in range(-1, model.space.degree_cap + 1):
        want = reference_candidates(model, m)
        assert model._candidates(m) == [c for c in want if c.degree in reach]
        found += [c for c in want if c.degree in reach]
        dropped += [c for c in want if c.degree not in reach]
    for cls in dropped:
        assert set(model._square_tests(cls)[1]) == {None}, cls
    if model.space.name in ("spin9", "two-page"):
        assert found  # the comparison is not vacuous
    if model.space.degree_cap > 36:
        assert dropped  # past H's top degree, 36, no square reaches H


def test_lowest_stage_decides_whether_a_class_can_be_non_residual():
    """Over partial exponents 0..2, factor counts 0..6, both survival
    flags and heights 1..4, a class is non-residual at some stage
    m <= factors + height + 1 exactly when it is at m = factors + 1, the
    one stage `can_be_non_residual` asks."""
    grid = product(range(3), range(7), (False, True), range(1, 5))
    for partial, factors, rest_alive, height in grid:
        key = partial, factors, rest_alive
        somewhere = any(
            bucket(*key, m, height) != BUCKET_RESIDUAL
            for m in range(factors + height + 2)
        )
        lowest = bucket(*key, factors + 1, height) != BUCKET_RESIDUAL
        assert somewhere == lowest == can_be_non_residual(*key, height), (
            key, height
        )


def test_spin9_walks_only_bidegrees_that_can_hold_a_witness():
    """At cap 52, 6 of the 90 reported bidegrees in degrees with no
    cohomology have a monomial that can lead a non-residual class and a
    square that can reach the cohomology."""
    model = LoopSpaceModel(builtin("spin9"), degree_cap=52)
    vanishing = [
        (s, t)
        for s, t in model.e2.basis
        if s + t <= 52 and not model.algebra.basis(s + t)
    ]
    assert (len(vanishing), len(model._vanishing_keys)) == (90, 6)


@pytest.mark.parametrize("cap, monomials", [(36, 122), (52, 208)])
def test_spin9_report_evaluates_leibniz_once_per_monomial(
    monkeypatch, cap, monomials
):
    """Each candidate tower evaluates d_r on each monomial of its touched
    factor A = F2[x1_2] (x) Lambda(x1_10) at most once, for its d^2 check
    and its fold together: at most 24 (35) evaluations at cap 36 (52),
    where E2 has 122 (208) monomials, scratch degrees included."""
    calls = Counter()
    real_leibniz = specseq.leibniz

    def counting_leibniz(lattice, bit, exps, values):
        # A spec is keyed by its values' monomials.
        spec = tuple((i, tuple(monomials)) for i, monomials in values)
        calls[spec, exps] += 1
        return real_leibniz(lattice, bit, exps, values)

    monkeypatch.setattr(specseq, "leibniz", counting_leibniz)
    model = LoopSpaceModel(builtin("spin9"), degree_cap=cap)
    _, code = build_report(model, truncations=[0, 7, 8, 20, cap])
    assert code == 0
    assert sum(map(len, cells(model.e2.lattice).values())) == monomials
    factor = {36: 24, 52: 35}[cap]
    assert sum(map(len, model._tower._cells.values())) == factor
    assert calls and max(calls.values()) == 1
    per_tower = Counter(spec for spec, _ in calls)
    assert max(per_tower.values()) <= factor


def count_search_work(monkeypatch, space, cap=None):
    """Report on `space` at degree cap `cap` (None: its own); return
    (model, truncation homology steps, squared classes, squares computed).

    A step is one `homology_at` call, keyed by (r, s, t, d_r alive).  The
    untruncated fold runs before counting starts, so the steps are the
    stage truncations' own.  A squared class is a monomial whose squares
    the search reads; a computed square is a monomial whose squares the
    action builds, in the search or in the Cartan recursion under it.
    """
    steps, squared, built = [], set(), []
    real_homology = specseq.homology_at
    real_squares = SteenrodAction.squares
    depth = [0]

    def counting_homology(page, spec, s, t, vecs, incoming, alive, d):
        steps.append((spec.r, s, t, alive))
        return real_homology(page, spec, s, t, vecs, incoming, alive, d)

    def counting_squares(self, mono):
        if not depth[0]:
            squared.add(mono)
        if mono not in self._squares:
            built.append((id(self), mono))
        depth[0] += 1
        try:
            return real_squares(self, mono)
        finally:
            depth[0] -= 1

    model = LoopSpaceModel(space, degree_cap=cap)
    model.e_infinity
    monkeypatch.setattr(specseq, "homology_at", counting_homology)
    monkeypatch.setattr(SteenrodAction, "squares", counting_squares)
    _, code = build_report(model, truncations=[0, 7, 8, 20, 36])
    assert code == 0
    return model, steps, squared, built


def test_spin9_search_work_is_bounded(monkeypatch):
    """At caps 36, 44 and 52, each bidegree state of the truncations is
    folded once; the search squares at most 6 classes, and each
    monomial's squares are computed once."""
    for cap, last_column in ((36, 13), (44, 16), (52, 18)):
        with monkeypatch.context() as patch:
            model, steps, squared, built = count_search_work(
                patch, builtin("spin9"), cap
            )
        assert model._tower.last_column == last_column
        # One differential: at most two states (d_3 alive or not) per bidegree.
        assert len(steps) == len(set(steps)) <= 2 * len(model.e2.basis)
        assert len(built) == len(set(built))
        assert 0 < len(squared) <= 6, cap


@pytest.mark.parametrize("cap, searches", [(36, 9), (44, 9), (52, 9), (68, 9)])
def test_spin9_report_searches_each_stage_once(monkeypatch, cap, searches):
    """A report walks the stages once, up to the last stage at which a
    vanishing bidegree can hold a candidate (stage 8, the end of the
    partial window of the five-factor leads), and its Mwgt bound and
    witness list both read that walk."""
    calls = []
    real_find = LoopSpaceModel.find_obstruction

    def counting_find(self, m):
        calls.append(m)
        return real_find(self, m)

    monkeypatch.setattr(LoopSpaceModel, "find_obstruction", counting_find)
    model = LoopSpaceModel(builtin("spin9"), degree_cap=cap)
    report, code = build_report(model, truncations=[0, 7, 8, 20, cap])
    assert code == 0
    assert calls == list(range(walk_end(model) + 1))
    assert len(calls) == searches
    assert [w["m"] for w in report["witnesses"]] == [3, 4, 5, 6, 7]


@pytest.mark.parametrize("cap", [36, 52])
def test_spin9_report_counts_e_infinity_once(monkeypatch, cap):
    """Inference's dimension check is the one count of E-infinity's
    classes: the report's dims are the ones it compared."""
    calls = []
    real_dims = TruncationTower._dims

    def counting_dims(self):
        calls.append(self)
        return real_dims(self)

    monkeypatch.setattr(TruncationTower, "_dims", counting_dims)
    model = LoopSpaceModel(builtin("spin9"), degree_cap=cap)
    report, code = build_report(model, truncations=[7, 8, 9])
    assert code == 0
    assert calls == [model._tower]
    dims = report["spectral_sequence"]["e_infinity_dims"]
    assert dims == list(real_dims(TruncationTower(model.e2, model.differentials)))


def test_spin9_report_folds_once(monkeypatch):
    """A report folds d_3 over E2 once, in inference's tower; E-infinity
    and the all-alive truncation states are read from that fold."""
    calls = {"homology": 0}
    real_homology = specseq.homology_at

    def counting_homology(*args, **kwargs):
        calls["homology"] += 1
        return real_homology(*args, **kwargs)

    monkeypatch.setattr(specseq, "homology_at", counting_homology)
    model = LoopSpaceModel(builtin("spin9"))
    _, code = build_report(model, truncations=[0, 7, 8, 20, 36])
    assert code == 0
    # At most 108 E2 bidegrees for the fold (90 of them in reported
    # degrees) and as many truncation states past it.
    assert calls["homology"] <= 216


@pytest.mark.parametrize(
    "make, factor",
    [
        pytest.param(lambda: builtin("spin9"), ["x1_2", "x1_10"], id="spin9"),
        pytest.param(lambda: padded_spin9(8, 12), ["x1_2", "x1_10"], id="padded"),
        pytest.param(lambda: su_space(4), [], id="su4"),
        pytest.param(
            lambda: builtin("toy-trunc-poly"), ["x1_2", "x1_10"], id="toy-trunc-poly"
        ),
    ],
)
def test_a_tower_folds_the_generators_its_differentials_touch(make, factor):
    """spin9's d_3(x1_10) = x1_2^4 touches x1_2 and x1_10 alone, with or
    without more permanent exterior factors, so its tower folds A =
    F2[x1_2] (x) Lambda(x1_10) over A's own cells, the lattice monomials
    whose other exponents are all 0, scratch degrees included, and reads
    its states as A's classes times B, the monomials in the other
    generators up to the report cap.  SU(4) has no differential, so A is
    {1} and B the whole lattice; toy-trunc-poly's touches both its
    generators, so A is the whole lattice and B is {1}."""
    tower = LoopSpaceModel(make())._tower
    e2 = tower.e2
    names = [g.name for g in e2.lattice.generators]
    assert {name for name, k in zip(names, tower._mask) if k} == set(factor)
    want_a, want_b = {}, {}
    for key, cell in cells(e2.lattice).items():
        for exps in cell:
            if not any(e for name, e in zip(names, exps) if name not in factor):
                want_a.setdefault(key, []).append(exps)
            if sum(key) <= e2.degree_cap and not any(
                e for name, e in zip(names, exps) if name in factor
            ):
                want_b.setdefault(key, []).append(exps)
    b_cells = {
        (s, t): bs for s, column in tower._b_columns.items() for t, bs in column
    }
    assert tower._cells == {key: tuple(a) for key, a in want_a.items()}
    assert b_cells == {key: tuple(b) for key, b in want_b.items()}
    unit = (0,) * len(names)
    assert (tower._cells == {(0, 0): (unit,)}) == (not factor)
    assert (b_cells == {(0, 0): (unit,)}) == (len(factor) == len(names))


@pytest.mark.parametrize("cap", [36, 52])
def test_spin9_folds_once_per_factor_state(monkeypatch, cap):
    """spin9's fold runs over the classes of its touched factor A =
    F2[x1_2] (x) Lambda(x1_10) alone (`_base`), not once per monomial of
    Lambda(x1_4, x1_6, x1_14): the untruncated fold makes one
    `homology_at` call per bidegree of A, and a report with --truncate
    7,8,9 at most two (d_3 alive or not).  Padding spin9 with permanent
    exterior factors leaves A's classes, and so both bounds, as they are.
    The report's exact count can move with the padding (38, 38, 38 at cap
    36; 49, 50, 51 at cap 52): a block x1_8 b sits one column right of b,
    so a truncation can read an A state with the other alive count."""
    calls = []
    real_homology = specseq.homology_at

    def counting_homology(*args):
        calls.append(args[2:4])
        return real_homology(*args)

    monkeypatch.setattr(specseq, "homology_at", counting_homology)
    factors = []
    for sp in (builtin("spin9"), padded_spin9(8), padded_spin9(8, 12)):
        calls.clear()
        model = LoopSpaceModel(sp, degree_cap=cap)
        _, code = build_report(model, truncations=[7, 8, 9])
        assert code == 0
        tower = model._tower
        base = tower._base
        assert len(calls) <= 2 * len(base)
        factors.append({
            key: [model.e2.class_str(cls) for cls in tower._classes(0, *key, 0)]
            for key in base
        })
        calls.clear()
        TruncationTower(model.e2, model.differentials).page()
        assert len(calls) == len(set(calls)) == len(base)
    assert factors[1:] == factors[:-1]


def test_spin9_pages_hold_only_reported_degrees():
    """A's cells reach DEFAULT_SCRATCH degrees past the cap, as d_r
    targets, but every A state a report folds stops at the cap, and so do
    E2's classes, which the report does not walk."""
    model = LoopSpaceModel(builtin("spin9"), degree_cap=52)
    _, code = build_report(model, truncations=[0, 7, 8, 17, 18, 20, 52])
    assert code == 0
    tower = model._tower
    assert "classes" not in vars(model.e2.lattice_cells)
    assert max(s + t for s, t in tower._cells) == 52 + DEFAULT_SCRATCH
    assert tower._folded
    assert all(s + t <= 52 for _, s, t, _ in tower._folded)
    assert max(s + t for s, t in model.e2.basis) == 52


def test_spin9_last_column_is_read_over_the_cells():
    """The last E2 column is the cells' (18 at cap 52), not the reported
    classes' (17); the witness walk ends before either, at stage 8."""
    model = LoopSpaceModel(builtin("spin9"), degree_cap=52)
    e2 = model.e2
    assert model._tower.last_column == max(s for s, _ in cells(e2.lattice)) == 18
    assert max(s for s, _ in e2.basis) == 17
    assert walk_end(model) == 8


@pytest.mark.parametrize("cap", [36, 44, 52])
def test_spin9_report_folds_no_scratch_degree(monkeypatch, cap):
    """No `homology_at` call of a spin9 report lands past the cap."""
    degrees = []
    real_homology = specseq.homology_at

    def counting_homology(page, spec, s, t, *args):
        degrees.append(s + t)
        return real_homology(page, spec, s, t, *args)

    monkeypatch.setattr(specseq, "homology_at", counting_homology)
    model = LoopSpaceModel(builtin("spin9"), degree_cap=cap)
    _, code = build_report(model, truncations=[0, 7, 8, 20, cap])
    assert code == 0
    assert degrees and max(degrees) <= cap


def test_trivial_e_infinity_leaves_e2_alone():
    """With no differential, E-infinity is E2 itself: the tower builds no
    page for it, the report's stages read E2's own classes, and E2 still
    reads as page 2 with no column cap."""
    model = LoopSpaceModel(su_space(4))
    _, code = build_report(model, truncations=[0, 3])
    assert code == 0
    assert model.e_infinity is model.e2
    assert model._tower._pages == {}
    assert page_json(model.e2)["r"] == 2
    assert model.e2.column_cap is None


@pytest.mark.parametrize("n", [16, 24])
def test_su_report_reads_no_e2_cell(monkeypatch, n):
    """An SU(n) report reads no E2 cell and no E2 shape: E-infinity is E2,
    no class is classified, and the last column, wgt and E2's dims come
    from the lattice's generators.  Its Steenrod table is read as terms,
    so neither its cohomology, of 2^(n - 1) monomials, nor the E2 lattice
    builds a basis."""
    walks, bases = [], []
    real = specseq._walk_cells
    monkeypatch.setattr(
        specseq, "_walk_cells", lambda *args: walks.append(1) or real(*args)
    )
    real_basis = Algebra.basis
    monkeypatch.setattr(
        Algebra, "basis", lambda alg, d: bases.append(d) or real_basis(alg, d)
    )
    model = LoopSpaceModel(su_space(n))
    report, code = build_report(model)
    assert walks == [] and bases == []
    assert code == 0
    assert report["bounds"]["bracket"]["lo"] == n - 1
    assert model.e_infinity is model.e2
    assert sum(model.algebra.poincare_series()) == 2 ** (n - 1)


@pytest.mark.parametrize(
    "argv, walks",
    [
        (["report", "spin9", "--truncate", "7,8,9", "--format", "json"], 0),
        (["dump-page", "spin9", "--page", "2", "--degree-cap", "52"], 1),
        (["dump-page", "spin9", "--page", "4", "--truncate", "8"], 0),
        (["report", "toy-trunc-poly", "--format", "json"], 0),
        (["report", "unit", "--format", "json"], 0),
    ],
)
def test_e2_is_walked_once(monkeypatch, argv, walks):
    """E2's cells are walked once where E2 is the output, a page before
    the first possible differential, and nowhere else: a report and a
    later page read the touched factor's own cells and B's monomials."""
    calls = []
    real = specseq._walk_cells
    monkeypatch.setattr(
        specseq, "_walk_cells", lambda *args: calls.append(1) or real(*args)
    )
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert len(calls) == walks


@pytest.mark.parametrize("cap", [36, 44, 52])
def test_spin9_reports_and_later_pages_walk_no_e2(monkeypatch, cap):
    """A spin9 report with every stage listed, and `dump-page` at pages 4
    and 5 untruncated and at every truncation, read the touched factor's
    cells and B's monomials: none of them walks E2."""
    calls = []
    real = specseq._walk_cells
    monkeypatch.setattr(
        specseq, "_walk_cells", lambda *args: calls.append(1) or real(*args)
    )
    stages = ",".join(map(str, range(cap + 1)))
    argvs = [["report", "spin9", "--degree-cap", str(cap), "--truncate", stages,
              "--format", "json"]]
    for r in (4, 5):
        for m in (None, *range(cap + 1)):
            argv = ["dump-page", "spin9", "--degree-cap", str(cap), "--page", str(r)]
            argvs.append(argv + ([] if m is None else ["--truncate", str(m)]))
    with redirect_stdout(io.StringIO()):
        for argv in argvs:
            assert cli.main(argv) == 0, argv
    assert calls == []


def test_su_search_squares_nothing(monkeypatch):
    """No SU(5) class sits in a degree where the cohomology vanishes."""
    model, steps, squared, built = count_search_work(monkeypatch, su_space(5))
    assert model._tower.last_column == 4
    assert steps == []  # no differential: every truncation is read off E2
    assert squared == set() and built == []
    assert model.mwgt_lower_bound() == 0


def test_failed_stage_is_not_reported_as_no_witness():
    """A stage that cannot be classified raises instead of returning None:
    the suspension match fails for the weight and for every stage."""
    space = su_space(4)
    space.extra_generators = [
        ExtraGenerator("y9", 8, 3), ExtraGenerator("y13", 12, 3)
    ]
    model = LoopSpaceModel(space)
    message = "^at most one partial-product generator supported$"
    with pytest.raises(FixtureError, match=message):
        model.wgt_space()
    with pytest.raises(FixtureError, match=message):
        model.find_obstruction(2)


def test_extra_generator_off_e2_raises():
    """A partial-product generator whose suspension x1_t is not an E2
    generator fails through the library too, never as "no witness"."""
    space = builtin("spin9")
    space.extra_generators[0].t = 12
    model = LoopSpaceModel(space)
    message = "^x11: x1_12 is not an E2 generator$"
    with pytest.raises(FixtureError, match=message):
        model.mwgt_lower_bound()
    with pytest.raises(FixtureError, match=message):
        model.stage_report(7)


def test_spin9_classifies_each_state_once(monkeypatch):
    """A report classifies each tower state's classes once and maps each
    leading monomial into the extended algebra once, not once per stage."""
    facts, mapped = [], []
    real_facts = weights.class_facts
    real_map = LoopSpaceModel._extended_exps_of_lattice

    def counting_facts(*args):
        facts.append(args)
        return real_facts(*args)

    def counting_map(self, exps):
        mapped.append(exps)
        return real_map(self, exps)

    monkeypatch.setattr(weights, "class_facts", counting_facts)
    monkeypatch.setattr(
        LoopSpaceModel, "_extended_exps_of_lattice", counting_map
    )
    model = LoopSpaceModel(builtin("spin9"))
    _, code = build_report(model, truncations=[0, 7, 8, 20, 36])
    assert code == 0
    tower = model._tower
    j = len(tower.specs)
    states = {
        state
        for m in range(model._tower.last_column + 1)
        for state in tower.stage(m)
        if state[0] + state[1] <= model.space.degree_cap
    }
    assert len(facts) <= sum(len(tower.state(j, *state)) for state in states)
    assert len(mapped) == len(set(mapped))


def test_stages_share_their_states_class_records():
    """A stage's report pairs the model's one record per class of each of
    its tower states with the class's bucket at that stage: spin9's stages
    7 and 8 hold the same objects wherever they share a state, and each
    witness candidate is one of those records, not a copy."""
    model = LoopSpaceModel(builtin("spin9"))
    height = model._extension_height
    reports, states = {}, {}
    for m in (7, 8):
        reports[m] = model.stage_report(m)
        states[m] = model._tower.stage(m)
        held = [
            cls for state in states[m] for cls in model._state_classes[state]
        ]
        assert len(reports[m]) == len(held)
        for (got, b), cls in zip(reports[m], held):
            assert got is cls
            assert b == bucket(*cls.key, m, height)
    shared = set(states[7]) & set(states[8])
    assert shared and shared != set(states[8])
    shared_keys = {(s, t) for s, t, _ in shared}
    by_m = {
        m: [pair for pair in reports[m] if (pair[0].s, pair[0].t) in shared_keys]
        for m in (7, 8)
    }
    assert by_m[7] and len(by_m[7]) == len(by_m[8])
    assert all(a is b for (a, _), (b, _) in zip(by_m[7], by_m[8]))
    candidates = [
        cls for m in range(model.space.degree_cap + 1) for cls in model._candidates(m)
    ]
    kept = {id(cls) for classes in model._state_classes.values() for cls in classes}
    assert candidates and all(id(cls) in kept for cls in candidates)


def test_su_labels_each_class_once(monkeypatch):
    """SU(7) has no differential: each of its 64 classes is labelled once
    for the whole report."""
    calls = []
    real_str = Algebra.monomial_str

    def counting_str(self, exps):
        calls.append((self, exps))
        return real_str(self, exps)

    monkeypatch.setattr(Algebra, "monomial_str", counting_str)
    model = LoopSpaceModel(su_space(7))
    _, code = build_report(model, truncations=[0, 3, 7, 20])
    assert code == 0
    labels = [exps for algebra, exps in calls if algebra is model.e2.lattice]
    assert len(labels) == len(set(labels)) == 64


def counting_stage_calls(monkeypatch) -> list:
    """(tower, m) of each `TruncationTower.stage` call from here on."""
    listed = []
    real_stage = specseq.TruncationTower.stage

    def counting_stage(self, m=None, j=None):
        listed.append((self, m))
        return real_stage(self, m, j)

    monkeypatch.setattr(specseq.TruncationTower, "stage", counting_stage)
    return listed


def test_su_report_lists_no_stage(monkeypatch):
    """No SU(7) class lies in a degree where the cohomology vanishes, and
    every E2 generator matches: a report classifies no class and lists
    no stage, not even the untruncated one, since E-infinity is E2."""
    facts = []
    real_facts = weights.class_facts

    def counting_facts(*args):
        facts.append(args)
        return real_facts(*args)

    monkeypatch.setattr(weights, "class_facts", counting_facts)
    listed = counting_stage_calls(monkeypatch)
    model = LoopSpaceModel(su_space(7))
    _, code = build_report(model)
    assert code == 0
    assert facts == []
    assert listed == []


def test_spin9_report_lists_only_truncate_stages(monkeypatch):
    """The witness search reads tower states, and the stages read column
    records, never a stage listing: a spin9 report builds one record per
    (column, alive count) its truncations name, and none without them."""
    listed = counting_stage_calls(monkeypatch)
    columns = []
    real_column = specseq.TruncationTower.column

    def counting_column(self, j, s, alive):
        columns.append((s, alive))
        return real_column(self, j, s, alive)

    monkeypatch.setattr(specseq.TruncationTower, "column", counting_column)
    for truncations in ([], [7, 8, 9]):
        listed.clear()
        columns.clear()
        model = LoopSpaceModel(builtin("spin9"))
        _, code = build_report(model, truncations=truncations)
        assert code == 0
        assert listed == []
        tower = model._tower
        named = {
            (s, tower.alive(s, m))
            for m in truncations
            for s in range(min(m, tower.last_column) + 1)
        }
        assert len(columns) == len(set(columns))
        assert set(columns) == named
    assert len(named) < sum(m + 1 for m in truncations)  # stages share


def test_untruncated_stage_is_listed_once(monkeypatch):
    """The inference's dimension check and a report read E-infinity off
    the touched factor and B, with no page: a spin9 report lists no
    untruncated stage of any tower, and a dump-page past its last
    differential lists the model's tower's once."""
    listed = counting_stage_calls(monkeypatch)
    model = LoopSpaceModel(builtin("spin9"))
    _, code = build_report(model, truncations=[7, 8, 9])
    assert code == 0
    assert [m for _, m in listed if m is None] == []
    assert model._tower._pages == {}
    assert model.e_infinity is model._tower.page()

    listed.clear()
    with redirect_stdout(io.StringIO()):
        assert cli.main(["dump-page", "spin9", "--page", "4"]) == 0
    untruncated = Counter(tower for tower, m in listed if m is None)
    assert untruncated and set(untruncated.values()) == {1}


def test_model_algebras_are_freed_by_refcount():
    """No reference cycle keeps an algebra alive: with the cyclic collector
    off, dropping the model frees its cohomology and E2 lattice algebras."""
    gc.disable()
    try:
        model = LoopSpaceModel(builtin("spin9"))
        _, code = build_report(model, truncations=[0, 7, 8, 20])
        assert code == 0
        refs = [weakref.ref(model.algebra), weakref.ref(model.e2.lattice)]
        del model
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def cp_infinity_space() -> SpacePresentation:
    """CP^infinity-like: F2[x2], unbounded, against the E2 of Lambda(u1),
    which is F2[x1_1], at cap 12."""
    return SpacePresentation(
        name="cp-infinity",
        degree_cap=12,
        cohomology=AlgebraPresentation((Generator("x2", 2, None),), 12),
        loop_homology=AlgebraPresentation((Generator("u1", 1, 2),), 12),
        permanent_cycles=["x1_1"],
    )


@pytest.mark.parametrize(
    "name, cap",
    [
        *(
            (name, cap)
            for name in (
                "spin9", "toy-trunc-poly", "unit", *(f"su{n}" for n in range(3, 9))
            )
            for cap in (20, 52, None)
        ),
        *((f"su{n}", cap) for n in range(9, 15) for cap in (20, None)),
        ("cp-infinity", None),
    ],
)
def test_wgt_equals_cup_length(name, cap):
    """wgt, read off E-infinity's bidegrees, is the cup-length on every
    fixture: at its own cap (None) and at cap 20, and up to SU(8) at cap
    52 too.  Each fixture's E-infinity is generated by suspension classes
    in filtration 1, so its top filtration counts the factors of a longest
    product.  The ledger's wgt and cuplen entries agree, and on the
    unbounded cohomology of cp-infinity both are lower bounds."""
    if name.startswith("su"):
        space = su_space(int(name[2:]))
    elif name == "cp-infinity":
        space = cp_infinity_space()
    else:
        space = builtin(name)
    model = LoopSpaceModel(space, degree_cap=cap)
    assert model.wgt_space() == model.cup_length()
    ledger = {e.quantity: e for e in build_ledger(model).entries}
    assert ledger["wgt"].value == ledger["cuplen"].value == model.cup_length()
    assert ledger["wgt"].kind == ledger["cuplen"].kind
    if name == "cp-infinity":
        assert model.cup_length() == 6
        assert ledger["wgt"].kind == "lower"
