"""Category weight and the module-weight obstruction on the fixtures."""

from math import comb

import pytest

from lscat import specseq
from lscat.algebra import AlgebraPresentation, Generator
from lscat.report import build_report
from lscat.spaces import ExtraGenerator, SpacePresentation, builtin
from lscat.specseq import BUCKET_RESIDUAL, classify_truncation, truncate
from lscat.steenrod import SteenrodAction
from lscat.weights import LoopSpaceModel, ObstructionWitness, WeightError


def su_space(n: int) -> SpacePresentation:
    """SU(n): Lambda(x3, ..., x(2n-1)) with Borel's squares
    Sq^(2i) x(2j-1) = C(j-1, i) x(2i+2j-1), loop homology polynomial on
    u2, ..., u(2n-2) (Bott), every suspension class permanent."""
    cap = n * n - 1
    top = 2 * n - 1
    return SpacePresentation(
        name=f"su{n}",
        degree_cap=cap,
        cohomology=AlgebraPresentation(
            tuple(Generator(f"x{d}", d, 2) for d in range(3, top + 1, 2)), cap
        ),
        steenrod=[
            (f"x{2 * j - 1}", 2 * i, [f"x{2 * i + 2 * j - 1}"])
            for j in range(2, n + 1)
            for i in range(1, j)
            if 2 * i + 2 * j - 1 <= top and comb(j - 1, i) % 2
        ],
        loop_homology=AlgebraPresentation(
            tuple(Generator(f"u{d}", d, None) for d in range(2, 2 * n, 2)), cap
        ),
        permanent_cycles=[f"x1_{d}" for d in range(2, 2 * n, 2)],
    )


def reference_stage(model: LoopSpaceModel, m: int):
    """Stage m with no pruning or reuse: (page, report, first witness).

    Truncates and classifies from scratch, squares every computable class
    and scans k ascending, then the classes in report order.
    """
    extra = model._partial_extra
    page = truncate(model.e2, m, model.differentials)
    report = classify_truncation(
        page,
        m,
        model.surviving,
        partial_gen=model._koszul_name_of_extra(extra) if extra else None,
        extension_height=extra.extension_height if extra else 3,
    )
    ext = model._extended_algebra
    extra_idx = [
        i for i, g in enumerate(ext.generators) if extra and g.name == extra.name
    ]
    alive = {cls.leading for cls in report}
    residual_degrees = {
        cls.degree for cls in report if cls.bucket == BUCKET_RESIDUAL
    }
    computable = [cls for cls in report if cls.bucket != BUCKET_RESIDUAL]
    z = {
        cls.leading: ext.element([model._extended_exps_of_lattice(cls.leading)])
        for cls in computable
    }
    squares = {
        lead: model._extended_action.total_square(zc) for lead, zc in z.items()
    }
    max_k = max((g.degree for g in ext.generators), default=0)
    for k in range(1, max_k + 1):
        for cls in computable:
            value = squares[cls.leading].homogeneous_part(cls.degree + k)
            plain = [e for e in value.terms if not any(e[i] for i in extra_idx)]
            if not plain or len(plain) < len(value.terms):
                continue
            u = model.algebra.element(
                tuple(e for i, e in enumerate(exps) if i not in extra_idx)
                for exps in plain
            )
            degree = cls.degree + k
            if (
                not u
                or not any(
                    model._lattice_exps_of_monomial(e) in alive for e in u.terms
                )
                or model.algebra.basis(cls.degree)
                or degree in residual_degrees
            ):
                continue
            assert not model.action.image_of_sq(k, degree)
            return page, report, ObstructionWitness(
                m=m,
                k=k,
                z_label=str(z[cls.leading]),
                u=str(u),
                u_degree=degree,
                vanishing_degree=cls.degree,
                facts=(
                    f"Sq^{k} of the stage-{m} class equals the restriction "
                    f"of a nonzero degree-{degree} class",
                    f"the cohomology of the space vanishes in degree "
                    f"{cls.degree}, so nothing upstairs can map onto it "
                    f"under Sq^{k}",
                    f"no residual stage-{m} class lives in degree {degree}",
                ),
            )
    return page, report, None


@pytest.fixture(scope="module")
def spin9():
    return LoopSpaceModel(builtin("spin9"))


def test_generator_weights(spin9):
    """Criterion 7: every generator has weight 1."""
    alg = spin9.algebra
    for name in ("x3", "x5", "x7", "x15"):
        assert spin9.wgt(alg.gen(name)) == 1


def test_space_weight(spin9):
    """Criterion 7: wgt(Spin(9)) = 6, on the top class."""
    assert spin9.wgt_space() == 6
    alg = spin9.algebra
    top = alg.parse_element(["x3^3*x5*x7*x15"])
    assert spin9.wgt(top) == 6


def test_weight_is_filtration(spin9):
    """Weight of a monomial equals its E-infinity column."""
    alg = spin9.algebra
    assert spin9.wgt(alg.parse_element(["x3^2"])) == 2
    assert spin9.wgt(alg.parse_element(["x3*x5"])) == 2
    assert spin9.wgt(alg.parse_element(["x3^2*x5*x7"])) == 4
    # min over terms
    assert spin9.wgt(alg.parse_element(["x3^2", "x3"])) == 1


def test_weight_undefined_cases(spin9):
    alg = spin9.algebra
    with pytest.raises(WeightError):
        spin9.wgt(alg.zero())
    with pytest.raises(WeightError):
        spin9.wgt(alg.one())


def test_cup_length_vs_weight_ladder(spin9):
    assert spin9.cup_length() <= spin9.wgt_space()


def test_witness_at_stage_seven(spin9):
    """Criterion 8: the k = 4 witness with H^32 = 0 appears at m = 7."""
    w = spin9.find_obstruction(7)
    assert w is not None
    assert w.k == 4
    assert w.u_degree == 36
    assert w.vanishing_degree == 32
    assert w.z_label == "x3^3*x5*x7*x11"
    assert w.u == "x3^3*x5*x7*x15"
    assert not spin9.algebra.basis(32)


def test_no_witness_at_stage_eight(spin9):
    """The stage-8 model has a residual class in the target degree."""
    assert spin9.find_obstruction(8) is None
    residual_36 = [
        c
        for c in spin9.stage_report(8)
        if c.bucket == BUCKET_RESIDUAL and c.degree == 36
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


@pytest.mark.parametrize(
    "space",
    [
        pytest.param((builtin("spin9"), 36), id="spin9-36"),
        pytest.param((builtin("spin9"), 52), id="spin9-52"),
        pytest.param((builtin("toy-trunc-poly"), None), id="toy-trunc-poly"),
        *(pytest.param((su_space(n), None), id=f"su{n}") for n in (4, 5, 6)),
    ],
)
def test_pruned_search_matches_reference(space):
    """Filtering, square caching and stage reuse change no stage or witness."""
    presentation, cap = space
    model = LoopSpaceModel(presentation, degree_cap=cap)
    cap = model.space.degree_cap
    assert model.stable_stage < cap  # the reuse is exercised
    witnessed = []
    # Descending, so later stages are asked for before the stable one.
    for m in range(cap, -1, -1):
        page, report, witness = reference_stage(model, m)
        assert model.find_obstruction(m) == witness
        assert model.stage_report(m) == report
        assert model.truncation(m).to_json() == page.to_json()
        assert (
            model.truncation(m).surviving_leading_monomials()
            == page.surviving_leading_monomials()
        )
        if witness is not None:
            witnessed.append(m)
    assert model.mwgt_lower_bound() == (max(witnessed) + 1 if witnessed else 0)


def count_search_work(monkeypatch, space):
    """Report on `space`; return (model, truncation homology steps, squared
    classes).

    A step is one `homology_at` call, keyed by (r, s, t, d_r alive).  The
    untruncated fold runs before counting starts, so the steps are the
    stage truncations' own.
    """
    steps, squared = [], []
    real_homology = specseq.homology_at
    real_square = SteenrodAction.total_square

    def counting_homology(page, spec, vecs, incoming, alive=True):
        steps.append((spec.r, *page.bidegree(min(vecs[0])), alive))
        return real_homology(page, spec, vecs, incoming, alive)

    def counting_square(self, e):
        squared.append(e.terms)
        return real_square(self, e)

    model = LoopSpaceModel(space)
    model.e_infinity
    monkeypatch.setattr(specseq, "homology_at", counting_homology)
    monkeypatch.setattr(SteenrodAction, "total_square", counting_square)
    _, code = build_report(model, truncations=[0, 7, 8, 20, 36])
    assert code == 0
    return model, steps, squared


def test_spin9_search_work_is_bounded(monkeypatch):
    """Each bidegree state of the truncations is folded once; each class is
    squared once."""
    model, steps, squared = count_search_work(monkeypatch, builtin("spin9"))
    assert model.saturation_column == 13
    # One differential: at most two states (d_3 alive or not) per bidegree.
    assert len(steps) == len(set(steps)) <= 2 * len(model.e2.basis)
    assert len(squared) == len(set(squared)) <= 6


def test_spin9_report_folds_once(monkeypatch):
    """A report folds d_3 over E2 once (inference); E-infinity and the
    all-alive truncation states are read from that fold."""
    calls = {"apply": 0, "homology": 0}
    real_apply = specseq.apply_differential
    real_homology = specseq.homology_at

    def counting_apply(*args, **kwargs):
        calls["apply"] += 1
        return real_apply(*args, **kwargs)

    def counting_homology(*args, **kwargs):
        calls["homology"] += 1
        return real_homology(*args, **kwargs)

    monkeypatch.setattr(specseq, "apply_differential", counting_apply)
    monkeypatch.setattr(specseq, "homology_at", counting_homology)
    model = LoopSpaceModel(builtin("spin9"))
    _, code = build_report(model, truncations=[0, 7, 8, 20, 36])
    assert code == 0
    assert calls["apply"] == 1
    # 108 E2 bidegrees for the fold, 108 truncation states past it.
    assert calls["homology"] <= 216


def test_trivial_e_infinity_leaves_e2_alone():
    """With no differential, E-infinity shares E2's classes but not its
    page object, so E2 still reads as page 2."""
    model = LoopSpaceModel(su_space(4))
    _, code = build_report(model, truncations=[0, 3])
    assert code == 0
    assert model.e_infinity is not model.e2
    assert model.e_infinity.basis is model.e2.basis
    assert model.e2.to_json()["r"] == 2
    assert model.e_infinity.to_json()["r"] == "infinity"


def test_su_search_squares_nothing(monkeypatch):
    """No SU(5) class sits in a degree where the cohomology vanishes."""
    model, steps, squared = count_search_work(monkeypatch, su_space(5))
    assert model.saturation_column == 4
    assert steps == []  # no differential: every truncation is read off E2
    assert squared == []
    assert model.mwgt_lower_bound() == 0


def test_failed_stage_is_not_reported_as_no_witness():
    """A stage that cannot be classified raises instead of returning None."""
    space = su_space(4)
    space.extra_generators = [
        ExtraGenerator("y9", 8, 3), ExtraGenerator("y13", 12, 3)
    ]
    model = LoopSpaceModel(space)
    assert model.wgt_space() == 3  # all suspension classes still match
    with pytest.raises(WeightError, match="at most one partial-product"):
        model.find_obstruction(2)
