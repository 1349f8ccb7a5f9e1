"""The model's one E-infinity check for unmatched E2 generators, held
against a walk over every stage (`reference.unmatched_walk`)."""

import random

import pytest

from lscat.algebra import AlgebraPresentation, Generator
from lscat.spaces import (
    ExtraGenerator,
    FixtureError,
    SpacePresentation,
    builtin,
    validate,
)
from lscat.specseq import (
    DifferentialSpec,
    SpectralSequenceError,
    TruncationTower,
    koszul_e2,
)
from lscat.weights import LoopSpaceModel, WeightError
from reference import unmatched_walk
from test_cli import (
    TWO_PAGE,
    ambiguous,
    budget_space,
    no_suspension,
    spin9_extra_at,
    two_extras,
    unmatched_lattice,
)
from test_specseq import assert_matches_the_leibniz_fold
from test_weights import cp_infinity_space, su_space, two_page_model


def message(read):
    """The message of the WeightError `read()` raises, or None."""
    try:
        read()
    except WeightError as exc:
        return str(exc)
    return None


def walk_and_check(model, top=None):
    """The messages of the walk over stages 0..top and of the model's
    E-infinity check, or None when the model fails before the search (in
    its inference or its suspension match)."""
    try:
        model._tower, model.space.match
    except (FixtureError, SpectralSequenceError, WeightError):
        return None
    return (
        message(lambda: unmatched_walk(model, top)),
        message(lambda: model._survivors_match),
    )


def suite_models():
    """A fresh model of every fixture the suite builds."""
    yield from (LoopSpaceModel(builtin("spin9"), cap) for cap in (36, 44, 52))
    yield LoopSpaceModel(builtin("toy-trunc-poly"))
    yield LoopSpaceModel(builtin("unit"))
    yield from (LoopSpaceModel(su_space(n)) for n in (*range(2, 9), 10))
    yield LoopSpaceModel(cp_infinity_space())
    yield two_page_model()
    yield LoopSpaceModel(SpacePresentation.load(TWO_PAGE))
    for data in (
        unmatched_lattice(), no_suspension(), ambiguous(), budget_space(),
        two_extras(), spin9_extra_at(6), spin9_extra_at(12),
        spin9_extra_at(10, name="x3"),
    ):
        yield LoopSpaceModel(SpacePresentation.from_dict(data))


def test_check_raises_as_the_walk_does_on_every_fixture():
    """Of the suite's 24 fixtures, 16 reach the search; the check raises on
    one of them, as the walk does, and on no other."""
    outcomes = []
    for model in suite_models():
        both = walk_and_check(model)
        if both is not None:
            walk, check = both
            assert check == walk, model.space.name
            outcomes.append((model.space.name, check))
    assert len(outcomes) == 16
    assert [o for o in outcomes if o[1]] == [
        ("unmatched-lattice", "x1_3 matches no cohomology class")
    ]


def test_models_read_the_objects_validate_built():
    """The model builds none of what its presentation owns: on each of
    the 18 suite fixtures that pass `validate`, the report's reads (the
    weights and the witness search, where they run) use the very
    algebras, E2 page, Steenrod tables and match that `validate` built,
    and the extended table parses."""
    owned = ("algebra", "action", "e2", "match", "extended_algebra",
             "_extended_squares")
    passed = 0
    for model in suite_models():
        space = model.space
        handed = "e2" in model.__dict__  # `two_page_model` is handed its E2
        if validate(space):
            continue
        passed += 1
        built = {name: space.__dict__[name] for name in owned}
        try:
            model.wgt_space()
            model.mwgt_lower_bound()
        except (SpectralSequenceError, WeightError):
            pass  # inference or the E-infinity check fails after validation
        extended = space.extended_action
        assert extended.algebra is built["extended_algebra"]
        assert extended.table is built["_extended_squares"][0]
        assert model.algebra is built["algebra"]
        assert handed or model.e2 is built["e2"]
        assert all(space.__dict__[name] is built[name] for name in owned)
    assert passed == 18


def planted_space(rng, cap):
    """A presentation whose differentials inference should find, or None
    when two of its generators share a degree.

    It tensors up to two of each of three parts.  A planted pair (b, h)
    has u_b exterior, with x1_b permanent, u_t polynomial with
    t = h(b + 1) - 2, and x_{b+1} of height h, so d_{h-1}(x1_t) = x1_b^h.
    A permanent exterior generator has u_d polynomial, x1_d permanent and
    x_{d+1} exterior.  A swap turns Lambda(a_e) (x) Lambda(a_2e) into
    F2[z_e]/z^4: the dimensions stay, but x1_{2e-1} matches nothing.  Half
    of them declare an extra generator on a planted source or a permanent
    class."""
    loop, coh, permanent, sources = [], [], [], []
    for _ in range(rng.randint(0, 2)):
        b, h = rng.randint(1, 6), rng.choice((3, 4))
        t = h * (b + 1) - 2
        loop += [(b, 2), (t, None)]
        coh.append((f"x{b + 1}", b + 1, h))
        permanent.append(b)
        sources.append(t)
    for _ in range(rng.randint(0, 2)):
        d = rng.randint(1, 12)
        loop.append((d, None))
        coh.append((f"x{d + 1}", d + 1, 2))
        permanent.append(d)
    for _ in range(rng.randint(0, 2)):
        e = rng.randint(2, 9)
        loop += [(e - 1, None), (2 * e - 1, None)]
        coh.append((f"z{e}", e, 4))
        permanent += [e - 1, 2 * e - 1]
    extras = []
    if rng.random() < 0.5 and sources + permanent:
        t = rng.choice(sources + permanent)
        extras = [ExtraGenerator(f"y{t + 1}", t, rng.randint(1, 3))]
    loop_degrees = [d for d, _ in loop]
    coh_degrees = [d for _, d, _ in coh]
    if not loop or any(
        len(set(ds)) < len(ds) for ds in (loop_degrees, coh_degrees)
    ):
        return None
    return LoopSpaceModel(SpacePresentation(
        name="planted",
        degree_cap=cap,
        cohomology=AlgebraPresentation(tuple(Generator(*g) for g in coh), cap),
        loop_homology=AlgebraPresentation(
            tuple(Generator(f"u{d}", d, h) for d, h in loop), cap
        ),
        permanent_cycles=[f"x1_{d}" for d in permanent],
        extra_generators=extras,
    ))


def test_split_planted_folds_match_the_leibniz_fold():
    """Of 300 seeded `planted_space` members, 19 infer a fold that splits
    (a planted pair next to generators no differential touches); each
    gives every truncation as the Leibniz-direct fold over all of E2
    does."""
    split = 0
    for seed in range(300):
        rng = random.Random(seed)
        model = planted_space(rng, rng.randint(6, 20))
        try:
            tower = model and model._tower
        except (FixtureError, SpectralSequenceError, WeightError):
            continue
        if tower and tower.specs and not all(tower._mask):
            assert_matches_the_leibniz_fold(model.e2, tower.specs)
            split += 1
    assert split >= 15, split


def folded_space(rng, cap):
    """A model handed one differential d(x1_g) whose value has a product
    of two or more base suspension classes as a term, or None when that
    term lies past the lattice or the differential does not square to
    zero.  Its cohomology matches either every base class and not x1_g,
    or a random subset; half declare an extra generator on an E2
    generator the cohomology leaves unmatched, a base class if one is
    left.  Inference is not run, so
    the cohomology need not agree with E-infinity; an unmatched x1_g that
    survives only in products leads E-infinity classes past column 1."""
    base = rng.sample(range(1, 8), rng.randint(2, 3))
    heights = {d: rng.choice((2, None)) for d in base}
    exps = {d: rng.randint(0, 1 if heights[d] is None else 3) for d in base}
    g = sum((d + 1) * e for d, e in exps.items()) - 2
    if sum(exps.values()) < 2 or g in base:
        return None
    degrees = [*base, g]
    loop = AlgebraPresentation(
        tuple(
            Generator(f"u{d}", d, heights.get(d, rng.choice((2, None))))
            for d in degrees
        ),
        cap,
    )
    e2 = koszul_e2(loop)
    target = tuple(exps.get(d, 0) for d in degrees)
    cell = e2.lattice_cells.cell(*e2.bidegree(target))
    if not cell:
        return None
    row = 1 << cell.index(target)
    if rng.random() < 0.3:
        row |= rng.randrange(1 << len(cell))
    try:
        tower = TruncationTower(
            e2, [DifferentialSpec(sum(target) - 1, {f"x1_{g}": row})]
        )
    except SpectralSequenceError:
        return None
    gens = e2.lattice.generators
    if rng.random() < 0.5:
        matched = gens[:-1]
    else:
        matched = [x for x in gens if rng.random() < 0.6]
    rest = [x for x in gens if x not in matched]
    extras = []
    if rest and rng.random() < 0.5:
        x = rng.choice(rest[:-1] or rest)  # a base class if one is left
        extras = [ExtraGenerator(f"y{x.degree}", x.degree - 1, rng.randint(1, 3))]
    model = LoopSpaceModel(SpacePresentation(
        name="folded",
        degree_cap=cap,
        cohomology=AlgebraPresentation(
            tuple(
                Generator(f"c{x.degree}", x.degree, rng.choice((2, 3, 4, None)))
                for x in matched
            ),
            cap,
        ),
        loop_homology=loop,
        extra_generators=extras,
    ))
    model.__dict__.update(e2=e2, _tower=tower)
    return model


@pytest.mark.parametrize(
    "make, seeds, caps",
    [
        pytest.param(planted_space, 1000, (6, 20), id="planted"),
        pytest.param(folded_space, 1500, (8, 22), id="folded"),
    ],
)
def test_check_raises_as_the_walk_does_on_generated_spaces(make, seeds, caps):
    """On every generated model that reaches the search, the E-infinity
    check raises exactly when the walk over the stages does, with the same
    message."""
    reached = raised = past_column_1 = 0
    for seed in range(seeds):
        rng = random.Random(seed)
        model = make(rng, rng.randint(*caps))
        both = model and walk_and_check(model)
        if both is None:
            continue
        walk, check = both
        assert check == walk, seed
        reached += 1
        if walk is not None:
            raised += 1
            past_column_1 += walk_and_check(model, 1)[0] is None
    assert reached >= 200 and raised >= 40, (reached, raised)
    if make is folded_space:
        assert past_column_1 >= 20, past_column_1
