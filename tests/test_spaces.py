"""Fixture round-trips and validation."""

import json
import random
import re
from pathlib import Path

import pytest

from lscat.algebra import AlgebraError
from lscat.spaces import (
    BUILTIN_NAMES,
    BUILTINS,
    FixtureError,
    SpacePresentation,
    builtin,
    validate,
)
from lscat.specseq import SpectralSequenceError
from lscat.weights import LoopSpaceModel, WeightError
from reference import total_dimension
from test_weights import su_data


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_round_trip(name):
    """A built-in survives the file format."""
    assert SpacePresentation.loads(json.dumps(BUILTINS[name]())) == builtin(name)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_validate(name):
    assert not validate(builtin(name))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_data_is_new_per_call(name):
    """`BUILTINS[name]()` returns a new dict on each call, so editing one
    copy, nested lists and dicts included (spin9's rule args, say), changes
    no built-in."""
    sp = builtin(name)
    data = BUILTINS[name]()
    assert data is not BUILTINS[name]()
    assert data == BUILTINS[name]()

    def clear(value):
        if isinstance(value, (dict, list)):
            for item in value.values() if isinstance(value, dict) else value:
                clear(item)
            value.clear()

    clear(data)
    assert data == {} and BUILTINS[name]()
    assert builtin(name) == sp


def test_from_dict_keeps_no_part_of_its_input():
    """Editing the input dict after `from_dict`, an attestation's bound
    and rule included, changes nothing the presentation holds."""
    data = BUILTINS["spin9"]()
    data["attestations"][0]["bound"] = {"quantity": "cat", "kind": "upper", "value": 8}
    sp = SpacePresentation.from_dict(data)
    data["attestations"][0]["bound"]["value"] = 0
    data["attestations"][1]["rule"]["args"][0] = 0
    data["attestations"][1]["rule"]["name"] = "nope"
    assert sp.attestations[0].bound["value"] == 8
    assert sp.attestations[1].rule["args"] == [5, 3]
    assert sp.attestations[1].rule["name"] == "bundle_upper_bound"


def test_unknown_builtin():
    message = "unknown builtin 'nope'; available: spin9, toy-trunc-poly, unit"
    with pytest.raises(FixtureError, match=re.escape(message)):
        builtin("nope")


def test_load_from_file(tmp_path):
    path = tmp_path / "spin9.json"
    path.write_text(json.dumps(BUILTINS["spin9"]()))
    sp = SpacePresentation.load(path)
    assert sp.name == "spin9"
    assert total_dimension(sp.algebra) == 32


def test_malformed_json():
    with pytest.raises(FixtureError):
        SpacePresentation.loads("{not json")
    with pytest.raises(FixtureError):
        SpacePresentation.loads("{}")
    with pytest.raises(FixtureError):
        SpacePresentation.loads(
            json.dumps({"name": "x", "degree_cap": 5, "cohomology": {}})
        )


def test_bad_height_rejected():
    data = BUILTINS["spin9"]()
    data["cohomology"]["generators"][0]["height"] = "three"
    with pytest.raises(FixtureError):
        SpacePresentation.from_dict(data)


def test_validate_catches_bad_steenrod():
    data = BUILTINS["spin9"]()
    # wrong target degree: Sq^2 x3 must land in degree 5
    data["steenrod"][0]["value"] = ["x7"]
    assert validate(SpacePresentation.from_dict(data))


def test_validate_catches_unknown_permanent_cycle():
    data = BUILTINS["spin9"]()
    data["permanent_cycles"].append("x1_99")
    problems = validate(SpacePresentation.from_dict(data))
    assert any("x1_99" in p for p in problems)


def test_validate_catches_non_free_loop_algebra():
    data = BUILTINS["spin9"]()
    data["loop_homology"]["generators"][0]["height"] = 3
    problems = validate(SpacePresentation.from_dict(data))
    assert any("not free" in p for p in problems)


def test_validate_catches_bad_extra_square():
    data = BUILTINS["spin9"]()
    # Sq^4 x11 must land in degree 15
    data["extra_generators"][0]["steenrod"] = [{"k": 4, "value": ["x7"]}]
    problems = validate(SpacePresentation.from_dict(data))
    assert any("Sq^4 x11" in p for p in problems)


@pytest.mark.parametrize(
    "k, value, problems",
    [
        (0, "x3^2*x5", ["Sq^0 x11: k must be >= 1"]),
        (1, "x5*x7", []),
        (10, "x3^2*x15", []),
        (11, "x7*x15", ["Sq^11 x11: k >= degree 11"]),
        (12, "x3*x5*x15", ["Sq^12 x11: k >= degree 11"]),
    ],
)
def test_validate_checks_extra_square_range(k, value, problems):
    """Sq^k of an extra generator x is read only for 1 <= k < |x|."""
    data = BUILTINS["spin9"]()
    data["extra_generators"][0]["steenrod"] = [{"k": k, "value": [value]}]
    assert validate(SpacePresentation.from_dict(data)) == problems


def test_validate_conservation_preflight():
    data = BUILTINS["toy-trunc-poly"]()
    # drop the polynomial loop generator: E2 can no longer cover H^*
    data["loop_homology"]["generators"] = [
        g
        for g in data["loop_homology"]["generators"]
        if g["name"] == "u10"
    ]
    problems = validate(SpacePresentation.from_dict(data))
    assert any("conservation" in p for p in problems)


def test_running_rank_preflight_names_the_first_failing_degree():
    """toy-trunc-poly with x3 of height 3 has E2 one class over the
    cohomology in degree 9 and none in degree 10: the degree-9 class must
    die, and only a degree-10 class could die with it.  The parent
    accepted it, and its report then failed with a fixture mismatch."""
    data = BUILTINS["toy-trunc-poly"]()
    data["cohomology"]["generators"][0]["height"] = 3
    assert validate(SpacePresentation.from_dict(data)) == [
        "conservation preflight: E2 exceeds the cohomology by 0 in degree "
        "10, but 1 classes of degree 9 must die by hitting degree 10"
    ]


@pytest.mark.parametrize(
    "data",
    [
        *(pytest.param(lambda n=n: su_data(n), id=f"su{n}") for n in range(3, 9)),
        pytest.param(
            lambda: json.loads(
                (Path(__file__).parent / "fixtures" / "two-page-synthetic.json")
                .read_text()
            ),
            id="two-page",
        ),
    ],
)
def test_fixtures_whose_differentials_exist_pass_the_running_rank(data):
    """SU(n) has no differential, and the two-page fixture's d_2 and d_3
    supply the ranks the running rank asks for."""
    assert not validate(SpacePresentation.from_dict(data()))


def mutants(count, seed):
    """`count` seeded mutants of spin9, toy-trunc-poly and SU(5): cap 8..24,
    cohomology heights moved by one, loop generators switched between
    height 2 and polynomial."""
    rng = random.Random(seed)
    bases = [BUILTINS["spin9"], BUILTINS["toy-trunc-poly"], lambda: su_data(5)]
    out = []
    for _ in range(count):
        data = rng.choice(bases)()
        data["degree_cap"] = rng.randint(8, 24)
        for g in data["cohomology"]["generators"]:
            if rng.random() < 0.3:
                g["height"] = max(2, g["height"] + rng.choice((-1, 1)))
        for g in data["loop_homology"]["generators"]:
            if rng.random() < 0.15:
                g["height"] = 2 if g["height"] == "unbounded" else "unbounded"
        out.append(SpacePresentation.from_dict(data))
    return out


def test_no_fixture_whose_inference_closes_fails_the_running_rank():
    """The running rank is sound: a mutant whose differentials inference
    finds never fails it, and every mutant that fails it has no
    consistent assignment.  Both kinds occur."""
    outcomes = {"inferred": 0, "refused": 0}
    for sp in mutants(60, seed=0):
        refused = any("must die" in p for p in validate(sp))
        try:
            LoopSpaceModel(sp)._tower
        except (SpectralSequenceError, WeightError) as exc:
            if refused:
                assert "mismatch" in str(exc), sp.name
        else:
            assert not refused, sp.name
            outcomes["inferred"] += 1
        outcomes["refused"] += refused
    assert outcomes["inferred"] >= 10 and outcomes["refused"] >= 10, outcomes


def test_spin9_attestations_carry_rule():
    sp = builtin("spin9")
    rules = [a.rule for a in sp.attestations if a.rule]
    assert rules == [{"name": "bundle_upper_bound", "args": [5, 3]}]


def test_bad_steenrod_row_is_named_once_and_never_read():
    """`validate` names a bad row once, though it is parsed over both
    algebras; either table, read afterwards, raises that problem rather
    than handing out the rows that parsed."""
    data = BUILTINS["spin9"]()
    data["steenrod"][0]["value"] = ["x7"]
    sp = SpacePresentation.from_dict(data)
    problem = "Sq^2 x3: value not homogeneous of degree 5"
    assert validate(sp) == [problem]
    for table in ("action", "extended_action"):
        with pytest.raises(AlgebraError, match=f"^{re.escape(problem)}$"):
            getattr(sp, table)


def test_missing_loop_homology_is_a_fixture_error():
    sp = builtin("toy-trunc-poly")
    sp.loop_homology = None
    assert not validate(sp)
    with pytest.raises(FixtureError, match="^toy-trunc-poly: no loop homology given$"):
        LoopSpaceModel(sp).e2


@pytest.mark.parametrize(
    "row, problem",
    [
        ({"gen": "x15", "k": 10, "value": ["x15^^2"]},
         "Sq^10 x15: 'x15^^2': exponent '^2' is not a natural number"),
        ({"gen": "x15", "k": 10, "value": ["x15^2"]},
         "Sq^10 x15: 'x15^2': exponent of x15 too high"),
        ({"gen": "x15", "k": 10, "value": ["x9*x15"]},
         "Sq^10 x15: unknown generator 'x9' in 'x9*x15'"),
        ({"gen": "x15", "k": 10, "value": ["x3*x5*x15"]},
         "Sq^10 x15: value not homogeneous of degree 25"),
        ({"gen": "x15", "k": 10, "value": ["x3*x7*x15"]}, None),
    ],
)
def test_a_row_past_the_cap_is_parsed_and_stores_zero(row, problem):
    """spin9 at cap 24 with a row Sq^10 x15, in degree 25, past the cap:
    `validate` parses its value (generator names, exponents, heights and
    degree) and names what a report at cap 36 names; a row that parses
    stores 0 (no terms), as every class past the cap is 0."""
    data = BUILTINS["spin9"]()
    data["steenrod"].append(row)
    capped = SpacePresentation.from_dict(dict(data, degree_cap=24))
    above = SpacePresentation.from_dict(dict(data, degree_cap=36))
    assert validate(capped) == ([problem] if problem else [])
    if problem:
        assert problem in validate(above)
    else:
        assert capped.action.table[("x15", 10)] == ()
        assert above.action.table[("x15", 10)] == tuple(sorted(
            above.algebra.parse_monomial(m) for m in row["value"]
        ))
