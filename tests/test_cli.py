"""CLI contract: formats, determinism, exit codes."""

import importlib.util
import inspect
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from functools import cached_property
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lscat
from lscat import bounds, cli, gf2
from lscat import report as report_mod
from lscat import spaces, specseq, weights
from lscat.algebra import Algebra, AlgebraPresentation, Generator, Record
from lscat.bounds import BoundsLedger
from lscat.cli import main
from lscat.spaces import BUILTINS, SpacePresentation, builtin, validate
from lscat.weights import LoopSpaceModel, WeightError
from reference import cells, page_json, restricted_to_columns, run_to_e_infinity
from test_specseq import padded_spin9, two_page_synthetic
from test_weights import su_data, su_space


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def report_schema():
    text = (
        resources.files("lscat").joinpath("schemas/report.schema.json")
    ).read_text()
    return json.loads(text)


def test_text_report_spin9():
    code, out, _ = run_cli("report", "spin9", "--truncate", "7,8")
    assert code == 0
    assert "cat = 8 (certified)" in out
    assert "d_3(x1_10) = x1_2^4" in out
    assert "none (E2 = E-infinity)" not in out
    assert "stage m=7" in out and "stage m=8" in out


def test_json_report_validates_against_schema():
    code, out, _ = run_cli(
        "report", "spin9", "--truncate", "7,8,9", "--format", "json"
    )
    assert code == 0
    rep = json.loads(out)
    jsonschema.validate(rep, report_schema())
    assert rep["bounds"]["bracket"] == {"lo": 8, "hi": 8, "consistent": True}


@pytest.mark.parametrize(
    "argv", [("report", "spin9", "--format", "json"), ("validate", "spin9")]
)
def test_cohomology_and_cup_length_are_computed_once(monkeypatch, argv):
    """The presentation builds its cohomology algebra, E2 page and
    suspension match once, and `validate` and the report read them.  Each
    Steenrod row is parsed as terms at most once per algebra, over the
    cohomology algebra and over the extended one; x11's row only over the
    extended one.  A report computes the cohomology's cup-length once (the
    E2 lattice's answers the tower's last column) and scans for wgt and
    Mwgt once each, though its invariants and its ledger both read them;
    `validate` does none of that.  No algebra lists its monomials."""
    counts = Counter()

    def count(owner, name, key=lambda *args: None):
        original = getattr(owner, name)

        def counting(*args):
            counts[name, key(*args)] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counting)

    def count_cached(owner, name):
        original = vars(owner)[name].func

        def counting(self):
            counts[name, None] += 1
            return original(self)

        prop = cached_property(counting)
        prop.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, prop)

    def names(generators):
        return tuple(g.name for g in generators)

    count(Algebra, "__init__", lambda _, pres: names(pres.generators))
    count(
        Algebra,
        "parse_terms",
        lambda alg, texts, degree, *capped: (
            names(alg.generators), degree, tuple(texts)
        ),
    )
    count(Algebra, "cup_length", lambda alg, *cap: names(alg.generators))
    for module in (specseq, spaces):
        count(module, "koszul_e2")
    count(spaces, "suspension_match")
    count_cached(LoopSpaceModel, "_wgt_space")
    count_cached(LoopSpaceModel, "witnesses")
    assert run_cli(*argv)[0] == 0

    report = argv[0] == "report"
    coh = ("x3", "x5", "x7", "x15")
    ext = (*coh, "x11")
    rows = {key: n for (name, key), n in counts.items() if name == "parse_terms"}
    assert counts["__init__", coh] == counts["__init__", ext] == 1
    assert counts["koszul_e2", None] == counts["suspension_match", None] == 1
    assert max(rows.values()) == 1
    assert {alg for alg, _, _ in rows} == {coh, ext}
    assert [alg for alg, degree, _ in rows if degree == 15] == [ext]
    assert counts["cup_length", coh] == report
    assert not hasattr(Algebra, "monomials")
    assert counts["_wgt_space", None] == counts["witnesses", None] == report


def test_validate_accepts_a_square_with_a_partial_product_term(tmp_path):
    """x11's rows are parsed over the algebra the witness search squares
    in, which holds x11: a row naming it passes `validate`, and the report
    certifies the same bracket."""
    data = BUILTINS["spin9"]()
    data["extra_generators"][0]["steenrod"].append({"k": 3, "value": ["x3*x11"]})
    fixture = tmp_path / "partial_term.json"
    fixture.write_text(json.dumps(data))
    assert run_cli("validate", str(fixture)) == (0, "spin9: ok\n", "")
    code, out, err = run_cli("report", str(fixture), "--format", "json")
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["invariants"]["module_weight_lower"]["value"] == 8
    assert rep["bounds"]["bracket"] == {"lo": 8, "hi": 8, "consistent": True}


def test_mixed_square_skips_a_partial_product_term_that_is_not_lowest(tmp_path):
    """Sq^9 x11 = x5*x15 + x3^3*x11 has its partial-product term after its
    cohomology term in the extended basis.  The search reads no Sq^9 test
    of the x1_10 class, whichever term comes first, and the report
    certifies the same bracket."""
    data = BUILTINS["spin9"]()
    data["extra_generators"][0]["steenrod"].append(
        {"k": 9, "value": ["x5*x15", "x3^3*x11"]}
    )
    fixture = tmp_path / "mixed_square.json"
    fixture.write_text(json.dumps(data))
    assert run_cli("validate", str(fixture)) == (0, "spin9: ok\n", "")
    space = SpacePresentation.from_dict(data)
    ext = space.extended_algebra
    sq9 = space.extended_action.squares(ext.parse_monomial("x11"))[9]
    assert [ext.monomial_str(e) for e in sq9] == [
        "x5*x15", "x3^3*x11"
    ]
    model = LoopSpaceModel(space)
    (x1_10,) = [c for c, _ in model.stage_report(1) if c.label == "x1_10"]
    _, tests = model._square_tests(x1_10)
    assert tests[9] is None
    code, out, err = run_cli("report", str(fixture), "--format", "json")
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["invariants"]["module_weight_lower"]["value"] == 8
    assert rep["bounds"]["bracket"] == {"lo": 8, "hi": 8, "consistent": True}


@pytest.mark.parametrize("space", ["unit", "su4"])
def test_text_report_says_when_there_is_no_differential(tmp_path, space):
    """A space with no differential lists d_2 with no assignment; its text
    report says E2 is E-infinity."""
    if space == "su4":
        path = tmp_path / "su4.json"
        path.write_text(json.dumps(su_data(4)))
        space = str(path)
    code, out, _ = run_cli("report", space)
    assert code == 0
    assert "differential:          none (E2 = E-infinity)\n" in out


def test_reports_are_byte_identical():
    """Criterion 11 (determinism)."""
    runs = [
        run_cli("report", "spin9", "--truncate", "7,8,9", "--format", "json")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    texts = [run_cli("report", "spin9", "--truncate", "7,8") for _ in range(2)]
    assert texts[0] == texts[1]


def test_timings_flag_adds_timings():
    code, out, _ = run_cli("report", "unit", "--format", "json", "--timings")
    assert code == 0
    rep = json.loads(out)
    assert "timings" in rep
    jsonschema.validate(rep, report_schema())
    code, out, _ = run_cli("report", "unit", "--format", "json")
    assert "timings" not in json.loads(out)


def test_validate_ok_and_failing(tmp_path):
    code, out, _ = run_cli("validate", "spin9")
    assert code == 0 and "ok" in out

    data = BUILTINS["spin9"]()
    data["steenrod"][0]["value"] = ["x7"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli("validate", str(bad))
    assert code == 3
    assert "problem" in out


def test_report_on_invalid_fixture_exits_3(tmp_path):
    data = BUILTINS["spin9"]()
    data["steenrod"][0]["value"] = ["x7"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli("report", str(bad), "--format", "json")
    assert code == 3
    rep = json.loads(out)
    assert rep["validation"]["ok"] is False
    jsonschema.validate(rep, report_schema())


def test_report_on_non_free_loop_algebra_exits_3(tmp_path):
    """A loop presentation `koszul_e2` rejects is a validation problem
    inside a printed report, not a bare error."""
    data = BUILTINS["spin9"]()
    data["loop_homology"]["generators"][0]["height"] = 3
    bad = tmp_path / "height3.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli("report", str(bad), "--format", "json")
    assert code == 3
    assert err == ""
    rep = json.loads(out)
    jsonschema.validate(rep, report_schema())
    assert rep["validation"]["ok"] is False
    assert any("not free" in p for p in rep["validation"]["problems"])


def two_extras():
    """spin9 with a second extra generator, y15 on x1_14."""
    data = BUILTINS["spin9"]()
    data["extra_generators"].append(
        {"name": "y15", "t": 14, "extension_height": 3, "steenrod": []}
    )
    return data


def assert_match_fails(path, name, message):
    """`validate` names the failed suspension match, and `report` prints
    the failed validation: exit 3 and empty stderr for both."""
    assert run_cli("validate", str(path)) == (
        3, f"{name}: 1 problem(s)\n  - {message}\n", ""
    )
    code, out, err = run_cli("report", str(path), "--format", "json")
    assert (code, err) == (3, "")
    rep = json.loads(out)
    jsonschema.validate(rep, report_schema())
    assert rep["validation"] == {"ok": False, "problems": [message]}


def test_second_partial_generator_exits_3(tmp_path):
    """An unsupported presentation fails loudly, never as "no witness"."""
    path = tmp_path / "two_extras.json"
    path.write_text(json.dumps(two_extras()))
    assert_match_fails(
        path, "spin9", "at most one partial-product generator supported"
    )


def unmatched_space(name, cap, cohomology, loop, permanent):
    """A fixture dict whose E2 matches its cohomology's dimensions with no
    differential."""
    def gens(spec):
        return [{"name": n, "degree": d, "height": h} for n, d, h in spec]

    return {
        "name": name,
        "degree_cap": cap,
        "cohomology": {"generators": gens(cohomology)},
        "steenrod": [],
        "loop_homology": {"generators": gens(loop)},
        "permanent_cycles": permanent,
        "extra_generators": [],
        "attestations": [],
    }


def no_suspension():
    """Lambda(x2, y3, w4) against the E2 of Lambda(u1) (x) F2[u2], cap 7:
    F2[x1_1] (x) Lambda(x1_2) agrees with it up to degree 7, but no
    suspension class has degree 4."""
    return unmatched_space(
        "no-suspension", 7, [("x2", 2, 2), ("y3", 3, 2), ("w4", 4, 2)],
        [("u1", 1, 2), ("u2", 2, "unbounded")], ["x1_1", "x1_2"],
    )


def spin9_extra_at(t, name="x11"):
    """spin9 with its extra generator x11 at t and named `name`, and no
    squares on it."""
    data = BUILTINS["spin9"]()
    data["extra_generators"][0].update(name=name, t=t, steenrod=[])
    return data


def ambiguous():
    """x1_2 has degree 3, as do a3 and b3; they lie above the cap, so E2
    still matches the cohomology."""
    return unmatched_space(
        "ambiguous", 2, [("a3", 3, 2), ("b3", 3, 2)],
        [("u2", 2, "unbounded")], ["x1_2"],
    )


@pytest.mark.parametrize(
    "data, message",
    [
        (ambiguous(), "ambiguous suspension match for x1_2: a3, b3"),
        (no_suspension(), "cohomology generator w4 has no suspension class"),
        # x1_6 has degree 7, as do x7 and the extra generator x11 at t = 6.
        (spin9_extra_at(6), "ambiguous suspension match for x1_6: x7, x11"),
        (
            spin9_extra_at(10, name="x3"),
            "extra generator x3 has a cohomology generator's name",
        ),
    ],
    # An id names the failure, not the generators it lists.
    ids=lambda value: value.split(":")[0] if isinstance(value, str) else None,
)
def test_unmatched_suspension_exits_3(tmp_path, data, message):
    """A generator the suspension map cannot match fails validation, and
    the message names the generators."""
    path = tmp_path / "unmatched.json"
    path.write_text(json.dumps(data))
    assert_match_fails(path, data["name"], message)


def unmatched_lattice():
    """F2[x2]/(x2^4) against the E2 of F2[u1] (x) F2[u3], cap 6: the
    dimensions agree, but x1_3 (degree 4) matches no cohomology generator."""
    return unmatched_space(
        "unmatched-lattice", 6, [("x2", 2, 4)],
        [("u1", 1, "unbounded"), ("u3", 3, "unbounded")], ["x1_1", "x1_3"],
    )


def test_unmatched_lattice_generator_raises_where_it_is_used(tmp_path):
    """An unmatched E2 generator that leads an E-infinity class under the
    cap raises before the search reads any stage, stage 0 included, and
    never reads as "no witness".  The match allows an unmatched E2
    generator, so `validate` passes."""
    space = SpacePresentation.from_dict(unmatched_lattice())
    assert not validate(space)
    model = LoopSpaceModel(space)
    for m in range(8):
        with pytest.raises(WeightError) as info:
            model.find_obstruction(m)
        assert str(info.value) == "x1_3 matches no cohomology class"
    with pytest.raises(WeightError) as info:
        LoopSpaceModel(space).mwgt_lower_bound()
    assert str(info.value) == "x1_3 matches no cohomology class"

    path = tmp_path / "unmatched.json"
    path.write_text(json.dumps(unmatched_lattice()))
    assert run_cli("validate", str(path)) == (0, "unmatched-lattice: ok\n", "")
    code, out, err = run_cli("report", str(path), "--format", "json")
    assert (code, out) == (3, "")
    assert err == "lscat: x2^2 has no surviving E-infinity representative\n"


@pytest.mark.parametrize("command", ["report", "validate"])
@pytest.mark.parametrize(
    "path, value, message",
    [
        pytest.param(
            ["degree_cap"], 36.0, "degree_cap must be an integer, got 36.0",
            id="cap-float",
        ),
        pytest.param(
            ["degree_cap"], True, "degree_cap must be an integer, got True",
            id="cap-bool",
        ),
        pytest.param(
            ["cohomology", "generators", 0, "degree"], 3.0,
            "x3 degree must be an integer, got 3.0",
            id="degree-float",
        ),
        pytest.param(
            ["steenrod", 0, "k"], "2",
            "steenrod k of x3 must be an integer, got '2'",
            id="k-str",
        ),
        pytest.param(
            ["extra_generators", 0, "t"], 2.5,
            "x11 t must be an integer, got 2.5",
            id="extra-t-float",
        ),
        pytest.param(
            ["permanent_cycles"], "x1_2",
            "permanent_cycles must be a list of names, got 'x1_2'",
            id="permanent-str",
        ),
        pytest.param(
            ["permanent_cycles"], ["x1_2", 4],
            "permanent_cycles must be a list of names, got ['x1_2', 4]",
            id="permanent-int-entry",
        ),
        pytest.param(
            ["steenrod", 0, "gen"], ["x3"],
            "steenrod gen must be a string, got ['x3']",
            id="steenrod-gen-list",
        ),
        pytest.param(
            ["extra_generators", 0, "name"], 7,
            "extra generator name must be a string, got 7",
            id="extra-name-int",
        ),
        pytest.param(
            ["name"], 5, "name must be a string, got 5", id="space-name-int",
        ),
        pytest.param(
            ["loop_homology", "generators", 0, "name"], None,
            "generator name must be a string, got None",
            id="generator-name-null",
        ),
        pytest.param(
            ["steenrod", 0, "value"], [5],
            "steenrod value of Sq^2 x3 must be a list of monomials, got [5]",
            id="steenrod-value-int",
        ),
        pytest.param(
            ["steenrod", 0, "value"], "x5",
            "steenrod value of Sq^2 x3 must be a list of monomials, got 'x5'",
            id="steenrod-value-str",
        ),
        pytest.param(
            ["extra_generators", 0, "steenrod", 0, "value"], [15],
            "steenrod value of Sq^4 x11 must be a list of monomials, got [15]",
            id="extra-value-int",
        ),
        pytest.param(
            ["extra_generators", 0, "steenrod", 0, "value"], "x15",
            "steenrod value of Sq^4 x11 must be a list of monomials, got 'x15'",
            id="extra-value-str",
        ),
    ],
)
def test_mistyped_fixture_field_exits_3(tmp_path, command, path, value, message):
    """A mistyped fixture field is named in a FixtureError, never a
    traceback and never silently misread."""
    data = BUILTINS["spin9"]()
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    fixture = tmp_path / "mistyped.json"
    fixture.write_text(json.dumps(data))
    code, out, err = run_cli(command, str(fixture))
    assert (code, out) == (3, "")
    assert err == f"lscat: {message}\n"


def set_rule_args(args):
    def edit(data):
        data["attestations"][1]["rule"]["args"] = args
    return edit


def set_bound(**fields):
    """Give spin9's first attestation the bound cat <= 8, with `fields`
    replaced (a None value drops the field)."""
    def edit(data):
        bound = {"quantity": "cat", "kind": "upper", "value": 8, **fields}
        data["attestations"][0]["bound"] = {
            k: v for k, v in bound.items() if v is not None
        }
    return edit


def drop_rule_name(data):
    del data["attestations"][1]["rule"]["name"]


@pytest.mark.parametrize("command", ["report", "validate"])
@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(
            set_rule_args([5.0, 3]),
            "attestations[1].rule.args[0] must be an integer, got 5.0",
            id="args-float",
        ),
        pytest.param(
            set_rule_args([True, 3]),
            "attestations[1].rule.args[0] must be an integer, got True",
            id="args-bool",
        ),
        pytest.param(
            set_rule_args(["5", 3]),
            "attestations[1].rule.args[0] must be an integer, got '5'",
            id="args-str",
        ),
        pytest.param(
            set_rule_args([5]),
            "attestations[1].rule: bundle_upper_bound takes 2 arguments, got 1",
            id="args-short",
        ),
        pytest.param(
            set_rule_args([5, 0]),
            "attestations[1].rule: bundle_upper_bound(5, 0): compression "
            "stage must be >= 1",
            id="args-range",
        ),
        pytest.param(
            drop_rule_name,
            "attestations[1].rule must have a name and a list of args, "
            "got {'args': [5, 3]}",
            id="rule-no-name",
        ),
        pytest.param(
            # `validate` names it, and the ledger raises it (see
            # `test_ledger_raises_the_problem_of_a_bad_rule`).
            lambda data: data["attestations"][1]["rule"].update(name="nope"),
            "attestations[1].rule: unknown bound rule 'nope'",
            id="rule-unknown-name",
        ),
        pytest.param(
            set_bound(value="8"),
            "attestations[0].bound.value must be an integer, got '8'",
            id="value-str",
        ),
        pytest.param(
            set_bound(value=8.5),
            "attestations[0].bound.value must be an integer, got 8.5",
            id="value-float",
        ),
        pytest.param(
            set_bound(value=True),
            "attestations[0].bound.value must be an integer, got True",
            id="value-bool",
        ),
        pytest.param(
            set_bound(value=-1),
            "attestations[0].bound: bound values must be >= 0",
            id="value-negative",
        ),
        pytest.param(
            set_bound(quantity="kat"),
            "attestations[0].bound: unknown quantity 'kat'",
            id="quantity",
        ),
        pytest.param(
            set_bound(kind="sideways"),
            "attestations[0].bound: unknown kind 'sideways'",
            id="kind",
        ),
        pytest.param(
            set_bound(value=None),
            "attestations[0].bound must have a quantity, kind and value, "
            "got {'quantity': 'cat', 'kind': 'upper'}",
            id="bound-no-value",
        ),
    ],
)
def test_bad_attestation_exits_3(tmp_path, command, edit, message):
    """An attested bound the ledger cannot take exits 3 with a message
    naming the field, never a traceback, a misread value or a bracket."""
    data = BUILTINS["spin9"]()
    edit(data)
    fixture = tmp_path / "attested.json"
    fixture.write_text(json.dumps(data))
    code, out, err = run_cli(command, str(fixture))
    assert code == 3
    assert message in out + err
    assert "cat bracket" not in out


@pytest.mark.parametrize(
    "rule, message",
    [
        pytest.param(
            {"name": "nope", "args": [5, 3]},
            "attestations[1].rule: unknown bound rule 'nope'",
            id="unknown-name",
        ),
        pytest.param(
            {"name": "bundle_upper_bound", "args": [5, 3, 1]},
            "attestations[1].rule: bundle_upper_bound takes 2 arguments, got 3",
            id="three-args",
        ),
    ],
)
def test_ledger_raises_the_problem_of_a_bad_rule(rule, message):
    """`build_ledger` on a presentation that has not passed `validate`
    raises a FixtureError with the problem `validate` names, not a bare
    KeyError or TypeError from the rule table."""
    data = BUILTINS["spin9"]()
    data["attestations"][1]["rule"] = rule
    sp = SpacePresentation.from_dict(data)
    assert validate(sp) == [message]
    with pytest.raises(spaces.FixtureError, match=f"^{re.escape(message)}$"):
        report_mod.build_ledger(LoopSpaceModel(sp))


def test_rule_arities_are_read_once_at_import(monkeypatch):
    """Each attested rule's arity is stored in `bounds.RULES` when the
    module is imported: a spin9 report, which checks its rule in
    `validate` and again in the ledger, makes no `inspect.signature` call,
    and a `*args` wrapper put on a rule later (as the benchmark's tracer
    does) keeps the arity check."""
    calls = []
    real_signature = inspect.signature

    def counting_signature(*args, **kwargs):
        calls.append(args)
        return real_signature(*args, **kwargs)

    monkeypatch.setattr(inspect, "signature", counting_signature)
    assert run_cli("report", "spin9", "--format", "json")[0] == 0
    assert calls == []
    fn, *rest = bounds.RULES["bundle_upper_bound"]
    monkeypatch.setitem(
        bounds.RULES, "bundle_upper_bound", (lambda *args: fn(*args), *rest)
    )
    assert bounds.rule_problem("bundle_upper_bound", [5, 3, 1]) == (
        "bundle_upper_bound takes 2 arguments, got 3"
    )
    assert bounds.rule_problem("bundle_upper_bound", [5, 3]) is None


@pytest.mark.parametrize("command", ["report", "validate"])
@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("claim", 5, id="claim-int"),
        pytest.param("provenance", ["x"], id="provenance-list"),
    ],
)
def test_attestation_text_must_be_a_string(tmp_path, command, field, value):
    """An attestation's claim and provenance are strings, never any JSON
    value printed into the report."""
    data = BUILTINS["spin9"]()
    data["attestations"][1][field] = value
    fixture = tmp_path / "attested.json"
    fixture.write_text(json.dumps(data))
    code, out, err = run_cli(command, str(fixture))
    assert (code, out) == (3, "")
    assert err == (
        f"lscat: attestations[1].{field} must be a string, got {value!r}\n"
    )


@pytest.mark.parametrize("command", ["report", "validate"])
def test_extra_generator_off_e2_exits_3(tmp_path, command):
    """An extra generator whose suspension x1_t is not an E2 generator is a
    fixture mismatch, never a report with no witness."""
    data = BUILTINS["spin9"]()
    data["extra_generators"][0].update(t=12, steenrod=[])
    fixture = tmp_path / "extra_off_e2.json"
    fixture.write_text(json.dumps(data))
    code, out, err = run_cli(command, str(fixture), *(
        ["--format", "json"] if command == "report" else []
    ))
    assert (code, err) == (3, "")
    assert "x11: x1_12 is not an E2 generator" in out
    assert "bounds" not in out


@pytest.mark.parametrize(
    "k, value, problem",
    [
        (0, "x3^2*x5", "Sq^0 x11: k must be >= 1"),
        (12, "x3*x5*x15", "Sq^12 x11: k >= degree 11"),
    ],
)
def test_extra_square_out_of_range_exits_3(tmp_path, k, value, problem):
    """The witness search reads Sq^k of the extra generator only for
    1 <= k < its degree; a row outside that range is a fixture problem,
    not a row dropped without a word."""
    data = BUILTINS["spin9"]()
    data["extra_generators"][0]["steenrod"] = [{"k": k, "value": [value]}]
    fixture = tmp_path / "extra_square.json"
    fixture.write_text(json.dumps(data))
    code, out, _ = run_cli("validate", str(fixture))
    assert code == 3
    assert problem in out


def test_repeated_steenrod_row_exits_3(tmp_path):
    """A square given twice is a fixture problem, never a row that
    silently replaces the first: a repeated (gen, k) row is a `validate`
    problem, and a repeated k of the extra generator fails to load, since
    its squares are keyed by k."""
    data = BUILTINS["spin9"]()
    data["steenrod"].append({"gen": "x5", "k": 1, "value": []})
    fixture = tmp_path / "repeated.json"
    fixture.write_text(json.dumps(data))
    assert run_cli("validate", str(fixture)) == (
        3, "spin9: 1 problem(s)\n  - Sq^1 x5 given twice\n", ""
    )
    code, out, err = run_cli("report", str(fixture), "--format", "json")
    assert (code, err) == (3, "")
    assert json.loads(out)["validation"]["problems"] == ["Sq^1 x5 given twice"]

    data = BUILTINS["spin9"]()
    data["extra_generators"][0]["steenrod"].append({"k": 4, "value": []})
    fixture.write_text(json.dumps(data))
    for command in ("validate", "report"):
        assert run_cli(command, str(fixture)) == (
            3, "", "lscat: Sq^4 x11 given twice\n"
        )


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@settings(deadline=None)
@given(json_values)
def test_json_renderer_matches_json_dumps(value):
    """The CLI's renderer writes what `json.dumps(indent=2)` writes: nested
    and empty containers, non-ASCII, escaped and control characters, ints,
    bools, None and floats (the `--timings` values), nan and infinity
    included."""
    assert cli._dumps(value) == json.dumps(value, indent=2)


shared_values = st.lists(
    st.lists(json_values, max_size=3)
    | st.dictionaries(st.text(max_size=4), json_values, max_size=3),
    min_size=1,
    max_size=3,
)


@settings(deadline=None)
@given(shared_values, st.data())
def test_json_renderer_writes_a_shared_value_in_each_place(pool, data):
    """One dict or list object may stand in several places of a value, in
    one list or several and at several depths, as a report's stages share
    their class records: the renderer still writes what `json.dumps`
    writes."""
    value = data.draw(st.recursive(
        st.sampled_from(pool),
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=12,
    ))
    assert cli._dumps(value) == json.dumps(value, indent=2)
    record = {"s": 1, "label": "x"}
    nested = [record, [record, {"k": [record]}]]
    assert cli._dumps([nested, nested, record]) == json.dumps(
        [nested, nested, record], indent=2
    )


@pytest.mark.parametrize(
    "cap, listed, records", [(36, 128, 54), (44, 152, 68), (52, 167, 76)]
)
def test_stages_share_one_record_per_class_and_bucket(
    monkeypatch, cap, listed, records
):
    """A spin9 report with stages 7, 8 and 9 makes one class record per
    (class, bucket), which every stage listing the class shares, and the
    JSON renderer writes it where it stands.  Listing a stage reads how
    many differentials are alive once per column of the stage."""
    alive_calls = Counter()
    listing = []
    real_alive = specseq.TruncationTower.alive
    real_stage_report = LoopSpaceModel.stage_report

    def counting_alive(self, s, m, j=None):
        if listing:
            alive_calls[listing[-1], s] += 1
        return real_alive(self, s, m, j)

    def listed_stage_report(self, m):
        listing.append(m)
        try:
            return real_stage_report(self, m)
        finally:
            listing.pop()

    monkeypatch.setattr(specseq.TruncationTower, "alive", counting_alive)
    monkeypatch.setattr(LoopSpaceModel, "stage_report", listed_stage_report)
    model = LoopSpaceModel(builtin("spin9"), degree_cap=cap)
    rep, code = report_mod.build_report(model, [7, 8, 9])
    assert code == 0
    entries = [cls for stage in rep["stages"] for cls in stage["classes"]]
    assert (len(entries), len({id(cls) for cls in entries})) == (listed, records)
    assert alive_calls and set(alive_calls.values()) == {1}
    assert all(s <= m for m, s in alive_calls)
    assert cli._dumps(rep) == json.dumps(rep, indent=2)


def test_optimised_interpreter_gives_same_report(tmp_path):
    """`python -O` strips asserts; no certified number may depend on one,
    and no generator-match check may be one."""
    src = str(Path(lscat.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )

    def runs(*argv):
        return [
            subprocess.run(
                [sys.executable, *flags, "-m", "lscat.cli", *argv],
                capture_output=True, env=env, timeout=120,
            )
            for flags in ([], ["-O"])
        ]

    plain, optimised = runs("report", "spin9", "--format", "json")
    assert (plain.returncode, optimised.returncode) == (0, 0)
    assert plain.stdout == optimised.stdout
    assert json.loads(optimised.stdout)["bounds"]["bracket"]["lo"] == 8

    path = tmp_path / "unmatched-lattice.json"
    path.write_text(json.dumps(unmatched_lattice()))
    for run in runs("report", str(path), "--format", "json"):
        assert (run.returncode, run.stdout) == (3, b"")
        assert run.stderr.decode() == (
            "lscat: x2^2 has no surviving E-infinity representative\n"
        )

    # A failed match is a validation problem, printed by both commands.
    for data, message in (
        (no_suspension(), "cohomology generator w4 has no suspension class"),
        (ambiguous(), "ambiguous suspension match for x1_2: a3, b3"),
    ):
        path = tmp_path / f"{data['name']}.json"
        path.write_text(json.dumps(data))
        for argv in (["validate"], ["report", "--format", "json"]):
            plain, optimised = runs(argv[0], str(path), *argv[1:])
            assert (plain.returncode, plain.stderr) == (3, b"")
            assert (optimised.returncode, optimised.stdout, optimised.stderr) == (
                plain.returncode, plain.stdout, plain.stderr
            )
            assert message in plain.stdout.decode()


def test_importing_the_cli_defines_no_dataclass_and_skips_cells():
    """Every record type is a plain class, so a fresh interpreter (without
    `site`, so that no installed package can import it first) that
    imports the CLI has not imported `dataclasses`; and the cell check
    lives in the tests, so the package has no `lscat.cells` to import."""
    src = str(Path(lscat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, lscat.cli; "
        "print(sorted({'dataclasses'} & sys.modules.keys()))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, env=env, timeout=120
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, b"[]\n", b"")
    assert importlib.util.find_spec("lscat.cells") is None


def assert_unreadable(path):
    """`report` on an unreadable fixture: exit 3 and one `lscat:` line
    naming the path (an uncaught exception would fail the test)."""
    code, out, err = run_cli("report", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("lscat: ") and err.count("\n") == 1
    assert str(path) in err


def test_missing_file_exits_3():
    assert_unreadable("no-such-file.json")


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_fixture_exits_3(tmp_path, kind):
    path = tmp_path / "fixture.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe\x00")
    assert_unreadable(path)


def test_calls_in_one_process_do_not_share_state():
    """The parser is built once per process; each call still prints what
    it prints when it is the process's first."""
    calls = [
        ("report", "spin9", "--truncate", "7", "--format", "json"),
        ("report", "spin9"),
        ("dump-page", "spin9", "--page", "3"),
    ]
    first = {}
    for argv in calls:
        cli._parser.cache_clear()
        first[argv] = run_cli(*argv)
        assert first[argv][0] == 0
    cli._parser.cache_clear()
    for argv in calls:
        assert run_cli(*argv) == first[argv]
    assert cli._parser.cache_info().misses == 1


def test_inconsistent_ledger_exits_2(tmp_path):
    data = BUILTINS["spin9"]()
    data["attestations"] = [
        {
            "claim": "wrong upper bound for testing",
            "provenance": "test",
            "bound": {"quantity": "cat", "kind": "upper", "value": 3},
        }
    ]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli("report", str(path), "--format", "json")
    assert code == 2
    rep = json.loads(out)
    assert rep["bounds"]["bracket"]["consistent"] is False
    jsonschema.validate(rep, report_schema())
    code, out, _ = run_cli("report", str(path))
    assert code == 2
    assert "INCONSISTENT" in out


def test_dump_page():
    code, out, _ = run_cli("dump-page", "spin9", "--page", "2")
    assert code == 0
    data = json.loads(out)
    assert data["r"] == 2
    code, out4, _ = run_cli("dump-page", "spin9", "--page", "4")
    assert code == 0
    data4 = json.loads(out4)
    n2 = sum(len(b["classes"]) for b in data["bidegrees"])
    n4 = sum(len(b["classes"]) for b in data4["bidegrees"])
    assert n4 < n2  # d3 killed something
    code, out_t, _ = run_cli(
        "dump-page", "spin9", "--page", "4", "--truncate", "8"
    )
    assert code == 0
    assert all(b["s"] <= 8 for b in json.loads(out_t)["bidegrees"])


@pytest.mark.parametrize("truncate_at", [None, 4, 8])
def test_pages_past_the_last_differential_match_a_refold(truncate_at):
    """Past d_3, `page_at` reads the model's fold; it equals folding again.
    E3 is still E2."""
    model = LoopSpaceModel(builtin("spin9"))
    e2 = model.e2
    if truncate_at is not None:
        e2 = restricted_to_columns(e2, truncate_at)
    refold = run_to_e_infinity(e2, model.differentials)
    for r in (3, 4, 5, 9):
        page = report_mod.page_at(model, r, truncate_at)
        want = refold.advanced(r) if r > 3 else e2.advanced(r)
        assert page_json(page) == page_json(want)


TWO_PAGE = Path(__file__).parent / "fixtures" / "two-page-synthetic.json"


def first_differential_page(model: LoopSpaceModel) -> int | None:
    """The least r >= 2 at which some generator not listed as permanent has
    a nonempty d_r target cell, scanned up to the lattice cap (None: there
    is none)."""
    e2 = model.e2
    for r in range(2, e2.lattice.degree_cap + 1):
        for g in e2.lattice.generators:
            if g.name not in model.space.permanent_cycles and cells(e2.lattice).get(
                e2.target(r, g.name)
            ):
                return r
    return None


@pytest.mark.parametrize(
    "space, cap, first",
    [("spin9", 36, 3), ("spin9", 52, 3), ("toy-trunc-poly", None, 3)]
    + [(su_space(n), None, None) for n in range(3, 9)],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_pages_before_the_first_differential_match_inference(space, cap, first):
    """Up to the first page where a differential can act, `page_at` serves
    E2 without inference; it is the page the inference path's fold gives."""
    if isinstance(space, str):
        space = builtin(space)
    model = LoopSpaceModel(space, degree_cap=cap)
    assert first_differential_page(model) == first
    tower = LoopSpaceModel(space, degree_cap=cap)._tower
    for r in range(2, (first or 6) + 1):
        j = sum(spec.r < r for spec in tower.specs)
        for m in (None, 0, 4, 8):
            want = page_json(tower.page(m, j).advanced(r))
            assert page_json(report_mod.page_at(model, r, m)) == want
    if first is None:
        # Every page is E2, and the scan for the first differential is
        # bounded by the degree cap, not by r.
        page = report_mod.page_at(model, 10**9)
        assert page_json(page) == page_json(tower.page(None, 0).advanced(10**9))
    assert "_tower" not in vars(model)


@pytest.mark.parametrize("r, inferences", [(2, 0), (3, 0), (4, 1)])
def test_dump_page_infers_only_past_the_first_differential(
    monkeypatch, r, inferences
):
    calls = []

    def counting(*args):
        calls.append(args)
        return specseq.infer_differentials(*args)

    monkeypatch.setattr(weights, "infer_differentials", counting)
    code, out, _ = run_cli("dump-page", "spin9", "--page", str(r))
    assert code == 0 and json.loads(out)["r"] == r
    assert len(calls) == inferences


def test_dump_page_computes_the_candidate_widths_once(monkeypatch):
    """`page_at` and the inference read one `candidate_widths` pair, the
    model's: a page past the first differential computes it once."""
    calls = []
    real = specseq.candidate_widths

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (specseq, weights, report_mod):
        monkeypatch.setattr(module, "candidate_widths", counting, raising=False)
    code, out, _ = run_cli("dump-page", "spin9", "--page", "4", "--degree-cap", "52")
    assert code == 0 and json.loads(out)["r"] == 4
    assert len(calls) == 1


def two_page_data(**changes) -> dict:
    """The two-page synthetic fixture, with `changes` to its fields."""
    return {**json.loads(TWO_PAGE.read_text()), **changes}


def test_two_page_fixture_is_the_synthetic():
    """The fixture's E2 is `two_page_synthetic()`'s, and folding its d_2
    and d_3 reproduces the fixture's cohomology, which inference cannot
    find: it tries a single r per assignment."""
    space = SpacePresentation.load(TWO_PAGE)
    e2, specs = two_page_synthetic()
    model = LoopSpaceModel(space)
    assert page_json(model.e2) == page_json(e2)
    assert space.permanent_cycles == ["x1_2", "x1_4"]
    assert run_to_e_infinity(e2, specs).dims_by_total_degree() == (
        model.algebra.poincare_series()[: space.degree_cap + 1]
    )
    assert run_cli("validate", str(TWO_PAGE)) == (0, "two-page-synthetic: ok\n", "")


def test_dump_page_before_a_failed_inference_prints_e2():
    """Page 2 does not depend on the abutment, so it prints although the
    inference fails; page 3, after the first possible d_2, exits 3."""
    e2, _ = two_page_synthetic()
    assert run_cli("dump-page", str(TWO_PAGE), "--page", "2") == (
        0, json.dumps(page_json(e2), indent=2) + "\n", ""
    )
    for r in (3, 4):
        assert run_cli("dump-page", str(TWO_PAGE), "--page", str(r)) == (
            3, "", "lscat: no consistent assignment: fixture/target mismatch\n"
        )


def test_dump_page_before_an_over_budget_inference_prints_e2(monkeypatch):
    monkeypatch.setattr(specseq, "SEARCH_BUDGET", 1)
    code, out, _ = run_cli("dump-page", "spin9", "--page", "3")
    assert code == 0 and json.loads(out)["r"] == 3
    code, out, err = run_cli("dump-page", "spin9", "--page", "4")
    assert (code, out) == (3, "")
    assert err.startswith("lscat: search budget exceeded")


@pytest.mark.parametrize(
    "make, pages, truncations",
    [
        *(
            pytest.param(
                lambda cap=cap: LoopSpaceModel(builtin("spin9"), degree_cap=cap),
                (2, 3, 4), (None, 0, 4, 8, 13, 17, 18), id=f"spin9-{cap}",
            )
            for cap in (36, 52)
        ),
        pytest.param(
            lambda: LoopSpaceModel(builtin("toy-trunc-poly")),
            (2, 3, 4), (None, 0, 4), id="toy-trunc-poly",
        ),
        pytest.param(
            lambda: LoopSpaceModel(SpacePresentation.load(TWO_PAGE)),
            (2,), (None,), id="two-page",
        ),
        pytest.param(
            lambda: LoopSpaceModel(padded_spin9(8, 12)),
            (2, 3, 4), (None, 0, 4, 8), id="padded-u8-u12",
        ),
        *(
            pytest.param(
                lambda n=n: LoopSpaceModel(su_space(n)),
                (2, 3, 4), (None, 0, 4), id=f"su{n}",
            )
            for n in range(4, 9)
        ),
    ],
)
def test_page_text_is_json_dumps_of_the_page(make, pages, truncations):
    """`json_text` writes, byte for byte, what `json.dumps(indent=2)`
    writes for the page's object, on every page the golden cases print."""
    model = make()
    for r in pages:
        for m in truncations:
            page = report_mod.page_at(model, r, m)
            assert page.json_text() == json.dumps(page_json(page), indent=2), (r, m)


def test_page_text_covers_sums_empty_pages_and_column_caps():
    """The paths no golden page takes: a class of two monomials (labelled
    through `class_str`), a page with no bidegree, a bidegree with no
    class, and a column cap that is an int or None."""
    e2 = LoopSpaceModel(builtin("spin9")).e2
    key = next(k for k in sorted(e2.basis) if len(e2.basis[k]) >= 2)
    (a,), (b,) = e2.basis[key][:2]
    pages = [
        e2._derived(basis={key: ((a, b), (b,))}),
        e2._derived(basis={}),
        e2._derived(basis={}, column_cap=3),
        e2._derived(basis={(0, 0): ()}, column_cap=0),
        restricted_to_columns(e2, 5),
    ]
    for page in pages:
        assert page.json_text() == json.dumps(page_json(page), indent=2)
    data = json.loads(pages[0].json_text())
    assert " + " in data["bidegrees"][0]["classes"][0]
    assert '"bidegrees": []' in pages[1].json_text()
    assert json.loads(pages[2].json_text())["column_cap"] == 3
    assert '"classes": []' in pages[3].json_text()
    assert json.loads(pages[4].json_text())["column_cap"] == 5


@pytest.mark.parametrize(
    "make",
    [
        *(
            pytest.param(
                lambda cap=cap: LoopSpaceModel(builtin("spin9"), degree_cap=cap),
                id=f"spin9-{cap}",
            )
            for cap in (8, 12, 20, 36, 44, 52)
        ),
        pytest.param(lambda: LoopSpaceModel(builtin("toy-trunc-poly")), id="toy-trunc-poly"),
        pytest.param(lambda: LoopSpaceModel(builtin("unit")), id="unit"),
        *(
            pytest.param(lambda n=n: LoopSpaceModel(su_space(n)), id=f"su{n}")
            for n in range(3, 9)
        ),
    ],
)
def test_e2_pages_at_every_column_cap_match_a_filtered_walk(make):
    """Every page `page_at` serves from E2, at each r up to the first page
    where a differential can act (2..4 when none can) and at column caps
    None and 0 .. the last column + 1, is E2's monomials in those columns
    from this module's own walk: its text, written from the labelled walk
    or, with its basis read first, from the basis, is `json.dumps` of
    that page's object, and its total-degree dims are its basis counts,
    also once E2's own basis has been read."""
    model = make()
    e2 = model.e2
    _, widths = model._candidate_widths
    every = {
        key: tuple((m,) for m in cell)
        for key, cell in cells(e2.lattice).items()
        if sum(key) <= e2.degree_cap
    }
    for r in range(2, min(widths, default=4) + 1):
        for m in (None, *range(e2.lattice.cup_length() + 2)):
            want = {key: c for key, c in every.items() if m is None or key[0] <= m}
            text = json.dumps(page_json(e2._derived(r=r, basis=want, column_cap=m)), indent=2)
            assert report_mod.page_at(model, r, m).json_text() == text, (r, m)
            read = report_mod.page_at(model, r, m)
            assert read.basis == want, (r, m)
            assert read.json_text() == json.dumps(page_json(read), indent=2) == text
            dims = report_mod.page_at(model, r, m).dims_by_total_degree()
            counts = [0] * (e2.degree_cap + 1)
            for s, t in want:
                counts[s + t] += len(want[(s, t)])
            assert dims == counts, (r, m)
    # E2's own basis, once read, is not what a truncated page holds.
    assert e2.basis == every
    for m in range(e2.lattice.cup_length() + 2):
        want = {key: c for key, c in every.items() if key[0] <= m}
        assert report_mod.page_at(model, 2, m).basis == want, m


@pytest.mark.parametrize(
    "argv, m",
    [
        (["dump-page", "spin9", "--page", "2", "--degree-cap", "52"], None),
        (["dump-page", "spin9", "--page", "3", "--degree-cap", "52", "--truncate", "4"], 4),
        (["dump-page", "spin9", "--page", "2", "--truncate", "0"], 0),
        (["dump-page", "toy-trunc-poly", "--page", "3", "--truncate", "2"], 2),
        (["dump-page", "toy-trunc-poly", "--page", "2"], None),
    ],
)
def test_e2_dump_page_builds_no_class(monkeypatch, argv, m):
    """`dump-page` of an E2 page reads no `E2Cells.classes` and labels no
    class through `class_str`: its text comes from the labelled walk,
    which, with `--truncate m`, makes no monomial past column m (traced by
    walking the same part tables' exponents, each sum recorded)."""
    classes, labels, made = [], [], []
    monkeypatch.setattr(specseq.E2Cells, "classes", lambda *a: classes.append(a))
    monkeypatch.setattr(specseq.BigradedPage, "class_str", lambda *a: labels.append(a))
    real = specseq._walk_cells

    class Sum(int):
        """An exponent sum that records every sum the walk makes from it."""

        def __add__(self, e):
            made.append(int(self) + e)
            return Sum(made[-1])

    def traced(lattice, cap, column_cap, parts, unit):
        sums = [(range(len(first)),) * 2 for first, _ in parts]
        real(lattice, cap, column_cap, sums, Sum(0))
        return real(lattice, cap, column_cap, parts, unit)

    monkeypatch.setattr(specseq, "_walk_cells", traced)
    code, out, _ = run_cli(*argv)
    assert code == 0 and json.loads(out)["column_cap"] == m
    assert classes == [] and labels == []
    assert made
    if m is not None:
        assert max(made) <= m


@pytest.mark.parametrize("r", [2, 3, 4])
def test_unknown_permanent_cycle_exits_3_at_every_page(tmp_path, r):
    path = tmp_path / "two-page.json"
    path.write_text(json.dumps(two_page_data(permanent_cycles=["x1_2", "x1_5"])))
    assert run_cli("dump-page", str(path), "--page", str(r)) == (
        3, "", "lscat: unknown permanent cycle 'x1_5'\n"
    )


def test_degree_cap_override():
    code, out, _ = run_cli(
        "report", "spin9", "--degree-cap", "20", "--format", "json"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["degree_cap"] == 20
    assert len(rep["spectral_sequence"]["e_infinity_dims"]) == 21
    # Cap 20 is below spin9's top degree 36: cup-length and wgt are 6,
    # so the 4 found under the cap is a lower bound.
    entries = {
        e["quantity"]: e for e in rep["bounds"]["entries"]
        if e["quantity"] in ("cuplen", "wgt")
    }
    for quantity in ("cuplen", "wgt"):
        assert (entries[quantity]["kind"], entries[quantity]["value"]) == (
            "lower", 4
        )
        assert entries[quantity]["provenance"].endswith(
            "degree cap 20 is below the cohomology's top degree 36"
        )
    assert rep["bounds"]["bracket"] == {"lo": 4, "hi": 8, "consistent": True}
    code, out, _ = run_cli("report", "spin9", "--degree-cap", "20")
    assert code == 0
    assert "degree cap 20 truncates the cohomology" in out
    assert "bound: cuplen lower 4" in out and "bound: wgt lower 4" in out


def test_caps_below_the_top_degree_give_lower_bounds(tmp_path):
    """SU(8) at cap 52 (top degree 63) and toy-trunc-poly at cap 2 read
    `lower`; a cap at or above the top degree keeps `exact`."""
    su8 = tmp_path / "su8.json"
    su8.write_text(json.dumps(su_data(8)))
    for argv, want in (
        ((str(su8), "--degree-cap", "52"), "cuplen lower 6"),
        ((str(su8),), "cuplen exact 7"),
        (("toy-trunc-poly", "--degree-cap", "2"), "cuplen lower 0"),
        (("toy-trunc-poly",), "cuplen exact 3"),
    ):
        code, out, _ = run_cli("report", *argv)
        assert code == 0
        assert f"bound: {want}" in out
        assert ("truncates the cohomology" in out) == ("lower" in want)


def test_generator_above_a_low_cap_exits_3_naming_its_degree(tmp_path):
    """A Steenrod row under the cap whose value names x15, a generator
    above the cap (Sq^2 x3 = x15 at cap 12): validation gives its degree,
    not that its exponent is too high."""
    data = BUILTINS["spin9"]()
    for row in data["steenrod"]:
        if (row["gen"], row["k"]) == ("x3", 2):
            row["value"] = ["x15"]
    fixture = tmp_path / "sq2-x3-x15.json"
    fixture.write_text(json.dumps(data))
    code, out, _ = run_cli("report", str(fixture), "--degree-cap", "12")
    assert code == 3
    assert "Sq^2 x3: 'x15': degree 15 above cap 12" in out


@pytest.mark.parametrize(
    "space, cap, bracket",
    [
        ("spin9", 12, [3, 8]),
        ("spin9", 14, [4, 8]),
        ("su6", 10, [2, 5]),
    ],
)
def test_a_cap_below_a_steenrod_target_reports_lower_bounds(
    tmp_path, space, cap, bracket
):
    """A Steenrod row whose target degree |gen| + k is past the cap (Sq^4
    x11 = x15 for spin9, Sq^4 x7 = x11 for SU(6)) is 0 there, as every
    class past the cap is, so the fixture reports its lower bounds."""
    if space == "su6":
        data = su_data(6)
        data["attestations"] = [{
            "claim": "SU(6) has L-S category 5",
            "provenance": "Singhof, Math. Z. 145 (1975)",
            "bound": {"quantity": "cat", "kind": "upper", "value": 5},
        }]
        space = tmp_path / "su6.json"
        space.write_text(json.dumps(data))
    code, out, err = run_cli(
        "report", str(space), "--degree-cap", str(cap), "--format", "json"
    )
    assert (code, err) == (0, "")
    lo, hi = bracket
    assert json.loads(out)["bounds"]["bracket"] == {
        "lo": lo, "hi": hi, "consistent": True
    }


@pytest.mark.parametrize("cap", [8, 9, 10])
def test_spin9_below_its_differential_is_ambiguous(cap):
    """Below cap 11, x1_10 (total degree 11) and x1_2^4 (12) lie past the
    cap, so d_3(x1_10) = 0 and d_3(x1_10) = x1_2^4 both match the
    cohomology: the report exits 3 naming the ambiguity, not a Steenrod
    row."""
    code, out, err = run_cli("report", "spin9", "--degree-cap", str(cap))
    assert (code, out) == (3, "")
    assert err == (
        "lscat: spin9: differential inference is ambiguous "
        "(2 consistent assignments)\n"
    )


@pytest.mark.parametrize("power", ["-1", "a", ""])
def test_steenrod_value_with_a_bad_exponent_exits_3(tmp_path, power):
    """A Steenrod value whose exponent is not a natural number is a
    validation problem, never a traceback."""
    data = BUILTINS["spin9"]()
    data["steenrod"].append({"gen": "x7", "k": 5, "value": [f"x3^{power}*x15"]})
    fixture = tmp_path / "bad-exponent.json"
    fixture.write_text(json.dumps(data))
    for command in ("validate", "report"):
        code, out, _ = run_cli(command, str(fixture))
        assert code == 3
        assert f"exponent '{power}' is not a natural number" in out


def test_report_names_every_malformed_steenrod_row(tmp_path):
    """When the model's parse of the Steenrod table fails, validation
    parses it again and names every bad row, not just the first."""
    data = BUILTINS["spin9"]()
    data["steenrod"] += [
        {"gen": "x7", "k": 5, "value": ["x3^a*x15"]},
        {"gen": "x9", "k": 2, "value": ["x11"]},
    ]
    fixture = tmp_path / "two-bad-rows.json"
    fixture.write_text(json.dumps(data))
    code, out, _ = run_cli("report", str(fixture), "--format", "json")
    assert code == 3
    assert json.loads(out)["validation"]["problems"] == [
        "Sq^5 x7: 'x3^a*x15': exponent 'a' is not a natural number",
        "Sq^2 given on unknown generator 'x9'",
    ]


@pytest.mark.parametrize("name", spaces.BUILTIN_NAMES)
def test_builtin_prints_what_its_fixture_file_prints(tmp_path, name):
    """A built-in is its fixture data: every command prints the same bytes
    on the name and on a file holding `BUILTINS[name]()`."""
    fixture = tmp_path / f"{name}.json"
    fixture.write_text(json.dumps(BUILTINS[name]()))
    for argv in (
        ["report", "--format", "json"],
        ["report"],
        ["validate"],
        ["dump-page", "--page", "4"],
    ):
        on_name = run_cli(argv[0], name, *argv[1:])
        assert run_cli(argv[0], str(fixture), *argv[1:]) == on_name, argv
        assert on_name[0] == 0 and on_name[1], argv


def test_every_export_resolves_and_no_reference_fold_is_exported():
    """`lscat.__all__` names only what the package defines, the
    Leibniz-direct fold the tests compare against and the readers only the
    tests use live in the tests (they parse a monomial through the E2
    lattice, read a stage's page from the model's tower and give a page
    as a dict, a class's weight and GF(2) span membership), and the
    stage-class buckets live in `weights`, not `specseq`.  A stage's class
    is one `ClassFacts` record, with no per-bucket copy.  A witness is its
    report record, `validate` returns its problems, nothing stores a field
    no one reads, and the slotted records share `Record`'s one equality.
    Rows are parsed, multiplied, indexed and written as text only in the
    tests: the Steenrod table and squares are terms, and a witness joins
    its terms; `Algebra` keeps no basis or index between reads."""
    for name in lscat.__all__:
        assert getattr(lscat, name) is not None, name
    moved = (
        "apply_differential", "run_to_e_infinity", "truncate",
        "classify_truncation", "_d_of_vec",
    )
    for name in moved:
        assert name not in lscat.__all__
        assert not hasattr(specseq, name)
    for name in (
        "restricted_to_columns", "as_e_infinity", "_mul_exps", "parse_class",
        "parse_monomial", "to_json",
    ):
        assert not hasattr(specseq.BigradedPage, name)
    assert not hasattr(LoopSpaceModel, "truncation")
    # One way in for a presentation, and one fold per inference result.
    for name in ("to_dict", "dumps"):
        assert not hasattr(SpacePresentation, name)
    assert not hasattr(report_mod, "ReportError")
    assert not hasattr(LoopSpaceModel, "_inference")
    assert not hasattr(Algebra, "total_dimension")
    for name in ("total_dimension", "parse_class"):
        assert name not in lscat.__all__
    assert not hasattr(LoopSpaceModel, "wgt")
    for name in ("in_span", "reduce_mod"):
        assert not hasattr(gf2, name)
    bucket_names = (
        "BUCKET_PRODUCT", "BUCKET_PARTIAL", "BUCKET_RESIDUAL",
        "ClassFacts", "class_facts",
    )
    for name in bucket_names:
        assert not hasattr(specseq, name)
        assert hasattr(weights, name)
    assert not hasattr(weights, "TruncationClass")
    for name in ("entries", "entry"):
        assert not hasattr(weights.ClassFacts, name)
    assert not hasattr(weights, "ObstructionWitness")
    assert "ObstructionWitness" not in lscat.__all__
    assert not hasattr(spaces, "ValidationReport")
    assert "space" not in BoundsLedger.__slots__
    assert not hasattr(Algebra(AlgebraPresentation([], 1)), "presentation")
    for name in ("mul", "row_str", "terms", "parse_row", "index"):
        assert not hasattr(Algebra, name)
    for name in ("_bits", "_bases", "_ends", "_steps"):
        assert not hasattr(Algebra(AlgebraPresentation([], 1)), name)
    for record in (
        Generator, AlgebraPresentation, spaces.ExtraGenerator,
        spaces.Attestation, weights.ClassFacts,
    ):
        assert issubclass(record, Record) and "__eq__" not in vars(record)


def test_bad_truncate_value():
    code, _, err = run_cli("report", "spin9", "--truncate", "7,x")
    assert code == 3 and "truncate" in err


def test_search_budget_exits_3(monkeypatch):
    monkeypatch.setattr(specseq, "SEARCH_BUDGET", 1)
    code, _, err = run_cli("report", "spin9")
    assert code == 3
    assert "budget" in err


def budget_space():
    """Lambda(x3) under loop homology exterior on u2..u8 and polynomial on
    u20, u22, u24, cap 40."""
    return unmatched_space(
        "budget", 40, [("x3", 3, 2)],
        [(f"u{d}", d, 2) for d in (2, 4, 6, 8)]
        + [(f"u{d}", d, "unbounded") for d in (20, 22, 24)],
        [f"x1_{d}" for d in (2, 4, 6, 8)],
    )


def test_search_past_the_budget_builds_no_tower(tmp_path, monkeypatch):
    """The budget bounds the whole search, not each unknown's candidates
    alone: Lambda(x3) under loop homology exterior on u2..u8 and
    polynomial on u20, u22, u24, cap 40, has 8,708 assignments of x1_20,
    x1_22 and x1_24 over all pages, though no unknown has more than 2^5 at
    any page.  The report exits 3 before any tower is built."""
    built = []

    class CountingTower(specseq.TruncationTower):
        def __init__(self, e2, specs):
            built.append(specs)
            super().__init__(e2, specs)

    monkeypatch.setattr(specseq, "TruncationTower", CountingTower)
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(budget_space()))
    assert run_cli("validate", str(path)) == (0, "budget: ok\n", "")
    code, out, err = run_cli("report", str(path), "--format", "json")
    assert (code, out) == (3, "")
    assert err == (
        "lscat: search budget exceeded: 8708 assignments of d_r to "
        f"x1_20, x1_22, x1_24, more than {specseq.SEARCH_BUDGET}\n"
    )
    assert built == []
