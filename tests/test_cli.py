"""CLI contract: formats, determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import lscat
from lscat.cli import main
from lscat.spaces import builtin


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
    assert "stage m=7" in out and "stage m=8" in out


def test_json_report_validates_against_schema():
    code, out, _ = run_cli(
        "report", "spin9", "--truncate", "7,8,9", "--format", "json"
    )
    assert code == 0
    rep = json.loads(out)
    jsonschema.validate(rep, report_schema())
    assert rep["bounds"]["bracket"] == {"lo": 8, "hi": 8, "consistent": True}


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

    data = builtin("spin9").to_dict()
    data["steenrod"][0]["value"] = ["x7"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli("validate", str(bad))
    assert code == 3
    assert "problem" in out


def test_report_on_invalid_fixture_exits_3(tmp_path):
    data = builtin("spin9").to_dict()
    data["steenrod"][0]["value"] = ["x7"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli("report", str(bad), "--format", "json")
    assert code == 3
    rep = json.loads(out)
    assert rep["validation"]["ok"] is False
    jsonschema.validate(rep, report_schema())


def test_second_partial_generator_exits_3(tmp_path):
    """An unsupported presentation fails loudly, never as "no witness"."""
    data = builtin("spin9").to_dict()
    data["extra_generators"].append(
        {"name": "y13", "t": 12, "extension_height": 3, "steenrod": []}
    )
    path = tmp_path / "two_extras.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli("report", str(path), "--format", "json")
    assert code == 3
    assert "at most one partial-product generator supported" in err


def test_optimised_interpreter_gives_same_report():
    """`python -O` strips asserts; no certified number may depend on one."""
    src = str(Path(lscat.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "lscat.cli", "report", "spin9",
             "--format", "json"],
            capture_output=True, env=env, timeout=120,
        )
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[1].stdout)["bounds"]["bracket"]["lo"] == 8


def test_missing_file_exits_3():
    code, _, err = run_cli("report", "no-such-file.json")
    assert code == 3
    assert "lscat:" in err


def test_inconsistent_ledger_exits_2(tmp_path):
    data = builtin("spin9").to_dict()
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


def test_degree_cap_override():
    code, out, _ = run_cli(
        "report", "spin9", "--degree-cap", "20", "--format", "json"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["degree_cap"] == 20
    assert len(rep["spectral_sequence"]["e_infinity_dims"]) == 21


def test_bad_truncate_value():
    code, _, err = run_cli("report", "spin9", "--truncate", "7,x")
    assert code == 3 and "truncate" in err


def test_budget_flag():
    code, _, err = run_cli(
        "report", "spin9", "--max-search-per-generator", "1"
    )
    assert code == 3
    assert "budget" in err
