"""The repository's tools, run as their usage lines say."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    """The module `tools/<name>.py`."""
    path = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


planted_sweep = load_tool("planted_sweep")
same_outputs = load_tool("same_outputs")
su_scaling = load_tool("su_scaling")


def provenance_reports(ops) -> list[str]:
    """The names of the `report` ops among `same_outputs`' ops that print
    the wgt provenance: all but those of the malformed tables that fail
    validation."""
    invalid = {
        f"parse: report {name}" for name in same_outputs.malformed_tables()
        if name not in ("cancelling monomials", "partial-product term")
    }
    return [
        name for name, argv in ops if argv[0] == "report" and name not in invalid
    ]


def test_code_lines_total_is_the_sum_of_its_module_rows():
    """`tools/code_lines.py` prints one row per module of `src/lscat` and a
    total row, the package's code-line count, which sums those rows."""
    package = ROOT / "src" / "lscat"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(package)],
        capture_output=True,
        text=True,
        check=True,
    )
    *modules, (total, label) = [line.split() for line in proc.stdout.splitlines()]
    assert label == "total"
    assert [name for _, name in modules] == sorted(
        path.name for path in package.glob("*.py")
    )
    assert int(total) == sum(int(n) for n, _ in modules) > 0


def test_same_outputs_names_exactly_the_ops_an_edit_moves(tmp_path):
    """`tools/same_outputs.py` against a copy of `src` whose wgt
    provenance, printed by every report that passes validation and by
    nothing else, is edited: it exits 1 and names every such `report` op,
    and every `dump-page` and `validate` op, and every report of a table
    that fails validation, compares equal."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    report = src / "lscat" / "report.py"
    text = report.read_text()
    edited = text.replace('WGT_PROVENANCE = "maximal', 'WGT_PROVENANCE = "largest')
    assert edited != text
    report.write_text(edited)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_outputs.py"),
         str(ROOT / "src"), str(src)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    *lines, count = proc.stdout.splitlines()
    named = [line.removeprefix("differs: ") for line in lines]
    (tmp_path / "fixtures").mkdir()
    ops = same_outputs.invocations(tmp_path / "fixtures")
    kinds = {name: argv[0] for name, argv in ops}
    assert named == provenance_reports(ops)
    assert {"dump-page", "validate"} <= set(kinds.values())
    assert count == f"{len(named)} of {len(ops)} ops differ"
    # The reports that must stay byte-identical: SU(3..16), spin9 at caps
    # 36, 44, 52 and 68, spin9 with stages repeated and out of order, and
    # toy-trunc-poly, each in JSON and text; `validate` and a JSON report
    # on each of seven malformed Steenrod tables; the pages past spin9's
    # and toy-trunc-poly's last differential at every truncation; and the
    # pages served from E2 at every truncation up to the last E2 column.
    assert len(ops) == 480
    tables = same_outputs.malformed_tables()
    assert len(tables) == 7
    for name in tables:
        assert {f"parse: validate {name}", f"parse: report {name}"} <= kinds.keys()
    spaces = [f"su{n}" for n in range(3, 17)]
    spaces += [f"spin9 cap={cap}" for cap in (36, 44, 52, 68)]
    spaces += ["spin9 stages 9,7,7,8", "toy-trunc-poly cap=36"]
    for space in spaces:
        for fmt in ("json", "text"):
            assert f"extra: report {space} {fmt}" in kinds
    for space, cap, pages in same_outputs.LATER_PAGES:
        for r in pages:
            for m in range(cap + 1):
                name = f"extra: dump-page {space} cap={cap} r={r} truncate={m}"
                assert kinds[name] == "dump-page"
    e2_pages = [name for name in kinds if name.startswith("extra: dump-page E2 ")]
    assert len(e2_pages) == sum(
        len(pages) * (last + 1) for _, _, pages, last in same_outputs.E2_PAGES
    ) == 102
    assert {kinds[name] for name in e2_pages} == {"dump-page"}


def test_same_outputs_replace_shows_an_edit_to_one_string(tmp_path):
    """With `--replace`, the same edited copy of `src` compares equal on
    every op, and every `report` op is counted as differing by the
    replacement only."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    report = src / "lscat" / "report.py"
    text = report.read_text()
    report.write_text(
        text.replace('WGT_PROVENANCE = "maximal', 'WGT_PROVENANCE = "largest')
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_outputs.py"),
         str(ROOT / "src"), str(src), "--replace",
         "maximal E-infinity filtration", "largest E-infinity filtration"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    (tmp_path / "fixtures").mkdir()
    ops = same_outputs.invocations(tmp_path / "fixtures")
    reports = len(provenance_reports(ops))
    assert proc.stdout.splitlines() == [
        f"{reports} of {len(ops)} ops differ by the replacement only",
        f"0 of {len(ops)} ops differ",
    ]


def test_su_scaling_prints_a_row_per_n():
    """`tools/su_scaling.py 3 4` prints a header and one row per n: the
    report exits 0 with the bracket [n - 1, n - 1], builds no basis, and
    reads no E2 cell."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "su_scaling.py"), "3", "4"],
        capture_output=True,
        text=True,
        check=True,
    )
    header, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert tuple(header) == su_scaling.COLUMNS
    assert [int(r[0]) for r in rows] == [3, 4]
    for n, code, bracket, wall, bases, cells in rows:
        n = int(n)
        assert (code, bracket) == ("0", f"[{n - 1},{n - 1}]")
        assert 0 < float(wall) < 10
        assert (bases, cells) == ("0", "0")


def test_planted_sweep_counts_every_member_at_cap_10():
    """`tools/planted_sweep.py 10` sorts the 12, 55 and 120 members of
    one, two and three pairs into outcomes, and at cap 10 inference
    certifies no differential other than the planted ones."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "planted_sweep.py"), "10"],
        capture_output=True,
        text=True,
        check=True,
    )
    title, header, *rows = proc.stdout.splitlines()
    assert title == "cap 10"
    assert header.split() == ["pairs", *planted_sweep.OUTCOMES]
    counts = {
        int(k): dict(zip(planted_sweep.OUTCOMES, map(int, row)))
        for k, *row in map(str.split, rows)
    }
    assert {k: sum(row.values()) for k, row in counts.items()} == {
        1: 12, 2: 55, 3: 120
    }
    assert all(row["other"] == 0 for row in counts.values())


# Mixed-height members on which inference certifies a wrong single-page
# assignment: each reported E-infinity keeps some x1_b^h (degree <= cap)
# alive while x_{b+1}^h = 0.  A prune by the cohomology's heights would
# reject those assignments.
WRONG_DIFFERENTIALS = [
    (12, ((1, 3), (2, 4), (5, 3))),
    (12, ((1, 3), (2, 4), (5, 4))),
    (12, ((1, 3), (2, 4), (6, 3))),
    (12, ((1, 3), (2, 4), (6, 4))),
    (16, ((1, 3), (2, 4), (5, 4))),
    (16, ((1, 3), (3, 4), (5, 4))),
    (16, ((1, 3), (3, 4), (6, 3))),
    (16, ((1, 3), (3, 4), (6, 4))),
    (16, ((1, 4), (2, 3), (3, 3))),
    (16, ((1, 4), (2, 3), (4, 3))),
    (16, ((1, 4), (3, 3), (4, 3))),
    (16, ((1, 4), (4, 3), (5, 4))),
    (16, ((2, 3), (3, 4), (5, 4))),
    (20, ((1, 3), (2, 4), (5, 3))),
    (20, ((1, 3), (2, 4), (5, 4))),
    (20, ((1, 3), (3, 4), (5, 3))),
    (20, ((2, 3), (3, 4), (5, 3))),
]


@pytest.mark.xfail(
    strict=True, reason="inference certifies an assignment that is not planted"
)
@pytest.mark.parametrize(
    "cap, pairs",
    WRONG_DIFFERENTIALS,
    ids=[
        "-".join([f"cap{cap}", *(f"{b}.{h}" for b, h in pairs)])
        for cap, pairs in WRONG_DIFFERENTIALS
    ],
)
def test_planted_member_reports_its_differentials_or_exits_3(
    tmp_path, cap, pairs
):
    """A planted member's report either names exactly the planted
    differentials or exits 3 saying why inference did not close."""
    assert planted_sweep.outcome(pairs, cap, tmp_path) in (
        "planted", "ambiguous", "mismatch", "budget"
    )
