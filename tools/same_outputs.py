"""Compare what two copies of the package print, op by op.

Runs the same CLI invocations against two `src` directories and prints
each invocation whose (exit code, stdout, stderr) differs between them,
then a count.  The invocations are every op of the benchmark's three
workloads (`perfbench/workloads.WORKLOADS`, with the SU(n) fixtures
written once by `perfbench/fixtures.su_fixture`) and these on the
built-ins:

    report spin9 in json and text with --truncate 0..cap, at caps 36, 44,
        52 and 68
    report toy-trunc-poly in json and text with --truncate 0..36
    report spin9 in json and text with --truncate 9,7,7,8 (stages repeated
        and out of order, which share their class records)
    report SU(n) in json and text, n = 3..16 (fixtures by `su_fixture`)
    dump-page on each built-in at r = 2..5, truncate none, 0, 4 and 8
    dump-page spin9 at caps 36 and 52, r = 4 and 5, truncate 0..cap, and
        toy-trunc-poly at r = 4, truncate 0..36 (every truncation of a
        page past the last differential)
    validate on each built-in
    validate, and report in json, on each table of `malformed_tables`:
        spin9's presentation with one Steenrod table edit, written to the
        fixtures directory, so that both trees parse the same values

Each side runs in its own subprocess with its own `src` first on
`sys.path`, and each op goes through `lscat.cli.main` in process, with
stdout and stderr captured, as the benchmark runs it.  Exits 0 when every
op prints the same, 1 otherwise.  With `--replace OLD_TEXT NEW_TEXT`,
each op's stdout from OLD_SRC has every OLD_TEXT replaced by NEW_TEXT
before the comparison, and the tool also counts the ops that differ by
that replacement only: an edit to a printed string shows as that count,
and as no op that differs.  Uses only the standard library:

    python3 tools/same_outputs.py OLD_SRC NEW_SRC [--replace OLD_TEXT NEW_TEXT]
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from fixtures import su_fixture  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BUILTINS = ("spin9", "toy-trunc-poly", "unit")
SPIN9_CAPS = (36, 44, 52, 68)
TOY_CAP = 36
SU_REPORTS = tuple(range(3, 17))
PAGES = (2, 3, 4, 5)
TRUNCATIONS = (None, 0, 4, 8)
# (space, cap, pages) of the dump-page ops at every truncation 0..cap.
LATER_PAGES = (
    ("spin9", 36, (4, 5)), ("spin9", 52, (4, 5)), ("toy-trunc-poly", TOY_CAP, (4,)),
)


def spin9_data() -> dict:
    """spin9's presentation, as the built-in gives it, without its
    attestations."""
    def gens(*named):
        return {"generators": [
            {"name": name, "degree": degree, "height": height}
            for name, degree, height in named
        ]}

    return {
        "name": "spin9",
        "degree_cap": 36,
        "cohomology": gens(("x3", 3, 4), ("x5", 5, 2), ("x7", 7, 2), ("x15", 15, 2)),
        "steenrod": [
            {"gen": "x3", "k": 2, "value": ["x5"]},
            {"gen": "x5", "k": 1, "value": ["x3^2"]},
        ],
        "loop_homology": gens(
            ("u2", 2, 2), ("u4", 4, "unbounded"), ("u6", 6, "unbounded"),
            ("u10", 10, "unbounded"), ("u14", 14, "unbounded"),
        ),
        "permanent_cycles": ["x1_2", "x1_4", "x1_6", "x1_14"],
        "extra_generators": [
            {"name": "x11", "t": 10, "extension_height": 3,
             "steenrod": [{"k": 4, "value": ["x15"]}]},
        ],
    }


def malformed_tables() -> dict[str, dict]:
    """spin9's presentation with one Steenrod table edit each, by name."""
    out = {}

    def edit(name: str, *rows: dict, x11_rows=(), **fields) -> dict:
        data = out[name] = spin9_data() | fields
        data["steenrod"] += rows
        data["extra_generators"][0]["steenrod"] += x11_rows
        return data

    # x3^2 given three times, in two spellings, is x3^2; x3*x7 twice is 0,
    # which is x5^2, as Sq^5 x5 must be.
    cancel = edit("cancelling monomials",
                  {"gen": "x5", "k": 5, "value": ["x3*x7", "x3*x7"]})
    cancel["steenrod"][1]["value"] = ["x3^2", "x3*x3", "x3^2"]
    # Sq^10 x15 lies in degree 25, past the cap: it is 0 there, and its
    # value is parsed all the same.
    edit("unparsable row past the cap",
         {"gen": "x15", "k": 10, "value": ["x15^^2"]}, degree_cap=24)
    edit("inhomogeneous value", {"gen": "x7", "k": 4, "value": ["x3^2*x5", "x3*x7"]})
    edit("unknown generator", {"gen": "x9", "k": 2, "value": ["x11"]},
         {"gen": "x7", "k": 2, "value": ["y9"]})
    edit("cohomology row naming x11", {"gen": "x7", "k": 4, "value": ["x11"]})
    edit("top square not the square", {"gen": "x5", "k": 5, "value": ["x3*x7"]})
    edit("partial-product term", x11_rows=[{"k": 3, "value": ["x3*x11"]}])
    return out


# Run in each side's subprocess: argv is SRC, the ops file and the
# results file; each op's (exit code, stdout, stderr) goes to the latter.
RUN_SIDE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, sys.argv[1])
from lscat.cli import main
with open(sys.argv[2]) as fh:
    ops = json.load(fh)
results = []
for _, argv in ops:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
with open(sys.argv[3], "w") as fh:
    json.dump(results, fh)
"""


def invocations(fixture_dir: Path) -> list[tuple[str, list[str]]]:
    """Every (name, argv) the tool runs, with the SU(n) fixtures written
    to `fixture_dir`."""
    paths = {}
    for n in {*SU_REPORTS, *(n for w in WORKLOADS.values() for n in w.su_fixtures)}:
        paths[n] = str(fixture_dir / f"su{n}.json")
        Path(paths[n]).write_text(json.dumps(su_fixture(n), indent=2) + "\n")
    out = [
        (f"{name}: {op.key}", list(op.argv))
        for name, workload in WORKLOADS.items()
        for op in workload.build(paths)
    ]
    reports = [(f"spin9 cap={cap}", "spin9", cap) for cap in SPIN9_CAPS]
    reports.append((f"toy-trunc-poly cap={TOY_CAP}", "toy-trunc-poly", TOY_CAP))
    for name, space, cap in reports:
        stages = ",".join(map(str, range(cap + 1)))
        for fmt in ("json", "text"):
            argv = ["report", space, "--degree-cap", str(cap),
                    "--truncate", stages, "--format", fmt]
            out.append((f"extra: report {name} {fmt}", argv))
    for fmt in ("json", "text"):
        argv = ["report", "spin9", "--truncate", "9,7,7,8", "--format", fmt]
        out.append((f"extra: report spin9 stages 9,7,7,8 {fmt}", argv))
    for n in SU_REPORTS:
        for fmt in ("json", "text"):
            out.append((f"extra: report su{n} {fmt}",
                        ["report", paths[n], "--format", fmt]))
    for space in BUILTINS:
        for r in PAGES:
            for m in TRUNCATIONS:
                argv = ["dump-page", space, "--page", str(r)]
                argv += [] if m is None else ["--truncate", str(m)]
                out.append((f"extra: dump-page {space} r={r} truncate={m}", argv))
    for space, cap, pages in LATER_PAGES:
        for r in pages:
            for m in range(cap + 1):
                argv = ["dump-page", space, "--degree-cap", str(cap),
                        "--page", str(r), "--truncate", str(m)]
                out.append((f"extra: dump-page {space} cap={cap} r={r} "
                            f"truncate={m}", argv))
    out += [(f"extra: validate {space}", ["validate", space]) for space in BUILTINS]
    for name, data in malformed_tables().items():
        path = fixture_dir / f"{name.replace(' ', '-')}.json"
        path.write_text(json.dumps(data, indent=2) + "\n")
        out.append((f"parse: validate {name}", ["validate", str(path)]))
        out.append((f"parse: report {name}",
                    ["report", str(path), "--format", "json"]))
    return out


def run_side(src: str, ops_file: Path, results_file: Path) -> list:
    subprocess.run(
        [sys.executable, "-c", RUN_SIDE, src, str(ops_file), str(results_file)],
        check=True,
    )
    return json.loads(results_file.read_text())


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 5) or len(argv) == 5 and argv[2] != "--replace":
        sys.stderr.write(
            "usage: same_outputs.py OLD_SRC NEW_SRC [--replace OLD_TEXT NEW_TEXT]\n"
        )
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ops = invocations(tmp)
        ops_file = tmp / "ops.json"
        ops_file.write_text(json.dumps(ops))
        old = run_side(argv[0], ops_file, tmp / "old.json")
        new = run_side(argv[1], ops_file, tmp / "new.json")
    if len(argv) == 5:
        # An expected edit: the older tree's stdout with it made.
        moved = sum(a != b for a, b in zip(old, new))
        for a in old:
            a[1] = a[1].replace(argv[3], argv[4])
    differ = [name for (name, _), a, b in zip(ops, old, new) if a != b]
    for name in differ:
        print(f"differs: {name}")
    if len(argv) == 5:
        print(f"{moved - len(differ)} of {len(ops)} ops differ by the replacement only")
    print(f"{len(differ)} of {len(ops)} ops differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
