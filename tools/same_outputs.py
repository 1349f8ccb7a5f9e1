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
    report SU(n) in json and text, n = 3..16 (fixtures by `su_fixture`)
    dump-page on each built-in at r = 2..5, truncate none, 0, 4 and 8
    validate on each built-in

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
    out += [(f"extra: validate {space}", ["validate", space]) for space in BUILTINS]
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
