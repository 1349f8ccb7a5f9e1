"""How an SU(n) report scales with n.

For each n, writes `perfbench/fixtures.su_fixture(n)` to a temporary
file, runs `lscat report FILE --format json` through `lscat.cli.main` in
process three times, and prints one row: n, the exit code, the cat
bracket, the best wall time of the three, the number of `Algebra.basis`
calls (over the cohomology, the extended algebra and the E2 lattice),
and the monomials of E2's walks (`specseq._walk_cells`), 0 when the
report walked no E2 cell.  The counts come from one more report of the
same fixture, built with `report.build_report` so that its objects can
be read.  Uses only the standard library:

    python3 tools/su_scaling.py N [N ...]
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from fixtures import su_fixture  # noqa: E402
from lscat import specseq  # noqa: E402
from lscat.algebra import Algebra  # noqa: E402
from lscat.cli import main as lscat_main  # noqa: E402
from lscat.report import build_report  # noqa: E402
from lscat.spaces import SpacePresentation  # noqa: E402
from lscat.weights import LoopSpaceModel  # noqa: E402

COLUMNS = ("n", "exit", "bracket", "wall_s", "basis_calls", "e2_cells")


def row(n: int, path: Path) -> list:
    """The printed row for SU(n), its fixture written to `path`."""
    fixture = su_fixture(n)
    path.write_text(json.dumps(fixture))
    best = None
    for _ in range(3):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = lscat_main(["report", str(path), "--format", "json"])
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    bracket = json.loads(out.getvalue())["bounds"]["bracket"]
    model = LoopSpaceModel(SpacePresentation.from_dict(fixture))
    calls, basis = [], Algebra.basis
    walked, walk = [], specseq._walk_cells
    Algebra.basis = lambda alg, degree: calls.append(degree) or basis(alg, degree)

    def counting_walk(*args):
        cells = walk(*args)
        walked.extend(map(len, cells.values()))
        return cells

    specseq._walk_cells = counting_walk
    try:
        build_report(model)
    finally:
        Algebra.basis = basis
        specseq._walk_cells = walk
    return [
        n, code, f"[{bracket['lo']},{bracket['hi']}]", f"{best:.4f}",
        len(calls), sum(walked),
    ]


def main(argv: list[str]) -> int:
    if not argv or not all(a.isdecimal() and int(a) >= 2 for a in argv):
        sys.stderr.write("usage: su_scaling.py N [N ...]  (each N >= 2)\n")
        return 2
    rows = [COLUMNS]
    with tempfile.TemporaryDirectory() as tmp:
        for n in map(int, argv):
            rows.append(row(n, Path(tmp) / f"su{n}.json"))
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(COLUMNS))]
    for r in rows:
        print("  ".join(str(v).rjust(w) for v, w in zip(r, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
