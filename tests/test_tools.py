"""The repository's tools, run as their usage lines say."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
