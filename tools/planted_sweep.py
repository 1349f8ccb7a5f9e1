"""Run `lscat report` on every member of the planted-pair family at one
degree cap, and count the outcomes per number of pairs.

A pair (b, h) plants one differential: the cohomology has x_{b+1} of
height h, the loop homology has u_b of height 2 (with x1_b permanent) and
u_t polynomial, t = h(b + 1) - 2, and d_{h-1}(x1_t) = x1_b^h.  A member
is a set of 1 to 3 distinct pairs, b in 1..6 and h in {3, 4}, whose
generator degrees b + 1 and t + 1 are pairwise distinct (187 members).
Each member's report ends in one outcome:

    planted    exit 0 with exactly the planted differentials of the pairs
               with t + 1 <= cap
    other      exit 0 with any other differentials
    ambiguous  exit 3: more than one consistent assignment
    mismatch   exit 3: no consistent assignment
    budget     exit 3: the search budget is exceeded
    invalid    any other exit

Uses only the standard library and the package under src/:

    python3 tools/planted_sweep.py CAP
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lscat.cli import main as lscat_main  # noqa: E402

PAIRS = [(b, h) for b in range(1, 7) for h in (3, 4)]
OUTCOMES = ("planted", "other", "ambiguous", "mismatch", "budget", "invalid")


def source(b: int, h: int) -> int:
    """The degree t of the loop generator u_t whose suspension d_{h-1}
    sends to x1_b^h."""
    return h * (b + 1) - 2


def members() -> list[tuple[tuple[int, int], ...]]:
    """Every set of 1 to 3 pairs whose generator degrees are distinct."""
    out = []
    for k in (1, 2, 3):
        for pairs in combinations(PAIRS, k):
            degrees = [d for b, h in pairs for d in (b + 1, source(b, h) + 1)]
            if len(set(degrees)) == len(degrees):
                out.append(pairs)
    return out


def member_data(pairs, cap: int) -> dict:
    """The fixture of one member at degree cap `cap`."""
    cohomology = sorted((b + 1, h) for b, h in pairs)
    loop = sorted(
        [(b, 2) for b, _ in pairs]
        + [(source(b, h), "unbounded") for b, h in pairs]
    )
    return {
        "name": "planted-" + "-".join(f"{b}.{h}" for b, h in pairs),
        "degree_cap": cap,
        "cohomology": {
            "generators": [
                {"name": f"x{d}", "degree": d, "height": h} for d, h in cohomology
            ]
        },
        "steenrod": [],
        "loop_homology": {
            "generators": [
                {"name": f"u{d}", "degree": d, "height": h} for d, h in loop
            ]
        },
        "permanent_cycles": [f"x1_{b}" for b, _ in sorted(pairs)],
        "extra_generators": [],
        "attestations": [],
    }


def planted(pairs, cap: int) -> list[dict]:
    """The report's differentials when inference finds the planted ones."""
    by_r: dict[int, dict] = {}
    for b, h in pairs:
        t = source(b, h)
        if t + 1 <= cap:
            by_r.setdefault(h - 1, {})[f"x1_{t}"] = [f"x1_{b}^{h}"]
    return [
        {"r": r, "assignments": dict(sorted(by_r[r].items()))}
        for r in sorted(by_r)
    ]


def outcome(pairs, cap: int, workdir: Path) -> str:
    """The outcome of the member's JSON report."""
    path = workdir / "member.json"
    path.write_text(json.dumps(member_data(pairs, cap)))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lscat_main(["report", str(path), "--format", "json"])
    if code == 0:
        found = json.loads(out.getvalue())["spectral_sequence"]["differentials"]
        return "planted" if found == planted(pairs, cap) else "other"
    # Each exit-3 outcome is named by a word of its message.
    words = OUTCOMES[2:5] if code == 3 else ()
    return next((w for w in words if w in err.getvalue()), "invalid")


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not argv[1].isdigit():
        sys.stderr.write("usage: planted_sweep.py CAP\n")
        return 2
    cap = int(argv[1])
    counts = {k: dict.fromkeys(OUTCOMES, 0) for k in (1, 2, 3)}
    with tempfile.TemporaryDirectory() as tmp:
        for pairs in members():
            counts[len(pairs)][outcome(pairs, cap, Path(tmp))] += 1
    print(f"cap {cap}")
    print("pairs " + " ".join(f"{name:>9}" for name in OUTCOMES))
    for k, row in counts.items():
        print(f"{k:5} " + " ".join(f"{row[name]:9}" for name in OUTCOMES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
