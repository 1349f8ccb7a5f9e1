"""Command-line interface.

Exit codes: 0 success, 2 inconsistent bounds ledger, 3 invalid input
(bad fixture, failed validation, or an inference that does not close).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from lscat import report as report_mod
from lscat.algebra import AlgebraError
from lscat.spaces import (
    BUILTIN_NAMES,
    FixtureError,
    SpacePresentation,
    builtin,
    validate,
)
from lscat.specseq import SpectralSequenceError
from lscat.weights import LoopSpaceModel, WeightError

EXIT_OK = 0
EXIT_INCONSISTENT = 2
EXIT_INVALID = 3


def _load_space(name: str) -> SpacePresentation:
    if name in BUILTIN_NAMES:
        return builtin(name)
    return SpacePresentation.load(name)


def _dumps(obj, newline: str = "\n", memo: dict | None = None) -> str:
    """A report as `json.dumps(obj, indent=2)` writes it, byte for byte,
    for plain str-keyed dicts, lists, tuples, str, int, float, bool and
    None; `newline` is the line break and indent in front of `obj`.
    `json.dumps` with an indent runs the pure-Python encoder; this renders
    strings with its C string encoder and ints inline.  A page writes its
    own text (`BigradedPage.json_text`).

    A list item that is not a str or int is written once per call and
    indent (`memo`, keyed by its id, which is unique while `obj` holds
    it), since a report's stages share one record per class and bucket.
    The text of a value is never empty."""
    memo = {} if memo is None else memo
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + (
                encode_basestring_ascii(v) if type(v) is str
                else int.__repr__(v) if type(v) is int
                else _dumps(v, inner, memo)
            )
            for k, v in obj.items()
        ]) + newline + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([
            encode_basestring_ascii(v) if type(v) is str
            else int.__repr__(v) if type(v) is int
            else memo.get((id(v), inner))
            or memo.setdefault((id(v), inner), _dumps(v, inner, memo))
            for v in obj
        ]) + newline + "]"
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return int.__repr__(obj)
    if kind is float:
        return json.dumps(obj)  # json's spelling of nan and infinity
    raise TypeError(f"cannot render {kind.__name__} as JSON")


def _parse_truncations(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        out = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise FixtureError(f"bad --truncate value {text!r}") from exc
    if any(m < 0 for m in out):
        raise FixtureError("--truncate stages must be >= 0")
    return out


def cmd_report(args) -> int:
    space = _load_space(args.space)
    model = LoopSpaceModel(space, degree_cap=args.degree_cap)
    rep, code = report_mod.build_report(
        model,
        truncations=_parse_truncations(args.truncate),
        include_timings=args.timings,
    )
    if args.format == "json":
        sys.stdout.write(_dumps(rep) + "\n")
    else:
        sys.stdout.write(report_mod.format_text(rep))
    return code


def cmd_validate(args) -> int:
    space = _load_space(args.space)
    problems = validate(space)
    if not problems:
        sys.stdout.write(f"{space.name}: ok\n")
        return EXIT_OK
    sys.stdout.write(f"{space.name}: {len(problems)} problem(s)\n")
    for p in problems:
        sys.stdout.write(f"  - {p}\n")
    return EXIT_INVALID


def cmd_dump_page(args) -> int:
    space = _load_space(args.space)
    model = LoopSpaceModel(space, degree_cap=args.degree_cap)
    page = report_mod.page_at(model, args.page, truncate_at=args.truncate)
    sys.stdout.write(page.json_text() + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lscat",
        description="Mod-2 L-S category invariants via the bar spectral "
        "sequence and Steenrod obstructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "space",
            help=f"builtin name ({', '.join(BUILTIN_NAMES)}) or a JSON "
            "fixture path",
        )
        p.add_argument("--degree-cap", type=int, default=None,
                       help="override the fixture degree cap")

    p_report = sub.add_parser("report", help="full invariant report")
    common(p_report)
    p_report.add_argument("--truncate", default=None, metavar="M1,M2",
                          help="comma-separated projective stages to report")
    p_report.add_argument("--format", choices=("text", "json"),
                          default="text")
    p_report.add_argument("--timings", action="store_true",
                          help="include wall-clock timings (text and json)")
    p_report.set_defaults(func=cmd_report)

    p_validate = sub.add_parser("validate", help="preflight a fixture")
    p_validate.add_argument("space")
    p_validate.set_defaults(func=cmd_validate)

    p_dump = sub.add_parser("dump-page", help="dump one spectral-sequence page")
    common(p_dump)
    p_dump.add_argument("--page", type=int, required=True, metavar="R")
    p_dump.add_argument("--truncate", type=int, default=None, metavar="M",
                        help="column truncation before running differentials")
    p_dump.set_defaults(func=cmd_dump_page)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import, and shared by later calls.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FixtureError, AlgebraError,
            SpectralSequenceError, WeightError) as exc:
        sys.stderr.write(f"lscat: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
