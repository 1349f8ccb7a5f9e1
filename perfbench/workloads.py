"""The benchmark's workloads: fixed mixes of `lscat` CLI invocations.

Each op is one CLI invocation with a known-answer check.  The answers come
from the literature (ring structures, the Spin(9) differential and
witness, Singhof's cat SU(n) = n - 1), not from `lscat` output.  A check
returns a list of problems; empty means the output is correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from fixtures import SPIN9_FACTORS, TOY_FACTORS, product_series, su_factors

SPIN9_CAPS = (36, 44, 52)
SU_LADDER = tuple(range(4, 8))
PAGE_PAGES = (2, 3, 4)
PAGE_TRUNCATIONS = (None, 4, 8)
TOY_CAP = 36
PAGE_SU = (6, 8)


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]
    kind: str  # "report", "dump-page" or "validate"
    largest: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    su_fixtures: tuple[int, ...]  # SU(n) files the ops need
    build: Callable[[dict[int, str]], list[Op]]  # fixture paths -> op mix


def _expect(problems: list[str], what: str, have, want):
    if have != want:
        problems.append(f"{what}: got {have!r}, want {want!r}")


def _parse(out: str, problems: list[str]) -> dict | None:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def _check_report_common(rep, problems, cuplen, wgt, bracket, series):
    _expect(problems, "validation", rep["validation"], {"ok": True, "problems": []})
    inv = rep["invariants"]
    _expect(problems, "cup_length", inv["cup_length"]["value"], cuplen)
    _expect(problems, "weight", inv["weight"]["value"], wgt)
    _expect(problems, "bracket", rep["bounds"]["bracket"], bracket)
    _expect(
        problems, "e_infinity_dims",
        rep["spectral_sequence"]["e_infinity_dims"], series,
    )


def spin9_report_check(cap: int) -> Callable[[str], list[str]]:
    series = product_series(SPIN9_FACTORS, cap)

    def check(out: str) -> list[str]:
        problems: list[str] = []
        rep = _parse(out, problems)
        if rep is None:
            return problems
        try:
            _check_report_common(
                rep, problems, 6, 6, {"lo": 8, "hi": 8, "consistent": True},
                series,
            )
            _expect(problems, "Mwgt",
                    rep["invariants"]["module_weight_lower"]["value"], 8)
            _expect(problems, "differentials",
                    rep["spectral_sequence"]["differentials"],
                    [{"r": 3, "assignments": {"x1_10": ["x1_2^4"]}}])
            _expect(problems, "stages", [s["m"] for s in rep["stages"]], [7, 8, 9])
            top = [
                (w["k"], w["vanishing_degree"], w["target_degree"])
                for w in rep["witnesses"] if w["m"] == 7
            ]
            _expect(problems, "stage-7 witness (k, vanishing, target)",
                    top, [(4, 32, 36)])
            _expect(problems, "largest witnessed stage",
                    max(w["m"] for w in rep["witnesses"]), 7)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"report lacks an expected field: {exc!r}")
        return problems

    return check


def su_report_check(n: int) -> Callable[[str], list[str]]:
    series = product_series(su_factors(n), n * n - 1)

    def check(out: str) -> list[str]:
        problems: list[str] = []
        rep = _parse(out, problems)
        if rep is None:
            return problems
        try:
            _check_report_common(
                rep, problems, n - 1, n - 1,
                {"lo": n - 1, "hi": n - 1, "consistent": True}, series,
            )
            nontrivial = [
                d for d in rep["spectral_sequence"]["differentials"]
                if d["assignments"]
            ]
            _expect(problems, "nontrivial differentials", nontrivial, [])
        except (KeyError, TypeError) as exc:
            problems.append(f"report lacks an expected field: {exc!r}")
        return problems

    return check


def page_dims(page: dict) -> list[int]:
    dims = [0] * (page["degree_cap"] + 1)
    for b in page["bidegrees"]:
        dims[b["s"] + b["t"]] += len(b["classes"])
    return dims


def page_check(
    factors, cap: int, r: int, truncate: int | None, converged: int
) -> Callable[[str], list[str]]:
    """Every page has the requested shape; an untruncated page at or past
    `converged` (the first page equal to E-infinity) has the literature
    Poincare series as its total-degree dims."""
    series = product_series(factors, cap)

    def check(out: str) -> list[str]:
        problems: list[str] = []
        page = _parse(out, problems)
        if page is None:
            return problems
        try:
            _expect(problems, "r", page["r"], r)
            _expect(problems, "degree_cap", page["degree_cap"], cap)
            _expect(problems, "column_cap", page["column_cap"], truncate)
            for b in page["bidegrees"]:
                if b["s"] + b["t"] > cap or (
                    truncate is not None and b["s"] > truncate
                ):
                    problems.append(f"class outside the caps at {b['s'], b['t']}")
            if truncate is None and r >= converged:
                _expect(problems, f"E{r} total-degree dims", page_dims(page),
                        series)
        except (KeyError, TypeError, IndexError) as exc:
            problems.append(f"page lacks an expected field: {exc!r}")
        return problems

    return check


def validate_check(name: str) -> Callable[[str], list[str]]:
    def check(out: str) -> list[str]:
        return [] if out == f"{name}: ok\n" else [f"validate printed {out!r}"]

    return check


def _spin9_caps(paths: dict[int, str]) -> list[Op]:
    return [
        Op(
            f"report spin9 cap={cap}",
            ("report", "spin9", "--truncate", "7,8,9", "--format", "json",
             "--degree-cap", str(cap)),
            spin9_report_check(cap),
            "report",
            largest=cap == max(SPIN9_CAPS),
        )
        for cap in SPIN9_CAPS
    ]


def _su_ladder(paths: dict[int, str]) -> list[Op]:
    return [
        Op(
            f"report su{n}",
            ("report", paths[n], "--format", "json"),
            su_report_check(n),
            "report",
            largest=n == max(SU_LADDER),
        )
        for n in SU_LADDER
    ]


def _pages(paths: dict[int, str]) -> list[Op]:
    # (key, space argument, extra argv, validate name, factors, cap,
    # first page equal to E-infinity: d_3 is the last differential of
    # spin9 and the toy space, and SU(n) has none).
    inputs = [
        ("spin9 cap=36", "spin9", ("--degree-cap", "36"), "spin9",
         SPIN9_FACTORS, 36, 4),
        ("spin9 cap=52", "spin9", ("--degree-cap", "52"), "spin9",
         SPIN9_FACTORS, 52, 4),
        ("toy-trunc-poly", "toy-trunc-poly", (), "toy-trunc-poly",
         TOY_FACTORS, TOY_CAP, 4),
    ] + [
        (f"su{n}", paths[n], (), f"su{n}", su_factors(n), n * n - 1, 2)
        for n in PAGE_SU
    ]
    ops = []
    seen_validate = set()
    for key, space, extra, vname, factors, cap, converged in inputs:
        for r in PAGE_PAGES:
            for trunc in PAGE_TRUNCATIONS:
                argv = ("dump-page", space, "--page", str(r)) + extra
                if trunc is not None:
                    argv += ("--truncate", str(trunc))
                ops.append(Op(
                    f"dump-page {key} r={r} truncate={trunc}",
                    argv,
                    page_check(factors, cap, r, trunc, converged),
                    "dump-page",
                    largest=(key == "spin9 cap=52" and r == 4 and trunc is None),
                ))
        if vname not in seen_validate:
            seen_validate.add(vname)
            ops.append(Op(f"validate {vname}", ("validate", space),
                          validate_check(vname), "validate"))
    return ops


def fixture_check_ops(paths: dict[int, str]) -> list[Op]:
    """Checks on each generated SU(n) file: `lscat validate` passes and the
    E2 page's total-degree dims equal the product-formula series."""
    ops = []
    for n, path in sorted(paths.items()):
        ops.append(Op(f"fixture-check validate su{n}", ("validate", path),
                      validate_check(f"su{n}"), "validate"))
        ops.append(Op(
            f"fixture-check E2 su{n}", ("dump-page", path, "--page", "2"),
            page_check(su_factors(n), n * n - 1, 2, None, 2), "dump-page",
        ))
    return ops


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("spin9-caps", (), _spin9_caps),
        Workload("su-ladder", SU_LADDER, _su_ladder),
        Workload("pages", PAGE_SU, _pages),
    )
}
