"""Invariant report assembly: one space in, one deterministic report out.

Every reported number carries a provenance string.  Timing data is
collected only on request so that default reports are byte-identical
across runs.
"""

from __future__ import annotations

import time

from lscat import bounds as bounds_mod
from lscat.algebra import AlgebraError
from lscat.bounds import BoundsLedger, InconsistentLedger, LedgerError
from lscat.spaces import SpacePresentation, validate
from lscat.specseq import BigradedPage, SpectralSequenceError
from lscat.weights import LoopSpaceModel

SCHEMA_VERSION = 1

_RULES = {
    "bundle_upper_bound": (bounds_mod.bundle_upper_bound, "cat", "upper"),
    "ganea_product_bound": (bounds_mod.ganea_product_bound, "cat", "upper"),
    "strong_category_fallback": (
        bounds_mod.strong_category_fallback,
        "Cat",
        "upper",
    ),
}


class ReportError(ValueError):
    pass


def attested_entries(space: SpacePresentation, ledger: BoundsLedger):
    """Move machine-readable attestation bounds into the ledger."""
    for att in space.attestations:
        if att.bound:
            ledger.add(
                att.bound["quantity"],
                att.bound["kind"],
                att.bound["value"],
                f"attested: {att.claim} [{att.provenance}]",
            )
        if att.rule:
            name = att.rule["name"]
            if name not in _RULES:
                raise ReportError(f"unknown bound rule {name!r}")
            fn, quantity, kind = _RULES[name]
            value = fn(*att.rule["args"])
            ledger.add(
                quantity,
                kind,
                value,
                f"{name}{tuple(att.rule['args'])} = {value}; "
                f"attested: {att.claim} [{att.provenance}]",
            )


def build_ledger(model: LoopSpaceModel) -> BoundsLedger:
    space = model.space
    ledger = BoundsLedger(space.name)
    cuplen = model.cup_length()
    ledger.add("cuplen", "exact", cuplen, "longest nonzero product of "
               "positive-degree classes (monomial enumeration)")
    if space.loop_homology is not None:
        wgt = model.wgt_space()
        ledger.add("wgt", "exact", wgt, "maximal E-infinity filtration over "
                   "the reduced cohomology")
        mwgt = model.mwgt_lower_bound()
        if mwgt > 0:
            m = mwgt - 1
            ledger.add("Mwgt", "lower", mwgt,
                       f"Steenrod obstruction against a stage-{m} retraction")
    attested_entries(space, ledger)
    return ledger


def build_report(
    model: LoopSpaceModel,
    truncations: list[int] | None = None,
    include_timings: bool = False,
) -> tuple[dict, int]:
    """Assemble the full report; returns (report dict, exit code)."""
    t0 = time.perf_counter()
    space = model.space
    timings: dict[str, float] = {}

    def mark(label: str):
        nonlocal t0
        now = time.perf_counter()
        timings[label] = round(now - t0, 6)
        t0 = now

    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "space": space.name,
        "degree_cap": space.degree_cap,
    }

    try:
        e2 = model.e2 if space.loop_homology is not None else None
    except (SpectralSequenceError, AlgebraError):
        e2 = None  # validate builds it again and records why it failed
    vreport = validate(space, e2)
    if not vreport.ok:
        report["validation"] = {"ok": False, "problems": vreport.problems}
        return report, 3
    report["validation"] = {"ok": True, "problems": []}
    mark("validate")

    invariants = {
        "cup_length": {
            "value": model.cup_length(),
            "provenance": "longest nonzero product of positive-degree "
            "classes (monomial enumeration)",
        }
    }
    mark("cup_length")

    has_ss = space.loop_homology is not None
    if has_ss:
        specs = model.differentials
        e_inf = model.e_infinity
        report["spectral_sequence"] = {
            "permanent_cycles": list(space.permanent_cycles),
            "differentials": [
                {
                    "r": spec.r,
                    "assignments": {
                        name: sorted(
                            model.e2.monomial_str(m) for m in value
                        )
                        for name, value in sorted(spec.assignments.items())
                    },
                }
                for spec in specs
            ],
            "e_infinity_dims": e_inf.dims_by_total_degree(),
        }
        mark("spectral_sequence")

        invariants["weight"] = {
            "value": model.wgt_space(),
            "provenance": "maximal E-infinity filtration over the reduced "
            "cohomology",
        }
        mwgt = model.mwgt_lower_bound()
        invariants["module_weight_lower"] = {
            "value": mwgt,
            "provenance": (
                "1 + largest stage with a Steenrod obstruction witness"
                if mwgt
                else "no Steenrod obstruction witness found (proves nothing)"
            ),
        }
        mark("weights")

        report["stages"] = [
            {
                "m": m,
                "classes": [
                    {
                        "s": cls.s,
                        "t": cls.t,
                        "degree": cls.degree,
                        "label": cls.label,
                        "bucket": cls.bucket,
                    }
                    for cls in model.stage_report(m)
                ],
            }
            for m in (truncations or [])
        ]
        report["witnesses"] = [
            witness.to_json()
            for m in range(space.degree_cap + 1)
            if (witness := model.find_obstruction(m)) is not None
        ]
        mark("stages")
    report["invariants"] = invariants

    ledger = build_ledger(model)
    entries_json = [
        {
            "quantity": e.quantity,
            "kind": e.kind,
            "value": e.value,
            "provenance": e.provenance,
        }
        for e in ledger.entries
    ]
    exit_code = 0
    try:
        lo, hi = bounds_mod.assemble_bracket(ledger)
        bracket = {"lo": lo, "hi": hi, "consistent": True}
    except InconsistentLedger as exc:
        bracket = {
            "lo": exc.lower_entry.value,
            "hi": exc.upper_entry.value,
            "consistent": False,
            "conflict": [str(exc.lower_entry), str(exc.upper_entry)],
        }
        exit_code = 2
    except LedgerError:
        lowers = ledger.cat_lower_entries()
        uppers = ledger.cat_upper_entries()
        bracket = {
            "lo": max((e.value for e in lowers), default=None),
            "hi": min((e.value for e in uppers), default=None),
            "consistent": True,
        }
    report["bounds"] = {"entries": entries_json, "bracket": bracket}
    mark("bounds")
    if include_timings:
        report["timings"] = timings
    return report, exit_code


def page_at(
    model: LoopSpaceModel, r: int, truncate_at: int | None = None
) -> BigradedPage:
    """The page with index r (after all differentials of smaller index)."""
    from lscat.specseq import apply_differential

    if r < 2:
        raise SpectralSequenceError("pages start at r = 2")
    if all(spec.r < r for spec in model.differentials if not spec.is_trivial()):
        # Every differential is folded: this is E-infinity, read from the
        # model's one checked fold (for a truncation, from its tower).
        tower = model._tower
        if truncate_at is None:
            return tower.e_infinity.advanced(r)
        return tower.page(truncate_at).advanced(r)
    page = model.e2
    if truncate_at is not None:
        page = page.restricted_to_columns(truncate_at)
    for spec in sorted(model.differentials, key=lambda d: d.r):
        if spec.is_trivial() or spec.r >= r:
            continue
        page = apply_differential(page.advanced(spec.r), spec)
    return page.advanced(r)


def format_text(report: dict) -> str:
    """Human-readable rendering of a report dict."""
    lines = [f"space: {report['space']} (degree cap {report['degree_cap']})"]
    if not report["validation"]["ok"]:
        lines.append("validation FAILED:")
        lines.extend(f"  - {p}" for p in report["validation"]["problems"])
        return "\n".join(lines) + "\n"
    inv = report["invariants"]
    lines.append(f"cup-length:            {inv['cup_length']['value']}")
    if "weight" in inv:
        lines.append(f"category weight:       {inv['weight']['value']}")
        lines.append(
            f"module weight (lower): {inv['module_weight_lower']['value']}"
        )
    ss = report.get("spectral_sequence")
    if ss:
        if ss["differentials"]:
            for d in ss["differentials"]:
                for name, value in d["assignments"].items():
                    lines.append(
                        f"differential:          d_{d['r']}({name}) = "
                        + " + ".join(value)
                    )
        else:
            lines.append("differential:          none (E2 = E-infinity)")
    for w in report.get("witnesses", []):
        lines.append(
            f"witness (m={w['m']}): Sq^{w['k']}({w['class']}) = {w['target']}"
            f", degree {w['vanishing_degree']} vanishes upstairs"
        )
    for stage in report.get("stages", []):
        counts: dict[str, int] = {}
        for cls in stage["classes"]:
            counts[cls["bucket"]] = counts.get(cls["bucket"], 0) + 1
        lines.append(
            f"stage m={stage['m']}: {len(stage['classes'])} classes "
            + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
    bracket = report["bounds"]["bracket"]
    for e in report["bounds"]["entries"]:
        lines.append(
            f"bound: {e['quantity']} {e['kind']} {e['value']}  "
            f"[{e['provenance']}]"
        )
    if not bracket.get("consistent", True):
        lines.append(
            f"INCONSISTENT bracket: lower {bracket['lo']} > upper {bracket['hi']}"
        )
    else:
        lines.append(f"cat bracket: [{bracket['lo']}, {bracket['hi']}]")
        if bracket["lo"] is not None and bracket["lo"] == bracket["hi"]:
            lines.append(f"cat = {bracket['lo']} (certified)")
    if "timings" in report:
        for k, v in report["timings"].items():
            lines.append(f"time {k}: {v:.3f}s")
    return "\n".join(lines) + "\n"
