"""Invariant report assembly: one space in, one deterministic report out.

Every reported number carries a provenance string.  Timing data is
collected only on request so that default reports are byte-identical
across runs.
"""

from __future__ import annotations

import time

from lscat import bounds as bounds_mod
from lscat.bounds import BoundsLedger, InconsistentLedger
from lscat.spaces import FixtureError, SpacePresentation, validate
from lscat.specseq import BigradedPage, SpectralSequenceError
from lscat.weights import LoopSpaceModel

SCHEMA_VERSION = 1
CUPLEN_PROVENANCE = (
    "longest nonzero product of positive-degree classes "
    "(greedy on generator degrees)"
)
WGT_PROVENANCE = "maximal E-infinity filtration over the reduced cohomology"


def attested_entries(space: SpacePresentation, ledger: BoundsLedger):
    """Move machine-readable attestation bounds into the ledger.  A rule
    that gives no bound (`bounds.rule_problem`) raises FixtureError with
    the problem `validate` names for it."""
    for i, att in enumerate(space.attestations):
        if att.bound:
            ledger.add(
                att.bound["quantity"],
                att.bound["kind"],
                att.bound["value"],
                f"attested: {att.claim} [{att.provenance}]",
            )
        if att.rule:
            name = att.rule["name"]
            problem = bounds_mod.rule_problem(name, att.rule["args"])
            if problem:
                raise FixtureError(f"attestations[{i}].rule: {problem}")
            fn, quantity, kind, _ = bounds_mod.RULES[name]
            value = fn(*att.rule["args"])
            ledger.add(
                quantity,
                kind,
                value,
                f"{name}{tuple(att.rule['args'])} = {value}; "
                f"attested: {att.claim} [{att.provenance}]",
            )


def cap_truncation(space: SpacePresentation) -> str | None:
    """How the degree cap cuts off the cohomology, or None when the cap
    covers its top degree.  Below the top degree a product that vanishes
    under the cap may not vanish above it, so cup-length and wgt computed
    under the cap are lower bounds only."""
    top = space.cohomology.top_degree()
    cap = space.degree_cap
    if top is None:
        return f"degree cap {cap}; the cohomology is unbounded"
    if cap < top:
        return f"degree cap {cap} is below the cohomology's top degree {top}"
    return None


def build_ledger(model: LoopSpaceModel) -> BoundsLedger:
    space = model.space
    ledger = BoundsLedger()
    cut = cap_truncation(space)
    kind, note = ("lower", f"; {cut}") if cut else ("exact", "")
    cuplen = model.cup_length()
    ledger.add("cuplen", kind, cuplen, CUPLEN_PROVENANCE + note)
    if space.loop_homology is not None:
        wgt = model.wgt_space()
        ledger.add("wgt", kind, wgt, WGT_PROVENANCE + note)
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

    problems = validate(space)
    if problems:
        report["validation"] = {"ok": False, "problems": problems}
        return report, 3
    report["validation"] = {"ok": True, "problems": []}
    mark("validate")

    invariants = {
        "cup_length": {
            "value": model.cup_length(),
            "provenance": CUPLEN_PROVENANCE,
        }
    }
    mark("cup_length")

    has_ss = space.loop_homology is not None
    if has_ss:
        specs = model.differentials
        report["spectral_sequence"] = {
            "permanent_cycles": list(space.permanent_cycles),
            "differentials": [
                {
                    "r": spec.r,
                    "assignments": {
                        name: sorted(
                            model.e2.lattice.monomial_str(m)
                            for m in model.e2.monomials(
                                *model.e2.target(spec.r, name), value
                            )
                        )
                        for name, value in sorted(spec.assignments.items())
                    },
                }
                for spec in specs
            ],
            "e_infinity_dims": model._tower.e_infinity_dims,
        }
        mark("spectral_sequence")

        invariants["weight"] = {
            "value": model.wgt_space(),
            "provenance": WGT_PROVENANCE,
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

        # One record per (class, bucket), shared by every stage that
        # lists it; a class's id is unique, as the model keeps its facts.
        records: dict[tuple[int, str], dict] = {}
        report["stages"] = []
        for m in truncations or []:
            classes = []
            for cls, bucket in model.stage_report(m):
                record = records.get((id(cls), bucket))
                if record is None:
                    record = records[id(cls), bucket] = {
                        "s": cls.s,
                        "t": cls.t,
                        "degree": cls.degree,
                        "label": cls.label,
                        "bucket": bucket,
                    }
                classes.append(record)
            report["stages"].append({"m": m, "classes": classes})
        report["witnesses"] = model.witnesses
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
    report["bounds"] = {"entries": entries_json, "bracket": bracket}
    mark("bounds")
    if include_timings:
        report["timings"] = timings
    return report, exit_code


def page_at(
    model: LoopSpaceModel, r: int, truncate_at: int | None = None
) -> BigradedPage:
    """The page with index r (after all differentials of smaller index).

    Up to the first page where a differential can act, the least r at
    which some generator not listed as permanent has a nonempty d_r target
    cell (`specseq.candidate_widths`), page r is E2, whatever the
    abutment: it is served from E2 itself, its bidegrees past the column
    cap left out, without running the inference or building a tower.
    That is every page of a fixture with no such generator.  So for those
    pages a fixture whose inference fails, is ambiguous or is over the
    search budget still prints its page with exit 0, while a permanent
    cycle that is not an E2 generator still raises.  Later pages are read
    from the model's one checked fold, which runs the inference."""
    if r < 2:
        raise SpectralSequenceError("pages start at r = 2")
    e2 = model.e2
    _, widths = model._candidate_widths
    if r <= min(widths, default=r):
        if truncate_at is not None:
            if truncate_at < 0:
                raise SpectralSequenceError("column cap must be >= 0")
            e2 = e2._derived(column_cap=truncate_at, basis={
                key: classes for key, classes in e2.basis.items()
                if key[0] <= truncate_at
            })
        return e2.advanced(r)
    tower = model._tower
    j = sum(spec.r < r for spec in tower.specs)
    return tower.page(truncate_at, j).advanced(r)


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
        # A space with no differential lists none.
        lines += [
            f"differential:          d_{d['r']}({name}) = " + " + ".join(value)
            for d in ss["differentials"]
            for name, value in d["assignments"].items()
        ] or ["differential:          none (E2 = E-infinity)"]
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
    # The computed cup-length entry comes first; it is a lower bound only
    # when the degree cap truncates the cohomology.
    if report["bounds"]["entries"][0]["kind"] == "lower":
        lines.append(
            f"degree cap {report['degree_cap']} truncates the cohomology: "
            "cup-length and category weight are lower bounds"
        )
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
