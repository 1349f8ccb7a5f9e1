"""Machine-readable space presentations (fixtures) and their validation.

A presentation bundles everything one space needs: the mod-2 cohomology
algebra, its Steenrod table, loop-space homology, the permanent-cycle
list for the bar spectral sequence, extra filtration-1 classes usable in
partial products, and trusted attestations (free-text homotopy facts,
optionally carrying a machine-readable bound for the ledger).

JSON schema (monomial strings are factors "name^e" joined by "*", "1"
for the unit):

    {name, degree_cap,
     cohomology: {generators: [{name, degree, height}]},
     steenrod: [{gen, k, value: [monomial, ...]}],
     loop_homology: {generators: [...]} | null,
     permanent_cycles: [name, ...],
     extra_generators: [{name, t, extension_height,
                         steenrod: [{k, value: [monomial, ...]}]}],
     attestations: [{claim, provenance, bound?, rule?}]}

height is a positive integer >= 2 or "unbounded".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from lscat.algebra import (
    Algebra,
    AlgebraError,
    AlgebraPresentation,
    Generator,
)
from lscat.specseq import BigradedPage, SpectralSequenceError, koszul_e2
from lscat.steenrod import SteenrodAction

BUILTIN_NAMES = ("spin9", "toy-trunc-poly", "unit")


class FixtureError(ValueError):
    pass


@dataclass
class ExtraGenerator:
    """A filtration-1 class of the projective-stage models that is not a
    suspension of a cohomology generator (it enters partial products)."""

    name: str
    t: int
    extension_height: int
    steenrod: dict[int, list[str]] = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return 1 + self.t


@dataclass
class Attestation:
    claim: str
    provenance: str
    bound: dict | None = None  # {"quantity", "kind", "value"}
    rule: dict | None = None  # {"name", "args"}


@dataclass
class SpacePresentation:
    name: str
    degree_cap: int
    cohomology: AlgebraPresentation
    steenrod: list[tuple[str, int, list[str]]] = field(default_factory=list)
    loop_homology: AlgebraPresentation | None = None
    permanent_cycles: list[str] = field(default_factory=list)
    extra_generators: list[ExtraGenerator] = field(default_factory=list)
    attestations: list[Attestation] = field(default_factory=list)

    # -- derived objects ---------------------------------------------------

    def algebra(self) -> Algebra:
        return Algebra(self.cohomology)

    def action(self, algebra: Algebra | None = None) -> SteenrodAction:
        algebra = algebra or self.algebra()
        table = {}
        for gen, k, value in self.steenrod:
            table[(gen, k)] = algebra.parse_element(value)
        return SteenrodAction(algebra, table)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        def height_json(h):
            return "unbounded" if h is None else h

        def pres_json(p):
            return {
                "generators": [
                    {"name": g.name, "degree": g.degree, "height": height_json(g.height)}
                    for g in p.generators
                ]
            }

        return {
            "name": self.name,
            "degree_cap": self.degree_cap,
            "cohomology": pres_json(self.cohomology),
            "steenrod": [
                {"gen": g, "k": k, "value": list(v)} for g, k, v in self.steenrod
            ],
            "loop_homology": (
                pres_json(self.loop_homology) if self.loop_homology else None
            ),
            "permanent_cycles": list(self.permanent_cycles),
            "extra_generators": [
                {
                    "name": x.name,
                    "t": x.t,
                    "extension_height": x.extension_height,
                    "steenrod": [
                        {"k": k, "value": list(v)}
                        for k, v in sorted(x.steenrod.items())
                    ],
                }
                for x in self.extra_generators
            ],
            "attestations": [
                {
                    "claim": a.claim,
                    "provenance": a.provenance,
                    **({"bound": a.bound} if a.bound else {}),
                    **({"rule": a.rule} if a.rule else {}),
                }
                for a in self.attestations
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "SpacePresentation":
        def height_py(h):
            if h == "unbounded":
                return None
            if not isinstance(h, int):
                raise FixtureError(f"bad height {h!r}")
            return h

        def pres_py(p, cap):
            try:
                return AlgebraPresentation(
                    tuple(
                        Generator(g["name"], g["degree"], height_py(g["height"]))
                        for g in p["generators"]
                    ),
                    cap,
                )
            except (KeyError, TypeError) as exc:
                raise FixtureError(f"malformed presentation: {exc}") from exc

        try:
            cap = data["degree_cap"]
            loop = data.get("loop_homology")
            return cls(
                name=data["name"],
                degree_cap=cap,
                cohomology=pres_py(data["cohomology"], cap),
                steenrod=[
                    (s["gen"], s["k"], list(s["value"]))
                    for s in data.get("steenrod", [])
                ],
                loop_homology=pres_py(loop, cap) if loop else None,
                permanent_cycles=list(data.get("permanent_cycles", [])),
                extra_generators=[
                    ExtraGenerator(
                        x["name"],
                        x["t"],
                        x["extension_height"],
                        {s["k"]: list(s["value"]) for s in x.get("steenrod", [])},
                    )
                    for x in data.get("extra_generators", [])
                ],
                attestations=[
                    Attestation(
                        a["claim"],
                        a["provenance"],
                        a.get("bound"),
                        a.get("rule"),
                    )
                    for a in data.get("attestations", [])
                ],
            )
        except (KeyError, TypeError, AlgebraError) as exc:
            raise FixtureError(f"malformed space file: {exc}") from exc

    @classmethod
    def loads(cls, text: str) -> "SpacePresentation":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FixtureError(f"not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "SpacePresentation":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())


def builtin(name: str) -> SpacePresentation:
    """Canonical built-in presentations: spin9, toy-trunc-poly, unit."""
    if name == "spin9":
        cap = 36
        return SpacePresentation(
            name="spin9",
            degree_cap=cap,
            cohomology=AlgebraPresentation(
                (
                    Generator("x3", 3, 4),
                    Generator("x5", 5, 2),
                    Generator("x7", 7, 2),
                    Generator("x15", 15, 2),
                ),
                cap,
            ),
            steenrod=[
                ("x3", 2, ["x5"]),
                # The degree-6 value of Sq^1 x5 is the unique class x3^2.
                ("x5", 1, ["x3^2"]),
            ],
            loop_homology=AlgebraPresentation(
                (
                    Generator("u2", 2, 2),
                    Generator("u4", 4, None),
                    Generator("u6", 6, None),
                    Generator("u10", 10, None),
                    Generator("u14", 14, None),
                ),
                cap,
            ),
            permanent_cycles=["x1_2", "x1_4", "x1_6", "x1_14"],
            extra_generators=[
                ExtraGenerator("x11", 10, 3, {4: ["x15"]})
            ],
            attestations=[
                Attestation(
                    claim="Spin(7) has strong category 5 via a cone "
                    "decomposition of length 5 with compressible "
                    "stagewise multiplications",
                    provenance="trusted homotopy input (spinor-group cone "
                    "decompositions); not derived here",
                ),
                Attestation(
                    claim="the 15-cell attaching map of Spin(9) over "
                    "Spin(7) compresses into stage 3 and its higher Hopf "
                    "invariant vanishes (pi_14 of the 4-fold fibre join "
                    "is trivial)",
                    provenance="trusted homotopy input; cell bookkeeping "
                    "checked by the cells module",
                    rule={"name": "bundle_upper_bound", "args": [5, 3]},
                ),
            ],
        )
    if name == "toy-trunc-poly":
        cap = 36
        return SpacePresentation(
            name="toy-trunc-poly",
            degree_cap=cap,
            cohomology=AlgebraPresentation((Generator("x3", 3, 4),), cap),
            loop_homology=AlgebraPresentation(
                (Generator("u2", 2, 2), Generator("u10", 10, None)), cap
            ),
            permanent_cycles=["x1_2"],
        )
    if name == "unit":
        return SpacePresentation(
            name="unit",
            degree_cap=1,
            cohomology=AlgebraPresentation((), 1),
            loop_homology=AlgebraPresentation((), 1),
            attestations=[
                Attestation(
                    claim="the one-point space has category 0",
                    provenance="contractible",
                    bound={"quantity": "cat", "kind": "exact", "value": 0},
                )
            ],
        )
    raise FixtureError(
        f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
    )


@dataclass
class ValidationReport:
    space: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def validate(
    sp: SpacePresentation, e2: BigradedPage | None = None
) -> ValidationReport:
    """Aggregate preflight: Steenrod axioms, loop freeness, conservation.

    `e2`, when given, is `koszul_e2(sp.loop_homology)` already built.
    """
    report = ValidationReport(sp.name)
    try:
        algebra = sp.algebra()
    except AlgebraError as exc:
        report.problems.append(f"cohomology presentation: {exc}")
        return report

    try:
        action = sp.action(algebra)
    except AlgebraError as exc:
        report.problems.append(f"steenrod table: {exc}")
        action = None
    if action is not None:
        report.problems.extend(action.verify_instability())

    for x in sp.extra_generators:
        if x.extension_height < 1:
            report.problems.append(f"{x.name}: extension height must be >= 1")
        for k, value in sorted(x.steenrod.items()):
            try:
                e = algebra.parse_element(value)
            except AlgebraError as exc:
                report.problems.append(f"Sq^{k} {x.name}: {exc}")
                continue
            if e and e.degree != x.degree + k:
                report.problems.append(
                    f"Sq^{k} {x.name}: value not homogeneous of degree "
                    f"{x.degree + k}"
                )

    if sp.loop_homology is not None:
        try:
            if e2 is None:
                e2 = koszul_e2(sp.loop_homology)
        except (SpectralSequenceError, AlgebraError) as exc:
            report.problems.append(f"loop homology: {exc}")
            e2 = None
        if e2 is not None:
            names = {g.name for g in e2.generators}
            for p in sp.permanent_cycles:
                if p not in names:
                    report.problems.append(f"permanent cycle {p!r} not in E2")
            e2_dims = e2.dims_by_total_degree()
            coh_dims = algebra.poincare_series()
            for d, want in enumerate(coh_dims):
                have = e2_dims[d] if d < len(e2_dims) else 0
                if have < want:
                    report.problems.append(
                        f"conservation preflight: E2 has dim {have} in total "
                        f"degree {d}, cohomology needs {want}"
                    )
    return report
