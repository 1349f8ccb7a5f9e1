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

height is a positive integer >= 2 or "unbounded".  Integer fields take
JSON integers only, not floats or booleans; names, claim and provenance
take strings only, and a Steenrod value a list of monomial strings.  A
square is given at most once per generator and k.

`from_dict` is the one way a presentation is built.  A built-in is
fixture data in this shape (`BUILTINS`: a new dict per call), read by
`from_dict` like any file.  The package reads presentations and writes
none.

A presentation builds what is derived from it, each on first read, and
keeps it: its cohomology `algebra`, its Steenrod table over that algebra
(`action`), its E2 page (`e2`, `koszul_e2` of the loop homology), its
suspension match (`match`), and the extended algebra with its table, the
extra generators' rows included (`extended_algebra`, `extended_action`).
Each Steenrod row is parsed once per algebra.  `validate` and
`weights.LoopSpaceModel` read these same objects, so validation accepts
exactly the tables the engine squares in.  `validate` returns the list of
problems it finds, empty when the presentation passes.  A degree-cap override
(`weights.LoopSpaceModel`) constructs a new presentation from the same
fields, with the cap in both algebra presentations, and it builds its own.

The suspension match (`suspension_match`) pairs each E2 generator x1_t,
of degree t + 1, with the one cohomology or extra generator of that
degree.  The cohomology generators and then the extra generator are the
generators of the extended algebra the witness search squares in.  A
presentation fails the match, and `validate` names the failure, when it
declares more than one extra generator, gives an extra generator a
cohomology generator's name, has two generators of one degree that an
x1_t matches, has an extra generator whose x1_t is not an E2 generator,
or has a cohomology generator under the cap that no x1_t matches.  An E2
generator that matches nothing is allowed: the witness search checks
once that no E-infinity class it reads uses one.
"""

from __future__ import annotations

import json
from functools import cached_property

from lscat.algebra import (
    Algebra,
    AlgebraError,
    AlgebraPresentation,
    Generator,
    Record,
)
from lscat.bounds import BoundEntry, LedgerError, rule_problem
from lscat.specseq import BigradedPage, SpectralSequenceError, koszul_e2
from lscat.steenrod import SteenrodAction


class FixtureError(ValueError):
    pass


def _int(value, field_name: str) -> int:
    """`value` if it is an int and not a bool, else a FixtureError naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FixtureError(f"{field_name} must be an integer, got {value!r}")
    return value


def _str(value, field_name: str) -> str:
    """`value` if it is a str, else a FixtureError naming it."""
    if not isinstance(value, str):
        raise FixtureError(f"{field_name} must be a string, got {value!r}")
    return value


def _strs(value, field_name: str, items: str) -> list[str]:
    """`value` if it is a list of str, else a FixtureError naming it."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise FixtureError(f"{field_name} must be a list of {items}, got {value!r}")
    return value


def parse_squares(
    algebra: Algebra, rows: list[tuple[str, int, list[str]]], table: dict
) -> list[str]:
    """Add each row (gen, k, value) to `table` as Sq^k of the generator
    `gen` of `algebra`, as its terms (`Algebra.parse_terms`).  A row past
    the algebra's cap is parsed all the same (its generators, exponents,
    heights and degree) and stores no terms, as every class there is 0.
    A row that does not parse, or repeats an earlier row's generator and
    k, is left out and named in the returned problems."""
    degrees = {g.name: g.degree for g in algebra.generators}
    problems = []
    for gen, k, value in rows:
        if gen not in degrees:
            problems.append(f"Sq^{k} given on unknown generator {gen!r}")
        elif (gen, k) in table:
            problems.append(f"Sq^{k} {gen} given twice")
        else:
            degree = degrees[gen] + k
            capped = degree <= algebra.degree_cap
            try:
                terms = algebra.parse_terms(value, degree, capped)
            except AlgebraError as exc:
                problems.append(f"Sq^{k} {gen}: {exc}")
            else:
                table[(gen, k)] = terms if capped else ()
    return problems


def _action(algebra: Algebra, table: dict, problems: list[str]) -> SteenrodAction:
    """The table as a `SteenrodAction`, or its first problem raised."""
    if problems:
        raise AlgebraError(problems[0])
    return SteenrodAction(algebra, table)


class ExtraGenerator(Record):
    """A filtration-1 class of the projective-stage models that is not a
    suspension of a cohomology generator (it enters partial products)."""

    __slots__ = ("name", "t", "extension_height", "steenrod")

    def __init__(
        self,
        name: str,
        t: int,
        extension_height: int,
        steenrod: dict[int, list[str]] | None = None,
    ):
        self.name = name
        self.t = t
        self.extension_height = extension_height
        self.steenrod = {} if steenrod is None else steenrod

    @property
    def degree(self) -> int:
        return 1 + self.t


class Attestation(Record):
    __slots__ = ("claim", "provenance", "bound", "rule")

    def __init__(
        self,
        claim: str,
        provenance: str,
        bound: dict | None = None,  # {"quantity", "kind", "value"}
        rule: dict | None = None,  # {"name", "args"}
    ):
        self.claim = claim
        self.provenance = provenance
        self.bound = bound
        self.rule = rule


class SpacePresentation:
    """One space's presentation, and the owner of the objects derived
    from it (see the module docstring): each is built on first read and
    kept, so it has no `__slots__`.  A new presentation made from its
    fields (the degree-cap override in `weights.LoopSpaceModel`) builds
    its own.  Change no field after a derived object has been read."""

    _FIELDS = (
        "name", "degree_cap", "cohomology", "steenrod", "loop_homology",
        "permanent_cycles", "extra_generators", "attestations",
    )

    def __init__(
        self,
        name: str,
        degree_cap: int,
        cohomology: AlgebraPresentation,
        steenrod: list[tuple[str, int, list[str]]] | None = None,
        loop_homology: AlgebraPresentation | None = None,
        permanent_cycles: list[str] | None = None,
        extra_generators: list[ExtraGenerator] | None = None,
        attestations: list[Attestation] | None = None,
    ):
        self.name = name
        self.degree_cap = degree_cap
        self.cohomology = cohomology
        self.steenrod = [] if steenrod is None else steenrod
        self.loop_homology = loop_homology
        self.permanent_cycles = [] if permanent_cycles is None else permanent_cycles
        self.extra_generators = [] if extra_generators is None else extra_generators
        self.attestations = [] if attestations is None else attestations

    def __eq__(self, other):
        if type(other) is not SpacePresentation:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)

    # -- derived objects ---------------------------------------------------

    @cached_property
    def algebra(self) -> Algebra:
        """The cohomology algebra."""
        return Algebra(self.cohomology)

    @cached_property
    def _squares(self) -> tuple[dict, list[str]]:
        """The Steenrod table over `algebra`, and its problems."""
        table: dict = {}
        return table, parse_squares(self.algebra, self.steenrod, table)

    @cached_property
    def action(self) -> SteenrodAction:
        """The Steenrod table over `algebra`; a table with a bad row
        raises its first problem as an AlgebraError."""
        return _action(self.algebra, *self._squares)

    @cached_property
    def e2(self) -> BigradedPage:
        """`koszul_e2` of the loop homology."""
        if self.loop_homology is None:
            raise FixtureError(f"{self.name}: no loop homology given")
        return koszul_e2(self.loop_homology)

    @cached_property
    def match(self) -> tuple[list[int | None], list[int | None], int | None]:
        """`suspension_match` of the presentation."""
        return suspension_match(self)

    @cached_property
    def extended_algebra(self) -> Algebra:
        """The cohomology algebra with the extra generators, exterior,
        after its generators; `algebra` itself when there are none."""
        if not self.extra_generators:
            return self.algebra
        extras = tuple(Generator(x.name, x.degree, 2) for x in self.extra_generators)
        coh = self.cohomology
        return Algebra(AlgebraPresentation(coh.generators + extras, coh.degree_cap))

    @cached_property
    def _extended_squares(self) -> tuple[dict, list[str], list[str]]:
        """The Steenrod table over `extended_algebra`, the cohomology and
        the extra generators' rows both, and the problems of each."""
        ext = self.extended_algebra
        if ext is self.algebra:
            return (*self._squares, [])
        table: dict = {}
        extras = [
            (x.name, k, value)
            for x in self.extra_generators
            for k, value in sorted(x.steenrod.items())
        ]
        problems = parse_squares(ext, self.steenrod, table)
        return table, problems, parse_squares(ext, extras, table)

    @cached_property
    def extended_action(self) -> SteenrodAction:
        """The Steenrod table over `extended_algebra`, which the witness
        search squares in; a table with a bad row raises its first problem
        as an AlgebraError."""
        table, problems, extra_problems = self._extended_squares
        return _action(self.extended_algebra, table, problems + extra_problems)

    # -- reading -----------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "SpacePresentation":
        def height_py(h, name):
            return None if h == "unbounded" else _int(h, f"{name} height")

        def generator_py(g):
            name = _str(g["name"], "generator name")
            return Generator(
                name,
                _int(g["degree"], f"{name} degree"),
                height_py(g["height"], name),
            )

        def pres_py(p, cap):
            try:
                return AlgebraPresentation(
                    tuple(generator_py(g) for g in p["generators"]), cap
                )
            except (KeyError, TypeError) as exc:
                raise FixtureError(f"malformed presentation: {exc}") from exc

        def square_py(s):
            gen = _str(s["gen"], "steenrod gen")
            k = _int(s["k"], f"steenrod k of {gen}")
            value = _strs(s["value"], f"steenrod value of Sq^{k} {gen}", "monomials")
            return gen, k, list(value)

        def extra_py(x):
            name = _str(x["name"], "extra generator name")
            squares: dict[int, list[str]] = {}
            for s in x.get("steenrod", []):
                k = _int(s["k"], f"steenrod k of {name}")
                if k in squares:
                    raise FixtureError(f"Sq^{k} {name} given twice")
                squares[k] = list(
                    _strs(s["value"], f"steenrod value of Sq^{k} {name}", "monomials")
                )
            return ExtraGenerator(
                name,
                _int(x["t"], f"{name} t"),
                _int(x["extension_height"], f"{name} extension_height"),
                squares,
            )

        def attestation_py(i, a):
            where = f"attestations[{i}]"
            for text in ("claim", "provenance"):
                _str(a[text], f"{where}.{text}")
            bound, rule = a.get("bound"), a.get("rule")
            if bound is not None:
                if not isinstance(bound, dict) or not (
                    {"quantity", "kind", "value"} <= bound.keys()
                ):
                    raise FixtureError(
                        f"{where}.bound must have a quantity, kind and "
                        f"value, got {bound!r}"
                    )
                _int(bound["value"], f"{where}.bound.value")
                bound = dict(bound)
            if rule is not None:
                if not (
                    isinstance(rule, dict)
                    and isinstance(rule.get("name"), str)
                    and isinstance(rule.get("args"), list)
                ):
                    raise FixtureError(
                        f"{where}.rule must have a name and a list of args, "
                        f"got {rule!r}"
                    )
                for k, arg in enumerate(rule["args"]):
                    _int(arg, f"{where}.rule.args[{k}]")
                rule = dict(rule, args=list(rule["args"]))
            return Attestation(a["claim"], a["provenance"], bound, rule)

        try:
            cap = _int(data["degree_cap"], "degree_cap")
            loop = data.get("loop_homology")
            permanent = _strs(
                data.get("permanent_cycles", []), "permanent_cycles", "names"
            )
            return cls(
                name=_str(data["name"], "name"),
                degree_cap=cap,
                cohomology=pres_py(data["cohomology"], cap),
                steenrod=[square_py(s) for s in data.get("steenrod", [])],
                loop_homology=pres_py(loop, cap) if loop else None,
                permanent_cycles=list(permanent),
                extra_generators=[
                    extra_py(x) for x in data.get("extra_generators", [])
                ],
                attestations=[
                    attestation_py(i, a)
                    for i, a in enumerate(data.get("attestations", []))
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise FixtureError(
                f"cannot read fixture {path}: {exc.strerror or exc}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise FixtureError(
                f"cannot read fixture {path}: not UTF-8 ({exc.reason} at "
                f"byte {exc.start})"
            ) from exc
        return cls.loads(text)


def _spin9() -> dict:
    return {
        "name": "spin9",
        "degree_cap": 36,
        "cohomology": {"generators": [
            {"name": "x3", "degree": 3, "height": 4},
            {"name": "x5", "degree": 5, "height": 2},
            {"name": "x7", "degree": 7, "height": 2},
            {"name": "x15", "degree": 15, "height": 2},
        ]},
        "steenrod": [
            {"gen": "x3", "k": 2, "value": ["x5"]},
            # The degree-6 value of Sq^1 x5 is the unique class x3^2.
            {"gen": "x5", "k": 1, "value": ["x3^2"]},
        ],
        "loop_homology": {"generators": [
            {"name": "u2", "degree": 2, "height": 2},
            {"name": "u4", "degree": 4, "height": "unbounded"},
            {"name": "u6", "degree": 6, "height": "unbounded"},
            {"name": "u10", "degree": 10, "height": "unbounded"},
            {"name": "u14", "degree": 14, "height": "unbounded"},
        ]},
        "permanent_cycles": ["x1_2", "x1_4", "x1_6", "x1_14"],
        "extra_generators": [
            {"name": "x11", "t": 10, "extension_height": 3,
             "steenrod": [{"k": 4, "value": ["x15"]}]},
        ],
        "attestations": [
            {"claim": "Spin(7) has strong category 5 via a cone decomposition "
             "of length 5 with compressible stagewise multiplications",
             "provenance": "trusted homotopy input (spinor-group cone "
             "decompositions); not derived here"},
            {"claim": "the 15-cell attaching map of Spin(9) over Spin(7) "
             "compresses into stage 3 and its higher Hopf invariant "
             "vanishes (pi_14 of the 4-fold fibre join is trivial)",
             "provenance": "trusted homotopy input; not derived here",
             "rule": {"name": "bundle_upper_bound", "args": [5, 3]}},
        ],
    }


def _toy_trunc_poly() -> dict:
    return {
        "name": "toy-trunc-poly",
        "degree_cap": 36,
        "cohomology": {"generators": [{"name": "x3", "degree": 3, "height": 4}]},
        "loop_homology": {"generators": [
            {"name": "u2", "degree": 2, "height": 2},
            {"name": "u10", "degree": 10, "height": "unbounded"},
        ]},
        "permanent_cycles": ["x1_2"],
    }


def _unit() -> dict:
    return {
        "name": "unit",
        "degree_cap": 1,
        "cohomology": {"generators": []},
        "loop_homology": {"generators": []},
        "attestations": [
            {"claim": "the one-point space has category 0",
             "provenance": "contractible",
             "bound": {"quantity": "cat", "kind": "exact", "value": 0}},
        ],
    }


# Each built-in's fixture data, a new dict per call, so a caller may edit
# the dict it is given.
BUILTINS = {"spin9": _spin9, "toy-trunc-poly": _toy_trunc_poly, "unit": _unit}
BUILTIN_NAMES = tuple(BUILTINS)


def builtin(name: str) -> SpacePresentation:
    """The built-in presentation `name`, read from its fixture data."""
    if name not in BUILTINS:
        raise FixtureError(
            f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    return SpacePresentation.from_dict(BUILTINS[name]())


def suspension_match(
    sp: SpacePresentation,
) -> tuple[list[int | None], list[int | None], int | None]:
    """The suspension match of `sp.e2`'s generators with `sp.algebra`'s
    and `sp`'s extra generator.

    x1_t, of degree t + 1, matches the one cohomology or extra generator
    of that degree.  The extended algebra's generators are the cohomology
    generators and then the extra generator, so one index maps both
    algebras.  Returns three maps: each E2 generator's extended-algebra
    index (None: unmatched); each cohomology generator's lattice index
    (None: none, only above the cap); and the lattice index of the
    partial-product generator, the extra generator's match (None: no
    extra generator).  A presentation the match cannot serve raises
    FixtureError.
    """
    coh = sp.algebra.generators
    extras = sp.extra_generators
    if len(extras) > 1:
        raise FixtureError("at most one partial-product generator supported")
    for x in extras:
        if any(g.name == x.name for g in coh):
            raise FixtureError(
                f"extra generator {x.name} has a cohomology generator's name"
            )
    extended = (*coh, *extras)
    to_extended: list[int | None] = []
    for g in sp.e2.lattice.generators:
        hits = [i for i, x in enumerate(extended) if x.degree == g.degree]
        if len(hits) > 1:
            names = ", ".join(extended[i].name for i in hits)
            raise FixtureError(f"ambiguous suspension match for {g.name}: {names}")
        to_extended.append(hits[0] if hits else None)
    partial = None
    for x in extras:
        if len(coh) not in to_extended:
            raise FixtureError(f"{x.name}: x1_{x.t} is not an E2 generator")
        partial = to_extended.index(len(coh))
    to_lattice = [
        to_extended.index(i) if i in to_extended else None for i in range(len(coh))
    ]
    for g, i in zip(coh, to_lattice):
        if i is None and g.degree <= sp.algebra.degree_cap:
            raise FixtureError(f"cohomology generator {g.name} has no suspension class")
    return to_extended, to_lattice, partial


def validate(sp: SpacePresentation) -> list[str]:
    """The problems of the objects `sp` builds, in the order found (none
    when `sp` passes): the Steenrod rows over the cohomology and the
    extended algebra and their axioms, loop freeness, the suspension
    match, conservation, and attested bounds the ledger can take."""
    table, problems = sp._squares
    problems = list(problems)
    # A table with a bad row is checked as far as it parsed.
    action = SteenrodAction(sp.algebra, table) if problems else sp.action
    problems += action.verify_instability()

    for x in sp.extra_generators:
        if x.extension_height < 1:
            problems.append(f"{x.name}: extension height must be >= 1")
        for k in sorted(x.steenrod):
            # The search reads only Sq^k x for 1 <= k < |x|.
            if k < 1:
                problems.append(f"Sq^{k} {x.name}: k must be >= 1")
            elif k >= x.degree:
                problems.append(f"Sq^{k} {x.name}: k >= degree {x.degree}")
    try:
        problems += sp._extended_squares[2]
    except AlgebraError:
        # An extra generator that reuses a name or has degree < 1 leaves
        # no extended algebra: the suspension match names it, and without
        # loop homology nothing reads the extra generators.
        pass

    for i, att in enumerate(sp.attestations):
        where = f"attestations[{i}]"
        if att.bound:
            b = att.bound
            try:
                BoundEntry(b["quantity"], b["kind"], b["value"], att.claim)
            except LedgerError as exc:
                problems.append(f"{where}.bound: {exc}")
        if att.rule:
            problem = rule_problem(att.rule["name"], att.rule["args"])
            if problem:
                problems.append(f"{where}.rule: {problem}")

    if sp.loop_homology is not None:
        try:
            e2 = sp.e2
        except (SpectralSequenceError, AlgebraError) as exc:
            problems.append(f"loop homology: {exc}")
            return problems
        names = {g.name for g in e2.lattice.generators}
        for p in sp.permanent_cycles:
            if p not in names:
                problems.append(f"permanent cycle {p!r} not in E2")
        try:
            sp.match
        except FixtureError as exc:
            problems.append(str(exc))
        # Each differential kills one class of degree n and one of n + 1,
        # so over all pages the rank out of degree n is the excess e_n of
        # E2 over the cohomology less the rank into n, the rank out of
        # n - 1: `dying`, which must never fall below 0.  Later degrees
        # read a failed degree's rank, so only the first is named (and
        # `dying` is None from there on).
        e2_dims = e2.dims_by_total_degree()
        dying = 0
        for d, want in enumerate(sp.algebra.poincare_series()):
            have = e2_dims[d] if d < len(e2_dims) else 0
            excess = have - want
            if excess < 0:
                problems.append(
                    f"conservation preflight: E2 has dim {have} in total "
                    f"degree {d}, cohomology needs {want}"
                )
            elif dying is not None and excess < dying:
                problems.append(
                    f"conservation preflight: E2 exceeds the cohomology by "
                    f"{excess} in degree {d}, but {dying} classes of degree "
                    f"{d - 1} must die by hitting degree {d}"
                )
            dying = None if dying is None or excess < dying else excess - dying
    return problems
