"""Category weight and the Steenrod-module obstruction.

The weight of a nonzero cohomology class is the bar filtration of its
representative on the E-infinity page of the bar spectral sequence.  A
class of bar filtration s vanishes on the (s-1)-st projective stage of
the loop space, so its category weight is at least s (Rudyak; Strom).
The space weight `wgt_space` is read off E-infinity's bidegrees: the
largest s >= 1 with E-infinity^{s,t} nonzero and s + t under the cap.
It maps no cohomology monomial.  It first checks that each generator's
powers under the cap lead E-infinity classes, which catches a
presentation whose E-infinity does not hold its generators.

The generator match is the presentation's (`SpacePresentation.match`,
built by `spaces.suspension_match`): x1_t matches the one cohomology or
extra generator of degree t + 1.  `validate` reads the same match, so a
presentation the match cannot serve fails validation.  The model builds
none of what the presentation owns: it reads the presentation's algebra,
E2 page, Steenrod tables and extended algebra.  The witness search maps
the terms of each target u through the match, to test whether u
restricts nontrivially to a stage, and maps each candidate class into
the extended algebra through it.

The module-weight lower bound comes from a Steenrod obstruction in the
truncated models: a class z of the stage-m model with Sq^k z restricting
from a nonzero cohomology class u that cannot lie in the image of Sq^k
upstairs because its preimage degree vanishes identically.  Such a
witness rules out an operation-preserving retraction at stage m (and, by
restriction, at every smaller stage), so the bound is 1 + the largest
witnessed m.  A witness is the report's own record, a dict with the keys
"m" (the stage), "k", "class" (z), "target" (u), "target_degree",
"vanishing_degree" (the degree of z) and "facts" (the argument, one
sentence each), in that order: `report.build_report` writes the model's
witnesses as they are.

All truncated-model computations happen in the associated graded; a
witness is only reported when residual ("annihilated-summand") classes in
the target degree cannot absorb the identity, exactly when the preimage
degree has dimension zero and no residual class shares the target degree.

The accepted differential is folded once per model: inference returns
it with its checked fold, a `specseq.TruncationTower`, and the model
keeps that tower, which folds the factor A of E2 the differential
touches and reads every state as A's classes times the monomials B of
the other generators.  Every stage truncation shares the tower's states,
and a report reads E-infinity off the same product, with no page: its
dims, its top filtration (wgt) and whether a lattice monomial leads one
of its classes (`TruncationTower.survives`, one read per monomial, of
its exponents alone when no differential acts).  Only a presentation
with an unmatched E2 generator has the tower build E-infinity's page,
whose classes `_survivors_match` reads in page order.  So a report
walks no E2 cell, and one on a space whose generators are all permanent
cycles (every SU(n)), with no differential to search for, reads none.

A stage's classes fall into three buckets (`bucket`): products of
permanent suspension classes, partial products (one factor of the
partial-product generator), and residual classes.  The rule reads three
facts of a class's leading monomial (`bucket_key`): its partial-generator
exponent, its permanent-factor count and whether those factors survive
untruncated; and of the stage only the partial window, which holds a
class with one partial factor partial inside it and residual outside.

Each class is classified once per model, not once per stage.  A stage's
classes are those of its tower states (s, t, alive), and what the stages
read of a class does not depend on the stage: its leading monomial,
label and degree, its bucket key (`class_facts`), and its image in the
extended algebra (kept per leading monomial with its Sq^k tests, below).
The model keeps one `ClassFacts` per class of a tower state, made the
first time the state is read, from its column's entry: stage m's column
s is the states (s, t, alive) at one alive count, which
`TruncationTower.column` lists once per tower, in one pass, for every
stage and every state read of the walk.  Only the bucket depends on the
stage, and a stage computes it from the key: the stage's report goes
through its columns' t and pairs each state's records with their
buckets, in (s, t) order.

The search reads only the states where a witness can lie.  A witness
class sits in a degree where the cohomology vanishes, and whether a
degree vanishes is a property of the state, so a stage's candidates are
the non-residual classes of its states in such degrees, in page order.
Of those bidegrees the search walks only the ones where some E2 monomial
(a monomial of A times one of B, in those degrees alone) could lead a
non-residual class at some stage (`can_be_non_residual`):
a class's bucket depends only on its leading monomial, which is one of
its bidegree's monomials, so every other bidegree holds only residual
classes at every stage.  It also skips every degree d from which no
square reaches cohomology: those with H^(d + k) = 0 for each k = 1..max_k
with d + k under the cap.  A candidate's Sq^k test is kept only when
Sq^k z is nonzero and has no partial-product term (`_square_tests`).
Then every term is a monomial of the cohomology in degree d + k, which
is at most the cap (a square is zero above it), so H^(d + k) is
nonzero.  A class in a skipped degree has no test, so it is never a
stage's witness.  A stage without a candidate has no witness.

The search never reads a whole stage.  A candidate's Sq^k test (its
target degree, whether the square has a partial-product term, and the
terms of u) does not depend on the stage, so it is kept per leading
monomial, next to the candidate's monomial in the extended algebra,
which the witness label reads.  Of stage m the search reads two facts,
each from the tower states it concerns, read from their columns: whether
a lattice monomial of u leads a class of the state (s, t, alive) of its
bidegree (classified once per state), and whether a residual class lies
in the target degree, read from the classified states of that degree
each time it is asked (no report asks for one stage and degree twice).
That read skips the bidegrees E2 lacks (`TruncationTower.nonempty`, per
column), whose states are empty, so it lists no column only to find one.

Not reading a whole stage could hide one error: a non-residual class
that does not map into the extended algebra, which takes an E2
generator that matches nothing.  One check on E-infinity, made before
any stage (`_survivors_match`), raises exactly when some stage up to the
cap holds such a class.  A non-residual class's partial-free part (its leading
monomial without its one partial factor, if it has one) leads an
E-infinity class, and the partial generator is matched, so the class's
unmatched generator lies in an E-infinity class under the cap whose
leading monomial has no partial factor.  Conversely, such an E-infinity
class at (s, t) is present, with the same leading monomial, at every
stage from s on, where it is a product class: truncating at column m
only adds cycles, since it drops the differentials out of columns s <= m
that land past m, and keeps every boundary landing in a column s <= m,
since its source lies further left.  The check names the generator the
first stage holding such a class would: that stage is the least column
of an offending E-infinity class, its earlier columns hold no offending
class, and a state's classes are in leading-monomial order.

The walk has an end, read off the vanishing bidegrees.  Let h be the
extension height (0 when no partial-product generator is declared).  A
class's bucket depends on the stage m only through the partial window
[m - h, m - 1]: a partial lead with f permanent factors is partial at
stages f + 1 to f + h and residual at every other, a product lead is a
product at every stage that holds it, and every other lead is residual.
So `_vanishing_keys` keeps, per bidegree, the last stage at which one of
its monomials can lead a non-residual class: f + h for a partial lead,
the cap for a product lead.  Past that stage the bidegree holds only
residual classes, and `_candidates(m)` skips it; past the largest such
stage no stage has a candidate, so none has a witness.

No product lead lies in a vanishing degree of an inferred fold.  A
product lead's factors survive untruncated (`survives`), so it leads an
E-infinity class of its degree, and inference accepts only a fold whose
E-infinity dims equal the cohomology's, which are zero there.  So the
walk ends with the last partial window: at stage 8 on spin9 at every cap
(its partial leads have at most five permanent factors, and h = 3), and
with no partial-product generator (every non-residual class is then a
product) before stage 0, so it searches no stage.  The cap for a product
lead keeps the end sound for a fold not from inference.

The tower counts every differential alive at or past the last E2 column
(`specseq.TruncationTower.alive`), so every stage from there on reads
the untruncated states; no method clamps a stage to that column, each
reads stage m as it is.

The model walks the stages once (`witnesses`): from m = 0 up to that
end, at most the cap, keeping each stage's witness.  It first makes the
reads a stage's search makes first (the fold, then `_survivors_match`),
so that their errors surface even when no stage is searched.  The Mwgt
bound and the report's witness list both read that walk.
"""

from __future__ import annotations

from functools import cached_property

from lscat.algebra import Algebra, AlgebraPresentation, Record
from lscat.specseq import (
    BigradedPage,
    DifferentialSpec,
    TruncationTower,
    candidate_widths,
    infer_differentials,
)
from lscat.spaces import SpacePresentation


class WeightError(ValueError):
    pass


BUCKET_PRODUCT = "product"
BUCKET_PARTIAL = "partial"
BUCKET_RESIDUAL = "residual"


def bucket(partial, factors, rest_alive, m, extension_height) -> str:
    """The bucket at stage m of a class whose leading monomial has
    partial-generator exponent `partial` and `factors` permanent factors,
    which survive untruncated when `rest_alive`: "product" for a monomial
    in permanent suspension classes that survive untruncated (at most m
    factors, automatic under the column cap); "partial" for such a
    monomial times the partial-product generator, with between
    m - extension_height and m - 1 permanent factors; "residual" for
    everything else (candidates for the annihilated top summand, whose
    module structure is not determined here)."""
    if partial == 1 and rest_alive:
        in_window = max(0, m - extension_height) <= factors <= m - 1
        return BUCKET_PARTIAL if in_window else BUCKET_RESIDUAL
    if partial == 0 and rest_alive:
        return BUCKET_PRODUCT
    return BUCKET_RESIDUAL


def can_be_non_residual(partial, factors, rest_alive, extension_height) -> bool:
    """Whether `bucket` is not residual at some stage m.  Only the
    partial window depends on m, and a window that holds the factor
    count at all holds it at its lowest stage, m = factors + 1."""
    key = partial, factors, rest_alive
    return bucket(*key, factors + 1, extension_height) != BUCKET_RESIDUAL


def bucket_key(lead, partial_idx, survives) -> tuple[int, int, bool]:
    """What `bucket` reads of a class led by the lattice monomial `lead`:
    (partial exponent, permanent-factor count, factors survive
    untruncated); `partial_idx` is the lattice index of the
    partial-product generator, and `survives` says whether a lattice
    monomial leads an untruncated E-infinity class."""
    pe = lead[partial_idx] if partial_idx is not None else 0
    rest = lead[:partial_idx] + (0,) + lead[partial_idx + 1:] if pe else lead
    return pe, sum(rest), survives(rest)


class ClassFacts(Record):
    """One class of a truncation-tower state: what a stage's report reads
    of it, none of which depends on the stage.  Its bucket is the one
    fact that does, and the stage reads it from `key`."""

    __slots__ = ("s", "t", "degree", "leading", "label", "key")

    def __init__(self, s, t, leading, label, key):
        self.s = s
        self.t = t
        self.degree = s + t
        self.leading = leading
        self.label = label
        self.key = key  # `bucket_key` of the leading monomial


def class_facts(lattice, s, t, lead, survives, partial_idx) -> ClassFacts:
    """The facts of the class at (s, t) led by `lead`, a monomial of the
    E2 `lattice`; `partial_idx` and `survives` are as in `bucket_key`."""
    key = bucket_key(lead, partial_idx, survives)
    return ClassFacts(s, t, lead, lattice.monomial_str(lead), key)


class LoopSpaceModel:
    """All spectral-sequence-derived data for one space presentation.

    Lazily computes the forced differentials, E-infinity, stage
    truncations, the space weight, and obstruction witnesses, over the
    algebras, E2 page, Steenrod tables and suspension match its
    presentation builds.
    """

    def __init__(
        self,
        space: SpacePresentation,
        degree_cap: int | None = None,
    ):
        if degree_cap is not None and degree_cap != space.degree_cap:
            loop = space.loop_homology
            space = SpacePresentation(
                space.name,
                degree_cap,
                AlgebraPresentation(space.cohomology.generators, degree_cap),
                space.steenrod,
                AlgebraPresentation(loop.generators, degree_cap) if loop else None,
                space.permanent_cycles,
                space.extra_generators,
                space.attestations,
            )
        self.space = space
        self.algebra: Algebra = space.algebra
        # What one report reads more than once: per tower state (s, t,
        # alive), its classes; per leading monomial, its extended monomial
        # and Sq^k tests.
        self._state_classes: dict[tuple[int, int, int], list[ClassFacts]] = {}
        self._tests: dict[tuple[int, ...], tuple[tuple[int, ...], list]] = {}

    # -- spectral sequence --------------------------------------------------

    @cached_property
    def e2(self) -> BigradedPage:
        return self.space.e2

    @cached_property
    def _candidate_widths(self) -> tuple[list, dict[int, list[int]]]:
        """`candidate_widths` of E2 and the permanent cycles, which
        `report.page_at` and the inference both read."""
        return candidate_widths(self.e2, self.space.permanent_cycles)

    @cached_property
    def _tower(self) -> TruncationTower:
        """The fold of the unique consistent assignment of differentials."""
        found = infer_differentials(self.e2, self._candidate_widths, self.algebra)
        if len(found) != 1:
            raise WeightError(
                f"{self.space.name}: differential inference is ambiguous "
                f"({len(found)} consistent assignments)"
            )
        return found[0]

    @property
    def differentials(self) -> list[DifferentialSpec]:
        return self._tower.specs

    @cached_property
    def e_infinity(self) -> BigradedPage:
        # With no differential E-infinity is E2 itself.  No report reads
        # this page: it reads E-infinity's facts off the tower.
        return self._tower.page() if self._tower.specs else self.e2

    @cached_property
    def _extension_height(self) -> int:
        extras = self.space.extra_generators
        return extras[0].extension_height if extras else 0

    def stage_report(self, m: int) -> list[tuple[ClassFacts, str]]:
        """Stage m's classes with their buckets at stage m, in page order:
        the classes of each state of each column s up to m, at the alive
        count of s."""
        height = self._extension_height
        tower = self._tower
        out = []
        for s in range(min(m, tower.last_column) + 1):
            alive = tower.alive(s, m)
            for t in tower.column(len(tower.specs), s, alive):
                classes = self._classes((s, t, alive))
                out += [(cls, bucket(*cls.key, m, height)) for cls in classes]
        return out

    @cached_property
    def _vanishing_keys(self) -> dict[tuple[int, int], int]:
        """The E2 bidegrees, in (s, t) order, whose total degree d has no
        cohomology while some H^(d + k) under the cap does, 1 <= k <= max_k,
        and some of whose monomials could lead a non-residual class at
        some stage: the only states a witness class can lie in.  Each
        maps to the last such stage: factors + the extension height for a
        partial lead (the end of its window), the cap for a product."""
        height = self._extension_height
        cap = self.space.degree_cap
        idx = self.space.match[2]
        survives = self._tower.survives
        series = self.algebra.poincare_series()
        e2_dims = self.e2.dims_by_total_degree()
        reach = {
            d for d, dim in enumerate(series)
            if not dim and e2_dims[d] and any(series[d + 1:d + self._max_k + 1])
        }
        last: dict[tuple[int, int], int] = {}
        for key, lead in self._tower.monomials_in(reach):
            partial, factors, rest_alive = bucket_key(lead, idx, survives)
            if can_be_non_residual(partial, factors, rest_alive, height):
                stage = factors + height if partial else cap
                last[key] = max(last.get(key, stage), stage)
        return dict(sorted(last.items()))

    def _candidates(self, m: int) -> list[ClassFacts]:
        """Stage m's non-residual classes in vanishing degrees, in page
        order: the classes the witness search squares."""
        height = self._extension_height
        out = []
        for (s, t), last in self._vanishing_keys.items():
            if s > m:
                break
            if last < m:
                continue
            for cls in self._classes((s, t, self._tower.alive(s, m))):
                if bucket(*cls.key, m, height) != BUCKET_RESIDUAL:
                    out.append(cls)
        return out

    def _leads_at(self, lattice: tuple[int, ...], m: int) -> bool:
        """Whether the lattice monomial leads a class of the column-m
        truncation, read from the one state of its bidegree."""
        s, t = self.e2.bidegree(lattice)
        return s <= m and any(
            cls.leading == lattice
            for cls in self._classes((s, t, self._tower.alive(s, m)))
        )

    def _residual_in(self, m: int, degree: int) -> bool:
        """Whether stage m has a residual class in `degree`, read from the
        states of that total degree, skipping the bidegrees E2 lacks."""
        height = self._extension_height
        tower = self._tower
        return any(
            bucket(*cls.key, m, height) == BUCKET_RESIDUAL
            for s in range(min(m, degree) + 1)
            if degree - s in tower.nonempty(s)
            for cls in self._classes((s, degree - s, tower.alive(s, m)))
        )

    def _classes(self, state: tuple[int, int, int]) -> list[ClassFacts]:
        """The classes of one tower state (s, t, alive), from its column
        (`TruncationTower.column`), classified once per state."""
        out = self._state_classes.get(state)
        if out is None:
            s, t, alive = state
            tower = self._tower
            partial = self.space.match[2]
            out = self._state_classes[state] = [
                class_facts(self.e2.lattice, s, t, cls[0], tower.survives, partial)
                for cls in tower.column(len(tower.specs), s, alive).get(t, ())
            ]
        return out

    # -- generator matching -------------------------------------------------

    def _lattice_exps_of_monomial(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        """Cohomology monomial -> its E-infinity representative monomial."""
        out = [0] * len(self.e2.lattice.generators)
        for i, e in zip(self.space.match[1], exps):
            if e:
                out[i] = e
        return tuple(out)

    def _surviving_lattice(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        """`_lattice_exps_of_monomial`, which must lead an E-infinity class."""
        lattice = self._lattice_exps_of_monomial(exps)
        if not self._tower.survives(lattice):
            raise WeightError(
                f"{self.algebra.monomial_str(exps)} has no surviving "
                f"E-infinity representative"
            )
        return lattice

    # -- weights ------------------------------------------------------------

    def wgt_space(self) -> int:
        """The largest s >= 1 with E-infinity^{s,t} nonzero and s + t under
        the cap (0 if none).  A class of bar filtration s vanishes on the
        (s-1)-st projective stage, so its category weight is at least s
        (Rudyak; Strom)."""
        return self._wgt_space

    @cached_property
    def _wgt_space(self) -> int:
        # One scan per model: the report and the ledger both read it.
        # Each generator's powers under the cap must lead E-infinity
        # classes: a presentation whose generators E-infinity does not
        # hold fails here rather than in a wrong weight.
        n = len(self.algebra.generators)
        for i, top in enumerate(self.algebra._max_exp):
            for e in range(1, top + 1):
                self._surviving_lattice((0,) * i + (e,) + (0,) * (n - i - 1))
        return self._tower.top_filtration()

    def cup_length(self) -> int:
        return self._cup_length

    @cached_property
    def _cup_length(self) -> int:
        # Once per model: the report and the ledger both read it.
        return self.algebra.cup_length()

    # -- module-weight obstruction -------------------------------------------

    def _extended_exps_of_lattice(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        """The lattice monomial of a class the search reads, in the
        extended algebra: `_survivors_match` has checked that each of its
        generators matches."""
        out = [0] * len(self.space.extended_algebra.generators)
        for i, e in zip(self.space.match[0], exps):
            if e:
                out[i] = e
        return tuple(out)

    @cached_property
    def _survivors_match(self) -> bool:
        """True, or a WeightError naming an unmatched E2 generator that
        leads an E-infinity class under the cap with no partial-generator
        factor: the stages then hold a non-residual class the search
        cannot map (the module docstring says why this is the whole
        check)."""
        to_extended, _, partial = self.space.match
        if None in to_extended:
            for _, _, (lead, *_) in self._tower.page().classes():
                if partial is not None and lead[partial]:
                    continue
                for g, i, e in zip(self.e2.lattice.generators, to_extended, lead):
                    if e and i is None:
                        raise WeightError(f"{g.name} matches no cohomology class")
        return True

    @cached_property
    def _max_k(self) -> int:
        return max(
            (g.degree for g in self.space.extended_algebra.generators), default=0
        )

    def _square_tests(self, cls: ClassFacts) -> tuple[tuple[int, ...], list]:
        """The class's leading monomial in the extended algebra, and what
        the search reads of its Sq^k, for k = 0..max_k: None where the
        square is zero or has a partial-product term, else (target degree,
        the cohomology terms of u, the lattice monomial of each term).
        None of it depends on the stage, so it is kept per leading
        monomial."""
        kept = self._tests.get(cls.leading)
        if kept is None:
            n = len(self.algebra.generators)  # the extra generator comes after
            z = self._extended_exps_of_lattice(cls.leading)
            sq = self.space.extended_action.squares(z)
            tests = [None] * (self._max_k + 1)
            for k in range(1, min(len(sq), len(tests))):
                # Partial-product terms cannot be controlled in the
                # associated graded; demand they vanish outright.
                if not sq[k] or any(any(e[n:]) for e in sq[k]):
                    continue
                u_terms = [e[:n] for e in sq[k]]
                tests[k] = cls.degree + k, u_terms, [
                    self._lattice_exps_of_monomial(e) for e in u_terms
                ]
            kept = self._tests[cls.leading] = z, tests
        return kept

    def find_obstruction(self, m: int) -> dict | None:
        """First Steenrod witness against a retraction at stage m, as the
        report's witness record (see the module docstring), or None.

        Absence of a witness proves nothing.
        """
        # Stage m's classes are states of the fold: a model whose
        # inference fails raises here, before anything else, and then one
        # whose stages hold a class that does not map into the extended
        # algebra.
        self._tower
        self._survivors_match
        # Hard form: the preimage degree vanishes identically.  A stage
        # m < 0 has no column, so no candidate.
        candidates = self._candidates(m)
        if not candidates:
            return None
        tests = [self._square_tests(cls) for cls in candidates]
        for k in range(1, self._max_k + 1):
            for cls, (z, per_k) in zip(candidates, tests):
                if per_k[k] is None:
                    continue
                degree, u_terms, lattice = per_k[k]
                # u must restrict nontrivially to the stage-m model.
                if not any(self._leads_at(lat, m) for lat in lattice):
                    continue
                # No residual class can absorb the identity at the target.
                if self._residual_in(m, degree):
                    continue
                if self.space.action.image_of_sq(k, degree):
                    raise WeightError(
                        f"Sq^{k} maps onto degree {degree} from degree "
                        f"{cls.degree}, where the cohomology vanishes"
                    )
                return {
                    "m": m,
                    "k": k,
                    "class": self.space.extended_algebra.monomial_str(z),
                    "target": " + ".join(map(self.algebra.monomial_str, u_terms)),
                    "target_degree": degree,
                    "vanishing_degree": cls.degree,
                    "facts": [
                        f"Sq^{k} of the stage-{m} class equals the restriction "
                        f"of a nonzero degree-{degree} class",
                        f"the cohomology of the space vanishes in degree "
                        f"{cls.degree}, so nothing upstairs can map onto it "
                        f"under Sq^{k}",
                        f"no residual stage-{m} class lives in degree {degree}",
                    ],
                }
        return None

    @cached_property
    def witnesses(self) -> list[dict]:
        """The witness of each stage up to the degree cap that has one, in
        stage order, from one walk up to the last stage at which some
        vanishing bidegree can hold a candidate (every later stage has
        none)."""
        out = []
        if self.space.loop_homology is None:
            return out
        # What `find_obstruction` reads first, read even when no stage is.
        self._tower
        self._survivors_match
        last = max(self._vanishing_keys.values(), default=-1)
        for m in range(min(self.space.degree_cap, last) + 1):
            witness = self.find_obstruction(m)
            if witness is not None:
                out.append(witness)
        return out

    def mwgt_lower_bound(self) -> int:
        """1 + the largest stage up to the degree cap with a witness (0 if
        none)."""
        return self.witnesses[-1]["m"] + 1 if self.witnesses else 0
