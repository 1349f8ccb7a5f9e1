"""Category weight and the Steenrod-module obstruction.

The weight of a nonzero cohomology class is the filtration of its
representative on the E-infinity page of the bar spectral sequence; the
space weight is the maximum over reduced classes.

The module-weight lower bound comes from a Steenrod obstruction in the
truncated models: a class z of the stage-m model with Sq^k z restricting
from a nonzero cohomology class u that cannot lie in the image of Sq^k
upstairs because its preimage degree vanishes identically.  Such a
witness rules out an operation-preserving retraction at stage m (and, by
restriction, at every smaller stage), so the bound is 1 + the largest
witnessed m.

All truncated-model computations happen in the associated graded; a
witness is only reported when residual ("annihilated-summand") classes in
the target degree cannot absorb the identity, exactly when the preimage
degree has dimension zero and no residual class shares the target degree.

The accepted differential is folded over E2 once per model: inference
returns it with its checked E-infinity page, which the model keeps as
`e_infinity` and from which the stage truncations (`specseq.TruncationTower`)
read every state that has all differentials alive.

The search saturates.  Every E2 lattice monomial lies in a column at most
s_sat, the largest E2 column, so every stage past s_sat has the classes
of stage s_sat (the truncations themselves share their work in
`specseq.TruncationTower`); a partial class then has at most s_sat - 1
permanent factors, fewer than m - h for m >= s_sat + h (h the extension
height), so every stage from s_sat + h on has the same report and the
same witnesses up to the stage label.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from lscat.algebra import Algebra, AlgebraPresentation, Element, Generator
from lscat.specseq import (
    BUCKET_RESIDUAL,
    BigradedPage,
    DifferentialSpec,
    TruncationClass,
    TruncationTower,
    classify_truncation,
    infer_differentials,
    koszul_e2,
)
from lscat.spaces import SpacePresentation
from lscat.steenrod import SteenrodAction


class WeightError(ValueError):
    pass


@dataclass(frozen=True)
class ObstructionWitness:
    m: int
    k: int
    z_label: str
    u: str
    u_degree: int
    vanishing_degree: int
    facts: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "class": self.z_label,
            "target": self.u,
            "target_degree": self.u_degree,
            "vanishing_degree": self.vanishing_degree,
            "facts": list(self.facts),
        }


class LoopSpaceModel:
    """All spectral-sequence-derived data for one space presentation.

    Lazily computes the E2 page, the forced differentials, E-infinity,
    stage truncations, the weight assignment, and obstruction witnesses.
    """

    def __init__(
        self,
        space: SpacePresentation,
        degree_cap: int | None = None,
        max_candidates_per_gen: int = 10**6,
    ):
        if degree_cap is not None and degree_cap != space.degree_cap:
            space = replace(
                space,
                degree_cap=degree_cap,
                cohomology=replace(space.cohomology, degree_cap=degree_cap),
                loop_homology=(
                    replace(space.loop_homology, degree_cap=degree_cap)
                    if space.loop_homology
                    else None
                ),
            )
        self.space = space
        self.max_candidates_per_gen = max_candidates_per_gen
        self.algebra: Algebra = space.algebra()
        self.action: SteenrodAction = space.action(self.algebra)
        self._reports: dict[int, list[TruncationClass]] = {}
        self._witnesses: dict[int, ObstructionWitness | None] = {}
        self._squares: dict[tuple[int, ...], dict[int, frozenset]] = {}

    # -- spectral sequence --------------------------------------------------

    @cached_property
    def e2(self) -> BigradedPage:
        if self.space.loop_homology is None:
            raise WeightError(f"{self.space.name}: no loop homology given")
        return koszul_e2(self.space.loop_homology)

    @cached_property
    def _inference(self) -> tuple[DifferentialSpec, BigradedPage]:
        """The unique consistent assignment and its checked E-infinity fold."""
        found = infer_differentials(
            self.e2,
            self.space.permanent_cycles,
            self.algebra,
            self.max_candidates_per_gen,
        )
        if len(found) != 1:
            raise WeightError(
                f"{self.space.name}: differential inference is ambiguous "
                f"({len(found)} consistent assignments)"
            )
        return found[0]

    @cached_property
    def differentials(self) -> list[DifferentialSpec]:
        return [self._inference[0]]

    @cached_property
    def e_infinity(self) -> BigradedPage:
        return self._inference[1]

    @cached_property
    def surviving(self) -> set:
        return self.e_infinity.surviving_leading_monomials()

    @cached_property
    def saturation_column(self) -> int:
        """Largest E2 column: the column cap of any later stage never binds."""
        return max(s for s, _ in self.e2.basis)

    @cached_property
    def stable_stage(self) -> int:
        """First stage whose report every later stage repeats."""
        # A nonpositive extension height leaves no class partial at any stage.
        return self.saturation_column + max(self._extension_height, 0)

    @cached_property
    def _extension_height(self) -> int:
        extra = self._partial_extra
        return extra.extension_height if extra else 3

    @cached_property
    def _tower(self) -> TruncationTower:
        spec, e_infinity = self._inference
        return TruncationTower(self.e2, [spec], e_infinity)

    def truncation(self, m: int) -> BigradedPage:
        return self._tower.page(m)

    def stage_report(self, m: int) -> list[TruncationClass]:
        m = min(m, self.stable_stage)
        if m not in self._reports:
            extra = self._partial_extra
            # Past s_sat the classes are those of stage s_sat; reading that
            # page spares the tower folding d_r out of the columns within r
            # of s_sat, whose targets are empty.
            self._reports[m] = classify_truncation(
                self.truncation(min(m, self.saturation_column)),
                m,
                self.surviving,
                partial_gen=self._koszul_name_of_extra(extra) if extra else None,
                extension_height=self._extension_height,
            )
        return self._reports[m]

    # -- generator matching -------------------------------------------------

    @cached_property
    def _partial_extra(self):
        extras = self.space.extra_generators
        if not extras:
            return None
        if len(extras) > 1:
            raise WeightError("at most one partial-product generator supported")
        return extras[0]

    def _koszul_name_of_extra(self, extra) -> str | None:
        name = f"x1_{extra.t}"
        return name if name in self.e2._index else None

    @cached_property
    def gen_match(self) -> dict[str, tuple[str, str]]:
        """Koszul generator name -> ("coh" | "extra", matched name).

        A suspension class in bidegree (1, t) matches the unique
        cohomology generator of degree t + 1, else the declared extra
        generator with that internal degree.
        """
        match: dict[str, tuple[str, str]] = {}
        for g in self.e2.generators:
            coh = [c for c in self.algebra.generators if c.degree == g.t + 1]
            if len(coh) == 1:
                match[g.name] = ("coh", coh[0].name)
                continue
            if len(coh) > 1:
                raise WeightError(
                    f"ambiguous suspension match for {g.name}: {coh}"
                )
            extra = self._partial_extra
            if extra is not None and extra.t == g.t:
                match[g.name] = ("extra", extra.name)
            # else: unmatched; only an error if something needs it.
        return match

    @cached_property
    def _coh_to_koszul(self) -> dict[str, int]:
        out = {}
        for kname, (kind, target) in self.gen_match.items():
            if kind == "coh":
                out[target] = self.e2._index[kname]
        return out

    def _lattice_exps_of_monomial(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        """Cohomology monomial -> its E-infinity representative monomial."""
        out = [0] * len(self.e2.generators)
        for i, e in enumerate(exps):
            if not e:
                continue
            name = self.algebra.generators[i].name
            if name not in self._coh_to_koszul:
                raise WeightError(
                    f"cohomology generator {name} has no suspension class"
                )
            out[self._coh_to_koszul[name]] = e
        return tuple(out)

    # -- weights ------------------------------------------------------------

    @cached_property
    def weight_map(self) -> dict[tuple[int, ...], int]:
        """Filtration of every positive-degree cohomology basis monomial."""
        out = {}
        for mono in self.algebra.monomials():
            if mono.degree == 0:
                continue
            lattice = self._lattice_exps_of_monomial(mono.exps)
            if lattice not in self.surviving:
                raise WeightError(
                    f"{mono} has no surviving E-infinity representative"
                )
            out[mono.exps] = sum(lattice)
        return out

    def wgt(self, u: Element) -> int:
        """Filtration of u's E-infinity representative."""
        if not u:
            raise WeightError("weight of the zero class is undefined")
        if any(not any(exps) for exps in u.terms):
            raise WeightError("weight of the unit is undefined")
        return min(self.weight_map[exps] for exps in u.terms)

    def wgt_space(self) -> int:
        """Maximum weight over the reduced cohomology."""
        if not self.weight_map:
            return 0
        return max(self.weight_map.values())

    def cup_length(self) -> int:
        return self.algebra.cup_length()

    # -- module-weight obstruction -------------------------------------------

    @cached_property
    def _extended_algebra(self) -> Algebra:
        gens = list(self.algebra.generators)
        extra = self._partial_extra
        if extra is not None:
            gens.append(Generator(extra.name, extra.degree, 2))
        return Algebra(AlgebraPresentation(tuple(gens), self.algebra.degree_cap))

    @cached_property
    def _extended_action(self) -> SteenrodAction:
        ext = self._extended_algebra
        table = {}
        for gen, k, value in self.space.steenrod:
            table[(gen, k)] = ext.parse_element(value)
        extra = self._partial_extra
        if extra is not None:
            for k, value in extra.steenrod.items():
                table[(extra.name, k)] = ext.parse_element(value)
        return SteenrodAction(ext, table)

    @cached_property
    def _lattice_to_extended(self) -> list[int | None]:
        """Extended-algebra index of each E2 generator's match (None: unmatched)."""
        idx = {g.name: i for i, g in enumerate(self._extended_algebra.generators)}
        return [
            idx[self.gen_match[g.name][1]] if g.name in self.gen_match else None
            for g in self.e2.generators
        ]

    def _extended_exps_of_lattice(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * len(self._extended_algebra.generators)
        for g, i, e in zip(self.e2.generators, self._lattice_to_extended, exps):
            if not e:
                continue
            if i is None:
                raise WeightError(f"{g.name} matches no cohomology class")
            out[i] = e
        return tuple(out)

    def _graded_square(self, lattice_exps: tuple[int, ...]) -> dict[int, frozenset]:
        """Total square of a lattice monomial's class, by degree (cached)."""
        graded = self._squares.get(lattice_exps)
        if graded is None:
            ext = self._extended_algebra
            z = ext.element([self._extended_exps_of_lattice(lattice_exps)])
            parts: dict[int, set] = {}
            for exps in self._extended_action.total_square(z).terms:
                parts.setdefault(ext.monomial_degree(exps), set()).add(exps)
            graded = {d: frozenset(terms) for d, terms in parts.items()}
            self._squares[lattice_exps] = graded
        return graded

    def find_obstruction(self, m: int) -> ObstructionWitness | None:
        """First Steenrod witness against a retraction at stage m, or None.

        Absence of a witness proves nothing.
        """
        if m not in self._witnesses:
            stable = self.stable_stage
            if m > stable and self.find_obstruction(stable) is None:
                self._witnesses[m] = None
            else:
                self._witnesses[m] = self._find_obstruction(m)
        return self._witnesses[m]

    def _find_obstruction(self, m: int) -> ObstructionWitness | None:
        report = self.stage_report(m)
        computable = [cls for cls in report if cls.bucket != BUCKET_RESIDUAL]
        # Every computable class must map into the extended algebra, even
        # one the degree test below skips: an unmatched generator raises.
        for cls in computable:
            self._extended_exps_of_lattice(cls.leading)
        # Hard form: the preimage degree vanishes identically.
        candidates = [
            cls for cls in computable if not self.algebra.basis(cls.degree)
        ]
        if not candidates:
            return None
        ext = self._extended_algebra
        extra = self._partial_extra
        extra_idx = (
            [i for i, g in enumerate(ext.generators) if extra and g.name == extra.name]
        )
        alive = {
            cls.leading for cls in report
        }
        residual_degrees = {
            cls.degree for cls in report if cls.bucket == BUCKET_RESIDUAL
        }

        max_k = max((g.degree for g in ext.generators), default=0)
        for k in range(1, max_k + 1):
            for cls in candidates:
                value = self._graded_square(cls.leading).get(cls.degree + k)
                if not value:
                    continue
                plain = []
                mixed = []
                for exps in value:
                    if any(exps[i] for i in extra_idx):
                        mixed.append(exps)
                    else:
                        plain.append(exps)
                if not plain:
                    continue
                # Partial-product terms cannot be controlled in the
                # associated graded; demand they vanish outright.
                if mixed:
                    continue
                u_exps = [
                    tuple(e for i, e in enumerate(exps) if i not in extra_idx)
                    for exps in plain
                ]
                u = self.algebra.element(u_exps)
                if not u:
                    continue
                degree = cls.degree + k
                # u must restrict nontrivially to the stage-m model.
                if not any(
                    self._lattice_exps_of_monomial(e) in alive for e in u.terms
                ):
                    continue
                # No residual class can absorb the identity at the target.
                if degree in residual_degrees:
                    continue
                if self.action.image_of_sq(k, degree):
                    raise WeightError(
                        f"Sq^{k} maps onto degree {degree} from degree "
                        f"{cls.degree}, where the cohomology vanishes"
                    )
                witness = ObstructionWitness(
                    m=m,
                    k=k,
                    z_label=str(
                        ext.element([self._extended_exps_of_lattice(cls.leading)])
                    ),
                    u=str(u),
                    u_degree=degree,
                    vanishing_degree=cls.degree,
                    facts=(
                        f"Sq^{k} of the stage-{m} class equals the restriction "
                        f"of a nonzero degree-{degree} class",
                        f"the cohomology of the space vanishes in degree "
                        f"{cls.degree}, so nothing upstairs can map onto it "
                        f"under Sq^{k}",
                        f"no residual stage-{m} class lives in degree {degree}",
                    ),
                )
                return witness
        return None

    def mwgt_lower_bound(self, m_max: int | None = None) -> int:
        """1 + the largest stage with a witness (0 if none up to m_max)."""
        if self.space.loop_homology is None:
            return 0
        if m_max is None:
            m_max = self.space.degree_cap
        best = -1
        for m in range(m_max + 1):
            if self.find_obstruction(m) is not None:
                best = m
        return best + 1 if best >= 0 else 0
