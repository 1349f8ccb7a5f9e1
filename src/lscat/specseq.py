"""Bar spectral sequence of a loop space, by Koszul duality.

The E2 page over free graded-commutative loop homology has one
filtration-1 generator per loop generator: an exterior u in degree d
contributes a polynomial class in bidegree (1, d), a polynomial u an
exterior class.  Differentials d_r : (s, t) -> (s + r, t - r + 1) are
given on generators and extended by the Leibniz rule (no signs in
characteristic 2); homology per bidegree is computed by GF(2)
elimination with monomial-pivot representatives.

Truncating the column filtration at m models the m-th projective-space
stage of the loop space: differentials landing past column m vanish and
sources past column m are gone.

All truncations share their work (`TruncationTower`).  d_r raises the
column by exactly r, so in the column-m truncation the classes at (s, t)
after folding d_r1, ..., d_rj (r ascending) depend on m only through
which of those d_r act out of column s, i.e. have s + r <= m.  Those form
a prefix, and the d_rj-sources at s - rj have every earlier differential
alive, since (s - rj) + r < s <= m.  So each bidegree has at most j + 1
states after j pages (two with one differential, one with none), and
each state is computed once and shared by every m.  The state with every
differential alive at every page is the untruncated fold's, so the tower
reads those top states from that fold's E-infinity page, which inference
already computed and checked (`infer_differentials` returns each kept
assignment with its page).  The tower does not repeat the
`_check_spec` / `_check_d_squared` guards of the untruncated fold, and
loses nothing by it.  Truncation only drops products, so d_r on a
truncated page is the full d_r restricted to columns <= m.  A monomial
in column s with s + 2r <= m lies in a class whose earlier differentials
are all alive, a class of the full E_r, where d_r^2 is the full one; for
s + 2r > m, d_r^2 lands past m and vanishes outright.

The E2 lattice is an `Algebra`: x1_t has total degree 1 + t, and a
lattice monomial is its exponent tuple, in filtration s = its exponent
sum.  The lattice algebra's cap is the report cap + `DEFAULT_SCRATCH`, so
that differentials out of top-degree classes are still visible; reported
data never includes scratch degrees.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

from lscat import gf2
from lscat.algebra import Algebra, AlgebraPresentation, Generator

DEFAULT_SCRATCH = 4


class SpectralSequenceError(ValueError):
    pass


class InferenceError(SpectralSequenceError):
    pass


@dataclass(frozen=True)
class DifferentialSpec:
    r: int
    assignments: dict[str, frozenset] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self,
            "assignments",
            {k: frozenset(v) for k, v in self.assignments.items() if v},
        )

    def __hash__(self):
        return hash((self.r, tuple(sorted(self.assignments.items()))))

    def is_trivial(self) -> bool:
        return not self.assignments


class BigradedPage:
    """One page of the spectral sequence: per-(s,t) class representatives.

    Each class is a frozenset of `lattice` monomials (an F2 sum).  At E2
    every class is a single monomial; later pages keep monomial-pivot
    representatives.
    """

    def __init__(
        self,
        lattice: Algebra,
        r: int,
        basis: dict[tuple[int, int], tuple[frozenset, ...]],
        degree_cap: int,
        column_cap: int | None = None,
        at_infinity: bool = False,
    ):
        self.lattice = lattice
        self.r = r
        self.basis = basis
        self.degree_cap = degree_cap
        self.column_cap = column_cap
        self.at_infinity = at_infinity

    # -- monomial helpers --------------------------------------------------

    def bidegree(self, exps: tuple[int, ...]) -> tuple[int, int]:
        s = sum(exps)
        return s, self.lattice.monomial_degree(exps) - s

    def _mul_exps(self, a: tuple[int, ...], b: tuple[int, ...]):
        """Lattice product; None when it dies there or past the column cap."""
        p = self.lattice._mul_exps(a, b)
        if p is None or self.column_cap is None or sum(p) <= self.column_cap:
            return p
        return None

    def monomial_str(self, exps: tuple[int, ...]) -> str:
        return self.lattice.monomial_str(exps)

    def class_str(self, vec: frozenset) -> str:
        if not vec:
            return "0"
        return " + ".join(self.monomial_str(e) for e in sorted(vec))

    def parse_monomial(self, text: str) -> tuple[int, ...]:
        return self.lattice.parse_monomial(text)

    def parse_class(self, monomial_texts) -> frozenset:
        return self.lattice.parse_element(monomial_texts).terms

    # -- views -------------------------------------------------------------

    def leading(self, vec: frozenset) -> tuple[int, ...]:
        return min(vec)

    def dims_by_total_degree(self) -> list[int]:
        """Class count per total degree, 0..degree_cap (scratch excluded)."""
        dims = [0] * (self.degree_cap + 1)
        for (s, t), vecs in self.basis.items():
            if 0 <= s + t <= self.degree_cap:
                dims[s + t] += len(vecs)
        return dims

    def classes(self, report_only: bool = True):
        """Iterate (s, t, vec) deterministically."""
        for (s, t) in sorted(self.basis):
            if report_only and s + t > self.degree_cap:
                continue
            for vec in self.basis[(s, t)]:
                yield s, t, vec

    def surviving_leading_monomials(self) -> set:
        return {
            self.leading(vec) for _, _, vec in self.classes(report_only=False)
        }

    # -- page transformations ---------------------------------------------

    def advanced(self, r: int) -> "BigradedPage":
        """Same basis at a later page index (intervening differentials zero)."""
        if r < self.r:
            raise SpectralSequenceError("cannot move to an earlier page")
        return BigradedPage(
            self.lattice, r, self.basis, self.degree_cap, self.column_cap
        )

    def as_e_infinity(self) -> "BigradedPage":
        """Same basis and index, marked E-infinity; this page is not changed."""
        return BigradedPage(
            self.lattice, self.r, self.basis, self.degree_cap,
            self.column_cap, at_infinity=True,
        )

    def restricted_to_columns(self, m: int) -> "BigradedPage":
        if m < 0:
            raise SpectralSequenceError("column cap must be >= 0")
        basis = {
            (s, t): vecs for (s, t), vecs in self.basis.items() if s <= m
        }
        return BigradedPage(self.lattice, self.r, basis, self.degree_cap, m)

    def to_json(self) -> dict:
        bidegrees = []
        for (s, t) in sorted(self.basis):
            if s + t > self.degree_cap:
                continue
            bidegrees.append(
                {
                    "s": s,
                    "t": t,
                    "classes": [self.class_str(v) for v in self.basis[(s, t)]],
                }
            )
        return {
            "r": "infinity" if self.at_infinity else self.r,
            "degree_cap": self.degree_cap,
            "column_cap": self.column_cap,
            "bidegrees": bidegrees,
        }


def koszul_e2(loop: AlgebraPresentation) -> BigradedPage:
    """E2 page from free graded-commutative loop homology.

    Requires every loop generator purely exterior (height 2) or purely
    polynomial (unbounded); a finite height >= 3 is not free and is
    rejected.
    """
    gens = []
    names = set()
    for g in loop.generators:
        if g.height == 2:
            dual_height = None
        elif g.height is None:
            dual_height = 2
        else:
            raise SpectralSequenceError(
                f"loop generator {g.name} has height {g.height}: not free"
            )
        name = f"x1_{g.degree}"
        if name in names:
            raise SpectralSequenceError(
                f"two loop generators in degree {g.degree}: cannot name classes"
            )
        names.add(name)
        gens.append(Generator(name, 1 + g.degree, dual_height))
    lattice = Algebra(
        AlgebraPresentation(tuple(gens), loop.degree_cap + DEFAULT_SCRATCH)
    )

    # Each degree's basis is in ascending order, so each bidegree's is.
    basis: dict[tuple[int, int], list] = {}
    for degree in range(lattice.degree_cap + 1):
        for exps in lattice.basis(degree):
            s = sum(exps)
            basis.setdefault((s, degree - s), []).append(frozenset({exps}))
    return BigradedPage(
        lattice, 2, {key: tuple(vecs) for key, vecs in basis.items()},
        loop.degree_cap,
    )


def leibniz(page: BigradedPage, spec: DifferentialSpec, exps: tuple[int, ...]) -> frozenset:
    """d(monomial) by the Leibniz rule; assignment targets past the caps die."""
    acc: set = set()
    for i, g in enumerate(page.lattice.generators):
        if exps[i] % 2 == 0:
            continue
        value = spec.assignments.get(g.name)
        if not value:
            continue
        rest = list(exps)
        rest[i] -= 1
        rest = tuple(rest)
        for v in value:
            p = page._mul_exps(rest, v)
            if p is not None:
                acc ^= {p}
    return frozenset(acc)


def _d_of_vec(page, spec, vec: frozenset) -> frozenset:
    acc: set = set()
    for exps in vec:
        acc ^= leibniz(page, spec, exps)
    return frozenset(acc)


def _check_spec(page: BigradedPage, spec: DifferentialSpec):
    if spec.r != page.r:
        raise SpectralSequenceError(
            f"differential is for page {spec.r}, current page is {page.r}"
        )
    for name, value in spec.assignments.items():
        if name not in page.lattice._index:
            raise SpectralSequenceError(f"unknown generator {name!r} in differential")
        g = page.lattice.generators[page.lattice._index[name]]
        want = (1 + spec.r, g.degree - spec.r)
        for exps in value:
            if page.bidegree(exps) != want:
                raise SpectralSequenceError(
                    f"d_{spec.r}({name}) has a term of bidegree "
                    f"{page.bidegree(exps)}, expected {want}"
                )


def _check_d_squared(page: BigradedPage, spec: DifferentialSpec):
    for _, _, vec in page.classes(report_only=False):
        for exps in vec:
            image = leibniz(page, spec, exps)
            again: set = set()
            for e2 in image:
                again ^= leibniz(page, spec, e2)
            if again:
                raise SpectralSequenceError(
                    f"d_{spec.r} does not square to zero on "
                    f"{page.monomial_str(exps)}"
                )


def homology_at(
    page: BigradedPage,
    spec: DifferentialSpec,
    vecs: tuple[frozenset, ...],
    incoming: tuple[frozenset, ...],
    alive: bool = True,
) -> tuple[frozenset, ...]:
    """Homology of one bidegree under d_r, with monomial-pivot representatives.

    `vecs` are the classes of the bidegree and `incoming` those of its
    d_r-source bidegree; `page` supplies the lattice products.  With
    `alive` false, d_r out of the bidegree is zero (it lands past a column
    cap) and every class is a cycle.
    """
    out_images = [_d_of_vec(page, spec, v) for v in vecs] if alive else []
    in_images = [b for u in incoming if (b := _d_of_vec(page, spec, u))]

    # out_images live in the target bidegree and get their own index.
    own = sorted(set().union(*vecs, *in_images)) if (vecs or in_images) else []
    own_idx = {m: i for i, m in enumerate(own)}
    tgt = sorted(set().union(*out_images)) if out_images else []
    tgt_idx = {m: i for i, m in enumerate(tgt)}

    out_rows = [
        sum(1 << tgt_idx[m] for m in img) for img in out_images
    ]
    coeffs = gf2.left_kernel(out_rows, len(tgt)) if any(out_rows) else None
    if coeffs is None:
        cycles = [sum(1 << own_idx[m] for m in v) for v in vecs]
    else:
        vec_rows = [sum(1 << own_idx[m] for m in v) for v in vecs]
        cycles = []
        for c in coeffs:
            acc = 0
            for i in range(len(vec_rows)):
                if (c >> i) & 1:
                    acc ^= vec_rows[i]
            if acc:
                cycles.append(acc)

    boundary_rows = [sum(1 << own_idx[m] for m in b) for b in in_images]
    reps, _ = gf2.quotient_basis(cycles, boundary_rows, len(own))
    new_vecs = [
        frozenset(own[i] for i in range(len(own)) if (row >> i) & 1)
        for row in reps
    ]
    return tuple(sorted(new_vecs, key=min))


def apply_differential(page: BigradedPage, spec: DifferentialSpec) -> BigradedPage:
    """Homology of the page under d_r, with monomial-pivot representatives."""
    _check_spec(page, spec)
    _check_d_squared(page, spec)
    r = spec.r

    new_basis: dict[tuple[int, int], tuple[frozenset, ...]] = {}
    for (s, t) in sorted(page.basis):
        incoming = page.basis.get((s - r, t + r - 1), ())
        new_vecs = homology_at(page, spec, page.basis[(s, t)], incoming)
        if new_vecs:
            new_basis[(s, t)] = new_vecs

    return BigradedPage(
        page.lattice, r + 1, new_basis, page.degree_cap, page.column_cap
    )


def run_to_e_infinity(
    page: BigradedPage, specs: list[DifferentialSpec]
) -> BigradedPage:
    """Fold the differentials over ascending page index; mark the result E-infinity."""
    for spec in sorted(specs, key=lambda d: d.r):
        if spec.is_trivial():
            continue
        if spec.r < page.r:
            raise SpectralSequenceError("differentials out of order")
        page = page.advanced(spec.r)
        page = apply_differential(page, spec)
    return page.as_e_infinity()


def truncate(
    e2: BigradedPage, m: int, specs: list[DifferentialSpec]
) -> BigradedPage:
    """E-infinity of the column-m truncation (model of the m-th projective stage)."""
    return run_to_e_infinity(e2.restricted_to_columns(m), specs)


class TruncationTower:
    """`truncate(e2, m, specs)` for every m, each bidegree state computed once.

    The specs are taken as already checked: fold them once over the whole
    E2 page first (see the module docstring for why that check covers
    every truncation).  Given that fold as `e_infinity`, the tower reads
    its all-alive top states from it instead of computing them again:
    the fold ran `homology_at` on the same lattice, spec, classes and
    incoming classes.

    `stage(m)` lists the nonempty states of the column-m truncation as
    (s, t, alive): its bidegrees are a prefix of the column-sorted E2
    bidegrees, and `alive` counts the specs with r <= m - s.  `page(m)` is
    built from that list, and a caller that keys its own per-class work
    by (s, t, alive) does that work once per state, not once per stage.
    """

    def __init__(
        self,
        e2: BigradedPage,
        specs: list[DifferentialSpec],
        e_infinity: BigradedPage | None = None,
    ):
        if e_infinity is not None and (
            e2.column_cap is not None
            or e_infinity.column_cap is not None
            or (e_infinity.lattice.presentation, e_infinity.degree_cap)
            != (e2.lattice.presentation, e2.degree_cap)
        ):
            raise SpectralSequenceError(
                "the seed page is not the untruncated fold of this E2"
            )
        self.e2 = e2
        self.e_infinity = e_infinity
        self.specs = sorted(
            (spec for spec in specs if not spec.is_trivial()), key=lambda d: d.r
        )
        # No column cap: a live d_r lands in column s + r <= m anyway.
        self._lattice = BigradedPage(e2.lattice, e2.r, e2.basis, e2.degree_cap)
        self._states: dict[tuple[int, int, int, int], tuple[frozenset, ...]] = {}
        # Column-sorted bidegrees: a stage's are a prefix.
        self._keys = sorted(e2.basis)
        self._columns = [s for s, _ in self._keys]
        self._rs = [spec.r for spec in self.specs]

    def state(self, j: int, s: int, t: int, alive: int) -> tuple[frozenset, ...]:
        """Basis at (s, t) after folding the first j specs, of which the
        first `alive` (a prefix, as r ascends) act out of column s."""
        if j == 0:
            return self.e2.basis.get((s, t), ())
        if self.e_infinity is not None and j == alive == len(self.specs):
            # The fold drops empty bidegrees.
            return self.e_infinity.basis.get((s, t), ())
        key = (j, s, t, alive)
        if key not in self._states:
            spec = self.specs[j - 1]
            r = spec.r
            here = self.state(j - 1, s, t, min(alive, j - 1))
            if here:
                # Every earlier d out of column s - r lands below s <= m.
                incoming = self.state(j - 1, s - r, t + r - 1, j - 1)
                here = homology_at(self._lattice, spec, here, incoming, alive == j)
            self._states[key] = here
        return self._states[key]

    def stage(self, m: int) -> list[tuple[int, int, int]]:
        """The nonempty states (s, t, alive) of the column-m truncation, in
        (s, t) order: `page(m)` holds `state(len(specs), s, t, alive)` at
        each listed (s, t)."""
        j = len(self.specs)
        out = []
        for s, t in self._keys[: bisect.bisect_right(self._columns, m)]:
            # d_r acts out of column s when s + r <= m; the r ascend.
            alive = bisect.bisect_right(self._rs, m - s)
            if self.state(j, s, t, alive):
                out.append((s, t, alive))
        return out

    def page(self, m: int) -> BigradedPage:
        """E-infinity of the column-m truncation, equal to `truncate(e2, m, specs)`."""
        if m < 0:
            raise SpectralSequenceError("column cap must be >= 0")
        j = len(self.specs)
        basis = {
            (s, t): self.state(j, s, t, alive) for s, t, alive in self.stage(m)
        }
        r = self.specs[-1].r + 1 if self.specs else self.e2.r
        return BigradedPage(
            self.e2.lattice, r, basis, self.e2.degree_cap, m, at_infinity=True
        )


def _powerset(items):
    for size in range(len(items) + 1):
        yield from itertools.combinations(items, size)


def infer_differentials(
    e2: BigradedPage,
    permanent: list[str],
    target: Algebra,
    max_candidates_per_gen: int = 10**6,
) -> list[tuple[DifferentialSpec, BigradedPage]]:
    """Exhaustive search for the differentials forced by the abutment.

    Unknowns are exactly the generators not listed as permanent cycles.
    For each page index r and each assignment of a target-bidegree value
    (possibly zero) to every unknown, keep the assignments whose
    E-infinity matches the target algebra's dimensions in every total
    degree up to the cap.  Each kept assignment comes with that
    E-infinity page, the checked fold `run_to_e_infinity` would give.  A
    one-element result certifies the deduction.
    """
    known = set(permanent)
    for name in permanent:
        if name not in e2.lattice._index:
            raise SpectralSequenceError(f"unknown permanent cycle {name!r}")
    unknowns = [g for g in e2.lattice.generators if g.name not in known]
    target_dims = target.poincare_series()

    def dims_match(page: BigradedPage) -> bool:
        dims = page.dims_by_total_degree()
        n = max(len(dims), len(target_dims))
        for i in range(min(n, e2.degree_cap + 1)):
            a = dims[i] if i < len(dims) else 0
            b = target_dims[i] if i < len(target_dims) else 0
            if a != b:
                return False
        return True

    trivial = (DifferentialSpec(2, {}), e2.as_e_infinity())
    trivial_ok = dims_match(e2)
    if not unknowns:
        if trivial_ok:
            return [trivial]
        raise InferenceError("no consistent assignment: fixture/target mismatch")

    results: list[tuple[DifferentialSpec, BigradedPage]] = []
    r_max = e2.column_cap if e2.column_cap is not None else e2.degree_cap
    for r in range(2, r_max + 1):
        candidate_lists = []
        for g in unknowns:
            bidegree = (1 + r, g.degree - r)
            monos = sorted(
                {
                    m
                    for vec in e2.basis.get(bidegree, ())
                    for m in vec
                }
            )
            if 2 ** len(monos) > max_candidates_per_gen:
                raise InferenceError(
                    f"search budget exceeded for {g.name} at r={r}: "
                    f"2^{len(monos)} candidates"
                )
            candidate_lists.append(list(_powerset(monos)))
        if all(len(c) == 1 for c in candidate_lists):
            continue  # only the zero assignment exists at this r
        for combo in itertools.product(*candidate_lists):
            if all(not v for v in combo):
                continue
            spec = DifferentialSpec(
                r, {g.name: frozenset(v) for g, v in zip(unknowns, combo)}
            )
            page = e2.advanced(r)
            try:
                page = apply_differential(page, spec)
            except SpectralSequenceError:
                continue  # d^2 != 0 or bad bidegree: not a differential
            if dims_match(page):
                results.append((spec, page.as_e_infinity()))

    if trivial_ok:
        results.insert(0, trivial)
    if not results:
        raise InferenceError("no consistent assignment: fixture/target mismatch")
    return results


BUCKET_PRODUCT = "product"
BUCKET_PARTIAL = "partial"
BUCKET_RESIDUAL = "residual"


@dataclass(frozen=True)
class TruncationClass:
    """One class of a truncated E-infinity page with its module label."""

    s: int
    t: int
    degree: int
    leading: tuple
    label: str
    bucket: str


class ClassFacts:
    """What `classify_truncation` reads of one class, all but the stage.

    Only `bucket` takes the stage m: it holds the one stage-dependent
    test, the partial window on the permanent-factor count.
    """

    # A plain class: a dataclass or NamedTuple takes far longer to define,
    # and this one is defined at every import of the package.
    __slots__ = ("s", "t", "leading", "label", "partial", "factors", "rest_alive")

    def __init__(self, s, t, leading, label, partial, factors, rest_alive):
        self.s = s
        self.t = t
        self.leading = leading
        self.label = label
        self.partial = partial  # exponent of the partial-product generator
        self.factors = factors  # permanent factors: the other exponents' sum
        self.rest_alive = rest_alive  # those factors survive untruncated

    def bucket(self, m: int, extension_height: int) -> str:
        if self.partial == 1 and self.rest_alive:
            lo = max(0, m - extension_height)
            in_window = lo <= self.factors <= m - 1
            return BUCKET_PARTIAL if in_window else BUCKET_RESIDUAL
        if self.partial == 0 and self.rest_alive:
            return BUCKET_PRODUCT
        return BUCKET_RESIDUAL

    def labelled(self, bucket: str) -> TruncationClass:
        return TruncationClass(
            self.s, self.t, self.s + self.t, self.leading, self.label, bucket
        )


def class_facts(
    page: BigradedPage,
    s: int,
    t: int,
    vec: frozenset,
    surviving_untruncated: set,
    partial_idx: int | None,
) -> ClassFacts:
    """The stage-independent facts of the class `vec` at (s, t).

    `partial_idx` is the lattice index of the partial-product generator.
    """
    lead = page.leading(vec)
    pe = lead[partial_idx] if partial_idx is not None else 0
    rest = tuple(0 if i == partial_idx else e for i, e in enumerate(lead))
    return ClassFacts(
        s, t, lead, page.monomial_str(lead), pe, sum(rest),
        rest in surviving_untruncated,
    )


def classify_truncation(
    page: BigradedPage,
    m: int,
    surviving_untruncated: set,
    partial_gen: str | None = None,
    extension_height: int = 3,
) -> list[TruncationClass]:
    """Label every class of a truncated E-infinity page.

    Buckets: "product" for monomials in permanent suspension classes that
    survive untruncated (at most m factors, automatic under the column
    cap); "partial" for such a monomial times the partial-product
    generator, with between m - extension_height and m - 1 permanent
    factors; "residual" for everything else (candidates for the
    annihilated top summand, whose module structure is not determined
    here).
    """
    p_idx = page.lattice._index.get(partial_gen) if partial_gen else None
    out = []
    for s, t, vec in page.classes():
        facts = class_facts(page, s, t, vec, surviving_untruncated, p_idx)
        out.append(facts.labelled(facts.bucket(m, extension_height)))
    return out
