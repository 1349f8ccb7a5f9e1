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

The internal lattice is enumerated a few total degrees past the report
cap (`scratch`) so that differentials out of top-degree classes are still
visible; reported data never includes scratch degrees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from lscat import gf2
from lscat.algebra import Algebra, AlgebraPresentation, format_exps

DEFAULT_SCRATCH = 4


class SpectralSequenceError(ValueError):
    pass


class InferenceError(SpectralSequenceError):
    pass


@dataclass(frozen=True)
class PageGenerator:
    """A filtration-1 generator of the E2 lattice."""

    name: str
    t: int
    height: int | None  # None = polynomial

    @property
    def s(self) -> int:
        return 1

    @property
    def total_degree(self) -> int:
        return 1 + self.t


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

    Each class is a frozenset of exponent tuples over `generators` (an
    F2 sum of lattice monomials).  At E2 every class is a single
    monomial; later pages keep monomial-pivot representatives.
    """

    def __init__(
        self,
        generators: tuple[PageGenerator, ...],
        r: int,
        basis: dict[tuple[int, int], tuple[frozenset, ...]],
        degree_cap: int,
        column_cap: int | None = None,
        scratch: int = DEFAULT_SCRATCH,
        at_infinity: bool = False,
    ):
        self.generators = generators
        self.r = r
        self.basis = basis
        self.degree_cap = degree_cap
        self.column_cap = column_cap
        self.scratch = scratch
        self.at_infinity = at_infinity
        self._index = {g.name: i for i, g in enumerate(generators)}

    # -- monomial helpers --------------------------------------------------

    def bidegree(self, exps: tuple[int, ...]) -> tuple[int, int]:
        s = sum(exps)
        t = sum(e * g.t for e, g in zip(exps, self.generators))
        return s, t

    def total_degree(self, exps: tuple[int, ...]) -> int:
        return sum(e * (1 + g.t) for e, g in zip(exps, self.generators))

    def _mul_exps(self, a: tuple[int, ...], b: tuple[int, ...]):
        """Monomial product; None when killed by height or caps."""
        out = []
        total = 0
        col = 0
        for i, (ea, eb) in enumerate(zip(a, b)):
            e = ea + eb
            g = self.generators[i]
            if g.height is not None and e >= g.height:
                return None
            total += e * (1 + g.t)
            col += e
            out.append(e)
        if total > self.degree_cap + self.scratch:
            return None
        if self.column_cap is not None and col > self.column_cap:
            return None
        return tuple(out)

    def monomial_str(self, exps: tuple[int, ...]) -> str:
        return format_exps(self.generators, exps)

    def class_str(self, vec: frozenset) -> str:
        if not vec:
            return "0"
        return " + ".join(self.monomial_str(e) for e in sorted(vec))

    def parse_monomial(self, text: str) -> tuple[int, ...]:
        exps = [0] * len(self.generators)
        text = text.strip()
        if text != "1":
            for factor in text.split("*"):
                name, _, power = factor.strip().partition("^")
                if name not in self._index:
                    raise SpectralSequenceError(f"unknown lattice generator {name!r}")
                exps[self._index[name]] += int(power) if power else 1
        return tuple(exps)

    def parse_class(self, monomial_texts) -> frozenset:
        acc: set = set()
        for t in monomial_texts:
            acc ^= {self.parse_monomial(t)}
        return frozenset(acc)

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
            self.generators, r, self.basis, self.degree_cap,
            self.column_cap, self.scratch,
        )

    def as_e_infinity(self) -> "BigradedPage":
        """Same basis and index, marked E-infinity; this page is not changed."""
        return BigradedPage(
            self.generators, self.r, self.basis, self.degree_cap,
            self.column_cap, self.scratch, at_infinity=True,
        )

    def restricted_to_columns(self, m: int) -> "BigradedPage":
        if m < 0:
            raise SpectralSequenceError("column cap must be >= 0")
        basis = {
            (s, t): vecs for (s, t), vecs in self.basis.items() if s <= m
        }
        return BigradedPage(
            self.generators, self.r, basis, self.degree_cap, m, self.scratch
        )

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


def koszul_e2(
    loop: AlgebraPresentation,
    column_cap: int | None = None,
    scratch: int = DEFAULT_SCRATCH,
) -> BigradedPage:
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
        gens.append(PageGenerator(name, g.degree, dual_height))
    gens = tuple(gens)

    cap = loop.degree_cap + scratch
    basis: dict[tuple[int, int], list] = {}
    n = len(gens)

    def rec(i: int, exps: list[int], total: int, col: int):
        if i == n:
            s = col
            t = total - col
            basis.setdefault((s, t), []).append(frozenset({tuple(exps)}))
            return
        g = gens[i]
        step = 1 + g.t
        max_e = (cap - total) // step
        if g.height is not None:
            max_e = min(max_e, g.height - 1)
        if column_cap is not None:
            max_e = min(max_e, column_cap - col)
        for e in range(max_e + 1):
            exps.append(e)
            rec(i + 1, exps, total + e * step, col + e)
            exps.pop()

    rec(0, [], 0, 0)
    sorted_basis = {
        key: tuple(sorted(vecs, key=min)) for key, vecs in basis.items()
    }
    return BigradedPage(
        gens, 2, sorted_basis, loop.degree_cap, column_cap, scratch
    )


def leibniz(page: BigradedPage, spec: DifferentialSpec, exps: tuple[int, ...]) -> frozenset:
    """d(monomial) by the Leibniz rule; assignment targets past the caps die."""
    acc: set = set()
    for i, g in enumerate(page.generators):
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
        if name not in page._index:
            raise SpectralSequenceError(f"unknown generator {name!r} in differential")
        g = page.generators[page._index[name]]
        want = (1 + spec.r, g.t - spec.r + 1)
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
        page.generators, r + 1, new_basis, page.degree_cap,
        page.column_cap, page.scratch,
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
            or (e_infinity.generators, e_infinity.degree_cap, e_infinity.scratch)
            != (e2.generators, e2.degree_cap, e2.scratch)
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
        self._lattice = BigradedPage(
            e2.generators, e2.r, e2.basis, e2.degree_cap, None, e2.scratch
        )
        self._states: dict[tuple[int, int, int, int], tuple[frozenset, ...]] = {}

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

    def page(self, m: int) -> BigradedPage:
        """E-infinity of the column-m truncation, equal to `truncate(e2, m, specs)`."""
        if m < 0:
            raise SpectralSequenceError("column cap must be >= 0")
        j = len(self.specs)
        basis = {}
        for (s, t) in sorted(self.e2.basis):
            if s > m:
                continue
            alive = sum(1 for spec in self.specs if s + spec.r <= m)
            vecs = self.state(j, s, t, alive)
            if vecs:
                basis[(s, t)] = vecs
        r = self.specs[-1].r + 1 if self.specs else self.e2.r
        return BigradedPage(
            self.e2.generators, r, basis, self.e2.degree_cap, m,
            self.e2.scratch, at_infinity=True,
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
        if name not in e2._index:
            raise SpectralSequenceError(f"unknown permanent cycle {name!r}")
    unknowns = [g for g in e2.generators if g.name not in known]
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
            bidegree = (1 + r, g.t - r + 1)
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
    p_idx = page._index.get(partial_gen) if partial_gen else None
    out = []
    lo = max(0, m - extension_height)
    for s, t, vec in page.classes():
        lead = page.leading(vec)
        pe = lead[p_idx] if p_idx is not None else 0
        rest = tuple(
            0 if i == p_idx else e for i, e in enumerate(lead)
        )
        count = sum(rest)
        rest_alive = rest in surviving_untruncated
        if pe == 0:
            bucket = BUCKET_PRODUCT if rest_alive else BUCKET_RESIDUAL
        elif pe == 1 and rest_alive and lo <= count <= m - 1:
            bucket = BUCKET_PARTIAL
        else:
            bucket = BUCKET_RESIDUAL
        out.append(
            TruncationClass(s, t, s + t, lead, page.monomial_str(lead), bucket)
        )
    return out
