"""The Leibniz-direct fold: an independent path to the pages that
`specseq.TruncationTower` computes, for the tests to compare against.

It folds the differentials page by page over one column truncation at a
time, over all of E2's cells (its own walk of the lattice, scratch
degrees included, `cells`), evaluating d_r of every class by the Leibniz
rule, where the tower folds only the touched factor, shares bidegree
states across truncations and reads d_r through image tables.  Its
classes are int rows over those cells (`IntPage`), its own format, and
a folded page is converted to terms only when it is handed back for a
comparison (`run_to_e_infinity`, `truncate`).  It checks d_r^2 = 0 by
walking every monomial of every E2 cell of the page it folds
(`check_d_squared`), where the tower checks the generators alone.  It
shares the row-width check (`_check_spec`), `leibniz` and `homology_at`
with the tower.

It also keeps a per-stage walk for a class the witness search cannot
map into the extended algebra (`unmatched_walk`), which the tests hold
`LoopSpaceModel`'s one E-infinity check against, the witness walk over
every stage up to the cap (`full_walk`), where the model stops at the
last stage that can hold a candidate, and readers that no
production path calls: a d_r value parsed from monomial texts
(`parse_class`), an algebra's total dimension (`total_dimension`), a
page as the dict whose JSON `BigradedPage.json_text` writes
(`page_json`), which the tests compare pages by, the weight of one
cohomology class (`wgt`), and GF(2) span membership (`in_span`, over
`reduce_mod`).

And it keeps the whole-lattice walks the package no longer makes, as
oracles: every monomial of an algebra bucketed by degree
(`lattice_walk`, and `monomials` in order), the cup-length as the
largest exponent sum over that walk (`cup_length_walk`), and the set of
a page's leading monomials (`surviving`), which a model now reads as one
membership test per monomial.

Rows, which the package makes only inside `SteenrodAction.sq`: a row
over `basis(d)` parsed from monomial texts (`parse_row`) and read back
as its terms (`terms`), each monomial's bit (`index`), the product of
two rows (`mul`), which the Steenrod squares now take over terms, and a
row's text (`row_str`), which a witness now joins from its terms.
"""

from __future__ import annotations

import copy
import functools

from lscat.algebra import Algebra
from lscat.gf2 import rref
from lscat.specseq import (
    BigradedPage,
    DifferentialSpec,
    SpectralSequenceError,
    _check_spec,
    _value_monomials,
    homology_at,
    leibniz,
)
from lscat.weights import (
    BUCKET_RESIDUAL,
    ClassFacts,
    LoopSpaceModel,
    WeightError,
    bucket,
    class_facts,
)


def lattice_walk(algebra: Algebra) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every monomial up to the cap, bucketed by degree, in canonical order.

    Exponent vectors grow one generator at a time, pruned by the degree
    left under the cap; extending a sorted list with ascending exponents
    keeps it sorted, so each bucket is already in ascending-tuple order.
    """
    cap = algebra.degree_cap
    partial = [((), 0)]
    for g in algebra.generators:
        top = cap if g.height is None else g.height - 1
        partial = [
            (exps + (e,), degree + e * g.degree)
            for exps, degree in partial
            for e in range(min(top, (cap - degree) // g.degree) + 1)
        ]
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(cap + 1)]
    for exps, degree in partial:
        buckets[degree].append(exps)
    return tuple(tuple(b) for b in buckets)


def monomials(algebra: Algebra):
    """Every monomial up to the cap, by degree, each degree in order."""
    for bucket in lattice_walk(algebra):
        yield from bucket


def cup_length_walk(algebra: Algebra) -> int:
    """The largest exponent sum of a monomial up to the cap."""
    return max(sum(m) for m in monomials(algebra))


@functools.cache
def index(algebra: Algebra, degree: int) -> dict[tuple[int, ...], int]:
    """Each monomial of `basis(degree)` with its bit in a row over it,
    kept per algebra and degree, as `basis` walks on every read."""
    return {m: i for i, m in enumerate(algebra.basis(degree))}


def terms(algebra: Algebra, row: int, degree: int) -> list[tuple[int, ...]]:
    """The monomials of a row over `basis(degree)`, in canonical order."""
    basis = list(index(algebra, degree))
    out = []
    while row:
        low = row & -row
        out.append(basis[low.bit_length() - 1])
        row ^= low
    return out


def parse_row(algebra: Algebra, monomial_texts, degree: int) -> int:
    """The sum of the monomials, a row over `basis(degree)`."""
    parsed = algebra.parse_terms(monomial_texts, degree)
    return sum(1 << index(algebra, degree)[m] for m in parsed)


def row_of(algebra: Algebra, exps: tuple[int, ...]) -> int:
    """The monomial as a row over the basis of its degree."""
    return 1 << index(algebra, algebra.monomial_degree(exps))[exps]


def mul(algebra: Algebra, a: int, da: int, b: int, db: int) -> int:
    """Product of rows over `basis(da)` and `basis(db)`: a row over
    `basis(da + db)`, zero above the cap."""
    if not (a and b) or da + db > algebra.degree_cap:
        return 0
    out = 0
    ys = terms(algebra, b, db)
    for x in terms(algebra, a, da):
        for y in ys:
            p = algebra._mul_exps(x, y)
            if p is not None:
                out ^= 1 << index(algebra, da + db)[p]
    return out


def row_str(algebra: Algebra, row: int, degree: int) -> str:
    """'x7 + x3^2*x5' (or '0'); `parse_row` reads it back."""
    monos = terms(algebra, row, degree)
    return " + ".join(map(algebra.monomial_str, monos)) if monos else "0"


def surviving(page: BigradedPage) -> set:
    """The leading monomials of the page's classes."""
    return {cls[0] for _, _, cls in page.classes()}


def total_dimension(algebra: Algebra) -> int:
    """The sum of the algebra's dimensions in degrees 0..cap."""
    return sum(algebra.poincare_series())


def reduce_mod(vec: int, reduced_rows: list[int], pivots: list[int]) -> int:
    """Reduce `vec` against rows already in RREF (rows aligned with pivots)."""
    for row, col in zip(reduced_rows, pivots):
        if (vec >> col) & 1:
            vec ^= row
    return vec


def in_span(vec: int, rows: list[int], ncols: int) -> bool:
    """Whether `vec` is a sum of some of `rows`, over columns [0, ncols)."""
    work = list(rows)
    pivots = rref(work, ncols)
    return reduce_mod(vec, work[: len(pivots)], pivots) == 0


def wgt(model: LoopSpaceModel, u: int, degree: int) -> int:
    """The filtration of the E-infinity representative of u, a row over
    `model.algebra.basis(degree)`: the least filtration of the lattice
    monomials its terms match."""
    if not u:
        raise WeightError("weight of the zero class is undefined")
    if degree == 0:
        raise WeightError("weight of the unit is undefined")
    return min(
        sum(model._surviving_lattice(e)) for e in terms(model.algebra, u, degree)
    )


def page_json(page: BigradedPage) -> dict:
    """The page as a JSON object: each bidegree's classes as text."""
    bidegrees = [
        {
            "s": s,
            "t": t,
            "classes": [page.class_str(cls) for cls in page.basis[(s, t)]],
        }
        for (s, t) in sorted(page.basis)
    ]
    return {
        "r": page.r,
        "degree_cap": page.degree_cap,
        "column_cap": page.column_cap,
        "bidegrees": bidegrees,
    }


def parse_class(page: BigradedPage, monomial_texts, s: int, t: int) -> int:
    """The sum of the monomials, a row over E2's cell at (s, t), as a d_r
    value is."""
    cell = page.lattice_cells.cell(s, t)
    row = 0
    for text in monomial_texts:
        exps = page.lattice.parse_monomial(text)
        if page.bidegree(exps) != (s, t):
            raise SpectralSequenceError(
                f"{text!r} has bidegree {page.bidegree(exps)}, not {(s, t)}"
            )
        row ^= 1 << cell.index(exps)
    return row


@functools.cache
def cells(lattice: Algebra) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """Each bidegree's lattice monomials, ascending, up to the lattice cap
    (scratch degrees included), from this module's own walk; bidegrees in
    (s, t) order."""
    out: dict[tuple[int, int], list] = {}
    for exps in monomials(lattice):
        s = sum(exps)
        out.setdefault((s, lattice.monomial_degree(exps) - s), []).append(exps)
    return {key: tuple(out[key]) for key in sorted(out)}


@functools.cache
def bits(lattice: Algebra) -> dict[tuple[int, ...], int]:
    """Each lattice monomial's bit in its cell of `cells(lattice)`."""
    return {m: i for cell in cells(lattice).values() for i, m in enumerate(cell)}


class IntPage:
    """A page in the reference fold's own format: each class an int row
    over its bidegree's cell of `cells` (bit i is the i-th monomial), the
    classes of `source`, a page of the package, converted."""

    def __init__(self, source: BigradedPage, r: int, basis: dict, column_cap):
        self.source = source
        self.lattice = source.lattice
        self.cells = cells(self.lattice)
        self.bit = bits(self.lattice)
        self.r = r
        self.basis = basis
        self.column_cap = column_cap

    def derived(self, **fields) -> "IntPage":
        page = copy.copy(self)
        page.__dict__.update(fields)
        return page

    def monomials(self, s: int, t: int, vec: int) -> list[tuple[int, ...]]:
        """The monomials of the row `vec` at (s, t), ascending."""
        cell = self.cells.get((s, t), ())
        out = []
        while vec:
            low = vec & -vec
            out.append(cell[low.bit_length() - 1])
            vec ^= low
        return out

    def as_terms(self) -> BigradedPage:
        """The page as the package holds one: each class its terms."""
        basis = {
            key: tuple(tuple(self.monomials(*key, v)) for v in vecs)
            for key, vecs in self.basis.items()
        }
        return self.source._derived(r=self.r, basis=basis, column_cap=self.column_cap)


def int_page(page: BigradedPage) -> IntPage:
    """The page's classes as rows over `cells`."""
    bit = bits(page.lattice)
    basis = {
        key: tuple(sum(1 << bit[m] for m in cls) for cls in classes)
        for key, classes in page.basis.items()
    }
    return IntPage(page, page.r, basis, page.column_cap)


def restricted_to_columns(page: BigradedPage, m: int) -> BigradedPage:
    """The page's classes in columns <= m, with column cap m."""
    if m < 0:
        raise SpectralSequenceError("column cap must be >= 0")
    basis = {(s, t): vecs for (s, t), vecs in page.basis.items() if s <= m}
    return page._derived(basis=basis, column_cap=m)


def d_of_vec(page: IntPage, spec: DifferentialSpec, s, t, vec, values=None) -> int:
    """d_r of the class `vec` at (s, t) by the Leibniz rule.  Every term
    lands r columns to the right, so d_r is 0 past the column cap.
    `values` is `_value_monomials` of the spec, read when not given."""
    if page.column_cap is not None and s + spec.r > page.column_cap:
        return 0
    acc = 0
    if values is None:
        values = _value_monomials(page.source, spec)
    for exps in page.monomials(s, t, vec):
        acc ^= leibniz(page.lattice, page.bit, exps, values)
    return acc


def check_d_squared(page: IntPage, spec: DifferentialSpec, d):
    """Raise unless d_r(d_r(x)) = 0 for every monomial x of every E2 cell
    of `page`, scratch degrees included, in (s, t) order; `d` is as in
    `homology_at`."""
    r = spec.r
    for s, t in sorted(page.cells):
        for i, exps in enumerate(page.cells[(s, t)]):
            if d(s + r, t - r + 1, d(s, t, 1 << i)):
                raise SpectralSequenceError(
                    f"d_{spec.r} does not square to zero on "
                    f"{page.lattice.monomial_str(exps)}"
                )


def apply_differential(page, spec: DifferentialSpec) -> IntPage:
    """Homology of the page (a package page or an `IntPage`) under d_r,
    with monomial-pivot representatives, as an `IntPage`."""
    if isinstance(page, BigradedPage):
        page = int_page(page)
    if spec.r != page.r:
        raise SpectralSequenceError(
            f"differential is for page {spec.r}, current page is {page.r}"
        )
    _check_spec(page.source, spec)
    values = _value_monomials(page.source, spec)

    def d(s, t, vec):
        return d_of_vec(page, spec, s, t, vec, values)

    check_d_squared(page, spec, d)
    r = spec.r
    new_basis: dict[tuple[int, int], tuple[int, ...]] = {}
    for (s, t) in sorted(page.basis):
        incoming = page.basis.get((s - r, t + r - 1), ())
        new_vecs = homology_at(
            page.cells, spec, s, t, page.basis[(s, t)], incoming, True, d
        )
        if new_vecs:
            new_basis[(s, t)] = new_vecs
    return page.derived(r=r + 1, basis=new_basis)


def run_to_e_infinity(
    page: BigradedPage, specs: list[DifferentialSpec]
) -> BigradedPage:
    """Fold the differentials over ascending page index, into a new page,
    its classes converted to terms once the fold is done."""
    page = int_page(page)
    for spec in sorted(specs, key=lambda d: d.r):
        if spec.is_trivial():
            continue
        if spec.r < page.r:
            raise SpectralSequenceError("differentials out of order")
        page = apply_differential(page.derived(r=spec.r), spec)
    return page.as_terms()


def truncate(
    e2: BigradedPage, m: int, specs: list[DifferentialSpec]
) -> BigradedPage:
    """E-infinity of the column-m truncation (model of the m-th projective stage)."""
    return run_to_e_infinity(restricted_to_columns(e2, m), specs)


def classify_truncation(
    page: BigradedPage,
    m: int,
    surviving_untruncated: set,
    partial_gen: str | None = None,
    extension_height: int = 3,
) -> list[tuple[ClassFacts, str]]:
    """Every class of a truncated E-infinity page with its bucket at stage
    m (`lscat.weights.bucket`), in page order."""
    p_idx = page.lattice._index.get(partial_gen) if partial_gen else None
    out = []
    for s, t, cls in page.classes():
        facts = class_facts(
            page.lattice, s, t, cls[0], surviving_untruncated.__contains__, p_idx
        )
        out.append((facts, bucket(*facts.key, m, extension_height)))
    return out


def full_walk(model: LoopSpaceModel) -> list[dict]:
    """The witness of every stage 0..the cap that has one, searched stage
    by stage with no bound on the walk."""
    if model.space.loop_homology is None:
        return []
    out = []
    for m in range(model.space.degree_cap + 1):
        witness = model.find_obstruction(m)
        if witness is not None:
            out.append(witness)
    return out


def unmatched_walk(model: LoopSpaceModel, top: int | None = None) -> None:
    """Map every non-residual class of stages 0..top (default: the cap)
    into the extended algebra, stage by stage in page order, and raise a
    WeightError naming the first E2 generator that matches nothing, at the
    first stage holding such a class."""
    model._tower
    to_extended = model.space.match[0]
    if None not in to_extended:
        return
    top = model.space.degree_cap if top is None else top
    for m in range(top + 1):
        for cls, b in model.stage_report(m):
            if b == BUCKET_RESIDUAL:
                continue
            for g, i, e in zip(
                model.e2.lattice.generators, to_extended, cls.leading
            ):
                if e and i is None:
                    raise WeightError(f"{g.name} matches no cohomology class")
