"""The Leibniz-direct fold: an independent path to the pages that
`specseq.TruncationTower` computes, for the tests to compare against.

It folds the differentials page by page over one column truncation at a
time, evaluating d_r of every class by the Leibniz rule, where the tower
shares bidegree states across truncations and reads d_r through image
tables.  It checks d_r^2 = 0 by walking every monomial of every E2 cell
of the page it folds (`check_d_squared`), where the tower checks the
generators alone.  It shares the row-width check (`_check_spec`) and
`homology_at` with the tower.

It also keeps a per-stage walk for a class the witness search cannot
map into the extended algebra (`unmatched_walk`), which the tests hold
`LoopSpaceModel`'s one E-infinity check against, and readers that no
production path calls: a class parsed from monomial texts
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
"""

from __future__ import annotations

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


def row_of(algebra: Algebra, exps: tuple[int, ...]) -> int:
    """The monomial as a row over the basis of its degree."""
    return 1 << algebra.index(algebra.monomial_degree(exps))[exps]


def surviving(page: BigradedPage) -> set:
    """The leading monomials of the page's classes."""
    return {page.leading(s, t, vec) for s, t, vec in page.classes()}


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
        sum(model._surviving_lattice(e)) for e in model.algebra.terms(u, degree)
    )


def page_json(page: BigradedPage) -> dict:
    """The page as a JSON object: each bidegree's classes as text."""
    bidegrees = [
        {
            "s": s,
            "t": t,
            "classes": [page.class_str(s, t, v) for v in page.basis[(s, t)]],
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
    """The sum of the monomials, a row over `page.cells[(s, t)]`."""
    row = 0
    for text in monomial_texts:
        exps = page.lattice.parse_monomial(text)
        if page.bidegree(exps) != (s, t):
            raise SpectralSequenceError(
                f"{text!r} has bidegree {page.bidegree(exps)}, not {(s, t)}"
            )
        row ^= 1 << page._bit[exps]
    return row


def restricted_to_columns(page: BigradedPage, m: int) -> BigradedPage:
    """The page's classes in columns <= m, with column cap m."""
    if m < 0:
        raise SpectralSequenceError("column cap must be >= 0")
    basis = {(s, t): vecs for (s, t), vecs in page.basis.items() if s <= m}
    return page._derived(basis=basis, column_cap=m)


def d_of_vec(page: BigradedPage, spec: DifferentialSpec, s, t, vec) -> int:
    """d_r of the class `vec` at (s, t) by the Leibniz rule.  Every term
    lands r columns to the right, so d_r is 0 past the column cap."""
    if page.column_cap is not None and s + spec.r > page.column_cap:
        return 0
    acc = 0
    values = _value_monomials(page, spec)
    for exps in page.monomials(s, t, vec):
        acc ^= leibniz(page, spec, exps, values)
    return acc


def check_d_squared(page: BigradedPage, spec: DifferentialSpec, d):
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


def apply_differential(page: BigradedPage, spec: DifferentialSpec) -> BigradedPage:
    """Homology of the page under d_r, with monomial-pivot representatives."""
    if spec.r != page.r:
        raise SpectralSequenceError(
            f"differential is for page {spec.r}, current page is {page.r}"
        )
    _check_spec(page, spec)
    d = functools.partial(d_of_vec, page, spec)
    check_d_squared(page, spec, d)
    r = spec.r
    new_basis: dict[tuple[int, int], tuple[int, ...]] = {}
    for (s, t) in sorted(page.basis):
        incoming = page.basis.get((s - r, t + r - 1), ())
        new_vecs = homology_at(
            page, spec, s, t, page.basis[(s, t)], incoming, True, d
        )
        if new_vecs:
            new_basis[(s, t)] = new_vecs
    return page._derived(r=r + 1, basis=new_basis)


def run_to_e_infinity(
    page: BigradedPage, specs: list[DifferentialSpec]
) -> BigradedPage:
    """Fold the differentials over ascending page index, into a new page."""
    for spec in sorted(specs, key=lambda d: d.r):
        if spec.is_trivial():
            continue
        if spec.r < page.r:
            raise SpectralSequenceError("differentials out of order")
        page = apply_differential(page.advanced(spec.r), spec)
    return page._derived()


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
    for s, t, vec in page.classes():
        facts = class_facts(
            page, s, t, vec, surviving_untruncated.__contains__, p_idx
        )
        out.append((facts, bucket(*facts.key, m, extension_height)))
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
