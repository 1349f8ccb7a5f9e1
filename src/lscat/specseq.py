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
sources past column m are gone.  Sorting a stage's classes into the
product, partial-product and residual buckets is `lscat.weights`'s.

Every page, truncated or not, is a state of one fold (`TruncationTower`).
d_r raises the column by exactly r, so in the column-m truncation the
classes at (s, t) after folding d_r1, ..., d_rj (r ascending) depend on m
only through which of those d_r act out of column s, i.e. have s + r <= m.
Those form a prefix, and the d_rj-sources at s - rj have every earlier
differential alive, since (s - rj) + r < s <= m.  So each bidegree has at
most j + 1 states after j pages (two with one differential, one with
none), and each state is computed once and shared by every m.  The state
with every differential alive at every page is the untruncated fold's.
At or past the last E2 column (the largest exponent sum of a lattice
monomial, scratch degrees included), a d_r out of column s with
s + r > m lands past that column, where E2 has no monomial, so it is
zero and the state with it alive is the same state: there the tower
counts every differential alive, and the stage reads the untruncated
states.

The tower checks each spec once before it folds anything (`_check_spec`,
`_check_d_squared`).  A spec determines a derivation D of the capped
lattice by the Leibniz rule: the capped lattice is the quotient by the
degrees past its cap, an ideal that D (of total degree +1) preserves.  In
characteristic 2, D^2 is again a derivation, since D^2(ab) = D^2(a) b +
2 D(a) D(b) + a D^2(b).  So D^2 vanishes on every monomial exactly when
it vanishes on every generator, and only the assigned generators can
fail: the tower checks D(D(g)) = 0 for each of them.  Every page's d_r is
D on the page's classes, so d_r^2 = 0 on every page.  That includes every
truncation: d_r on the column-m truncation is D followed by dropping the
columns past m.  Since D raises the column by exactly r, that square is
D^2 on a class whose image lands at or before m, and zero on the others.

The tower folds only the factor the specs touch (a Kunneth split).  A
generator is touched when some spec assigns it a value or it occurs in
some value's monomials; A is the sub-lattice on the touched generators,
walked over its own cells up to the lattice cap, and B is the monomials
in the others, up to the report cap.  With no spec A is {1} and B is the
whole lattice; when every generator is touched, B is {1}.  The tower
folds the specs over A alone, and each state (j, s, t, alive) is the
union over b in B of the A state (j, s - s_b, t - t_b, alive) times b.
That is exact:

- D(b) = 0 for an untouched monomial b, and D(A) lies in A (a value's
  monomials are A's).  By the Leibniz rule D(a b) = D(a) b, so each block
  A b is a subcomplex, and each bidegree of E2 is the direct sum of its
  blocks, each a copy of an A bidegree.
- No reported state reads past the lattice cap: d_r out of degree
  <= cap lands in degree <= cap + 1 < cap + `DEFAULT_SCRATCH`.  So in
  reported degrees the capped lattice is A (x) B, and D(a) b loses no
  term to the cap.
- `alive` counts the specs alive out of the full column s = s_a + s_b,
  the same for every block of the state, and A's state takes it
  unchanged.  The incoming state is full-alive on both sides.
- An A monomial's untouched exponents are 0, and b's touched ones, so
  multiplying by b adds exponents and keeps the ascending order of A's
  cell (two products first differ where their A monomials do), and
  different blocks have disjoint supports.  `homology_at`'s
  representatives are the RREF rows of cycles plus boundaries whose
  lowest-bit pivots are not boundary pivots, so they depend on those two
  spans alone, and the RREF of a direct sum over disjoint supports is the
  union of its summands' RREFs.  So a state's canonical representatives
  (fully reduced, monomial pivots, ascending by leading monomial) are the
  union of its blocks' representatives: the fold over A, times B, is
  the fold over E2.

So the fold's cost follows A, not the untouched factors: on spin9,
F2[x1_2] (x) Lambda(x1_4, x1_6, x1_10, x1_14) with d_3(x1_10) = x1_2^4,
A is F2[x1_2] (x) Lambda(x1_10), and each homology computed over A
serves every monomial of Lambda(x1_4, x1_6, x1_14).  The tower evaluates
the Leibniz rule once per spec and A monomial: it keeps, per spec, the
image of each A cell's monomials (a row over A's target cell), filled on
the cell's first use, and its d^2 check, which reads each value as a row
over A's target cell, and every state read d_r through that table.  The
tests keep an independent path to the same pages (`tests/reference.py`),
which folds each truncation over all of E2 from scratch and evaluates the
Leibniz rule directly.  A state where no class has a nonzero d_r and no
boundary lands keeps its classes as they are (`homology_at` says why
that is exact).

E-infinity is read off the same product, with no E2-wide page: its class
count per total degree is A's untruncated count convolved with B's
Poincare series (`e_infinity_dims`, which inference compares in
ascending degree, up to the first that differs), a lattice
monomial leads an E-infinity class exactly when its touched part leads
one of A's untruncated classes and its exponents are within the
lattice's bounds (`survives`), and its top filtration is the largest
s_a + the cup-length of B under the degree left (`top_filtration`).
With no spec A is {1}, and these are E2's dims, the lattice's bounds and
its cup-length under the cap, read as such.

The E2 lattice is an `Algebra`: x1_t has total degree 1 + t, and a
lattice monomial is its exponent tuple, in filtration s = its exponent
sum.  The lattice algebra's cap is the report cap + `DEFAULT_SCRATCH`.
A's cells cover every lattice degree up to it, but its classes stop at
the report cap.  So the scratch degrees past the cap are cells, the
targets of d_r out of the top reported degrees, which the d^2 check
reads too, and never classes or states: every page and state holds
reported degrees only.  The state at (s, t) after j specs reads only the
state at (s, t) after j - 1 specs and the incoming one at (s - r,
t + r - 1), both at or below total degree s + t; and d_r out of (s, t) is
read through the image table into A's cell at (s + r, t - r + 1).

A class is its terms: the tuple of its lattice monomials in ascending
order, so its first term is its leading monomial, and a bidegree's
classes ascend by leading monomial, as cohomology values do
(`lscat.algebra`).  Rows exist only inside the fold: there a class at
(s, t) is an int over A's cell at (s, t) (bit i is its i-th monomial),
which is gf2's row format, so homology passes classes and boundaries to
gf2 unchanged, and a representative's lowest set bit is its leading
monomial.  A value of d_r on a generator is a row over E2's cell that
d_r lands in (`BigradedPage.target`, `E2Cells.cell`).

E2's cells are walked only where E2 is the output (`E2Cells`): the whole
lattice is walked, up to the report cap, the first time E2's classes
are read, which only a page before the first possible differential
does (the stages of a tower with no spec walk it too, as B).  The cells
that d_r values and candidate widths read are walked once per total
degree, up to that degree, and A's cells once per E2 and set of touched
generators (`E2Cells.factor`), which inference's candidates share.
E2's `dims_by_total_degree` is the lattice's Poincare series and the
last E2 column the lattice's cup-length.  So a report reads no E2 cell
but its unknowns' target cells, and a report on a space whose
generators are all permanent cycles (every SU(n)) reads none.

A page prints as JSON text (`BigradedPage.json_text`, what `dump-page`
writes): the text `json.dumps(..., indent=2)` gives for r, the degree
and column caps and one record of s, t and class labels per bidegree,
written straight from the basis, with no dict per bidegree in between.
"""

from __future__ import annotations

import bisect
import copy
import itertools
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import add, eq, le, mul

from lscat import gf2
from lscat.algebra import Algebra, AlgebraPresentation, Generator

DEFAULT_SCRATCH = 4
# Most assignments one inference may search, over every page together.
SEARCH_BUDGET = 1000


class SpectralSequenceError(ValueError):
    pass


class InferenceError(SpectralSequenceError):
    pass


class DifferentialSpec:
    """d_r on generators: each value is a row over the E2 cell of its
    generator's d_r target (`BigradedPage.target`, `E2Cells.cell`); zero
    rows are dropped."""

    __slots__ = ("r", "assignments")

    def __init__(self, r: int, assignments: dict[str, int] | None = None):
        self.r = r
        self.assignments = {k: v for k, v in (assignments or {}).items() if v}

    def is_trivial(self) -> bool:
        return not self.assignments


def _cells(walk) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """Each bidegree's monomials of `walk`, (exponents, degree) pairs in
    ascending order, as an `Algebra.walk` gives them; bidegrees in (s, t)
    order."""
    cells: dict[tuple[int, int], list] = {}
    for exps, degree in walk:
        s = sum(exps)
        cells.setdefault((s, degree - s), []).append(exps)
    return {key: tuple(cells[key]) for key in sorted(cells)}


def _walk_cells(lattice: Algebra, cap: int):
    """E2's cells up to `cap`, from the one walk of the whole lattice."""
    return _cells(lattice.walk(cap=cap))


class E2Cells:
    """E2's cells over the lattice `algebra`, shared by every page over
    one E2, each read on first use.  `classes` is E2's basis: each nonempty
    bidegree up to `degree_cap` with its classes, one per monomial of its
    cell, ascending, all made from one walk of the lattice.  `cell(s, t)`
    is one bidegree's monomials, ascending, from a walk up to its total
    degree, kept per degree: d_r's target cells are read that way, with
    no walk of E2."""

    def __init__(self, algebra: Algebra, degree_cap: int):
        self.algebra = algebra
        self.degree_cap = degree_cap
        self._degrees: dict[int, dict] = {}
        self._factors: dict[tuple[int, ...], tuple] = {}

    @cached_property
    def classes(self) -> dict[tuple[int, int], tuple[tuple[tuple[int, ...]], ...]]:
        return {
            key: tuple((m,) for m in cell)
            for key, cell in _walk_cells(self.algebra, self.degree_cap).items()
        }

    def cell(self, s: int, t: int) -> tuple[tuple[int, ...], ...]:
        d = s + t
        cells = self._degrees.get(d)
        if cells is None:
            # No monomial lies past the lattice cap.
            cap = self.algebra.degree_cap
            walk = self.algebra.walk(cap=d) if 0 <= d <= cap else ()
            cells = self._degrees[d] = _cells(m for m in walk if m[1] == d)
        return cells.get((s, t), ())

    def factor(self, among: tuple[int, ...]) -> tuple[dict, dict, dict, dict]:
        """The sub-lattice on the generators `among`, as a tower folds it:
        its cells up to the lattice cap, each monomial's bit in its cell,
        its classes on E2 (the unit rows of each cell up to `degree_cap`)
        and those bidegrees' t per column.  Kept per tuple: the towers over
        this E2 that touch the same generators (inference's candidates,
        mostly) fold over the same cells."""
        out = self._factors.get(among)
        if out is None:
            cells = _cells(self.algebra.walk(among))
            bit = {m: i for cell in cells.values() for i, m in enumerate(cell)}
            units = tuple(1 << i for i in range(max(map(len, cells.values()))))
            base, columns = {}, {}
            for (s, t), cell in cells.items():
                if s + t <= self.degree_cap:
                    base[(s, t)] = units[: len(cell)]
                    columns.setdefault(s, []).append(t)
            out = self._factors[among] = cells, bit, base, columns
        return out


class BigradedPage:
    """One page of the spectral sequence: per-(s,t) class representatives.

    Each class is its terms, the tuple of its `lattice` monomials in
    ascending order, and a bidegree's classes ascend by leading monomial
    (the first term).  At E2 every class is a single monomial; later pages
    keep monomial-pivot representatives.  Every page derived from one E2
    reads that E2's `E2Cells`.
    """

    def __init__(self, cells: E2Cells, r: int, degree_cap: int):
        self.lattice = cells.algebra
        self.lattice_cells = cells
        self.r = r
        self.degree_cap = degree_cap
        self.column_cap: int | None = None

    @cached_property
    def basis(self) -> dict[tuple[int, int], tuple[tuple[tuple[int, ...], ...], ...]]:
        """Each nonempty bidegree's classes, in (s, t) order: E2's, read on
        first use, unless the page was derived with its own."""
        return self.lattice_cells.classes

    def _derived(self, **fields) -> "BigradedPage":
        """A page over this page's lattice and cells, with `fields` in
        place of the rest."""
        page = copy.copy(self)
        page.__dict__.update(fields)
        return page

    # -- monomial helpers --------------------------------------------------

    def bidegree(self, exps: tuple[int, ...]) -> tuple[int, int]:
        s = sum(exps)
        return s, self.lattice.monomial_degree(exps) - s

    def target(self, r: int, name: str) -> tuple[int, int]:
        """The bidegree d_r of the generator `name` lands in: x1_t sits at
        (1, t), so (1 + r, |x1_t| - r)."""
        i = self.lattice._index.get(name)
        if i is None:
            raise SpectralSequenceError(f"unknown generator {name!r} in differential")
        return 1 + r, self.lattice.generators[i].degree - r

    def monomials(self, s: int, t: int, row: int) -> list[tuple[int, ...]]:
        """The monomials of `row`, a row over E2's cell at (s, t) (a d_r
        value), ascending."""
        cell = self.lattice_cells.cell(s, t)
        out = []
        while row:
            low = row & -row
            out.append(cell[low.bit_length() - 1])
            row ^= low
        return out

    def class_str(self, cls: tuple[tuple[int, ...], ...]) -> str:
        return " + ".join(map(self.lattice.monomial_str, cls)) if cls else "0"

    # -- views -------------------------------------------------------------

    def dims_by_total_degree(self) -> list[int]:
        """Class count per total degree, 0..degree_cap.  E2 has one class
        per lattice monomial: its counts, while its classes are unread, are
        the lattice's Poincare series, read without a cell."""
        if "basis" not in vars(self):
            return self.lattice.poincare_series()[: self.degree_cap + 1]
        dims = [0] * (self.degree_cap + 1)
        for (s, t), classes in self.basis.items():
            dims[s + t] += len(classes)
        return dims

    def classes(self):
        """Iterate (s, t, class) deterministically."""
        for (s, t) in sorted(self.basis):
            for cls in self.basis[(s, t)]:
                yield s, t, cls

    # -- page transformations ---------------------------------------------

    def advanced(self, r: int) -> "BigradedPage":
        """Same basis at a later page index (intervening differentials zero)."""
        if r < self.r:
            raise SpectralSequenceError("cannot move to an earlier page")
        return self._derived(r=r)

    def json_text(self) -> str:
        """The page as `json.dumps(..., indent=2)` writes the object
        {"r", "degree_cap", "column_cap", "bidegrees": [{"s", "t",
        "classes": [label, ...]}, ...]}, bidegrees in (s, t) order."""
        records = []
        for s, t in sorted(self.basis):
            names = ",\n        ".join([
                encode_basestring_ascii(self.class_str(cls))
                for cls in self.basis[(s, t)]
            ])
            classes = f"[\n        {names}\n      ]" if names else "[]"
            records.append(f'{{\n      "s": {s},\n      "t": {t},\n'
                           f'      "classes": {classes}\n    }}')
        body = ",\n    ".join(records)
        bidegrees = f"[\n    {body}\n  ]" if body else "[]"
        column_cap = "null" if self.column_cap is None else self.column_cap
        return (f'{{\n  "r": {self.r},\n  "degree_cap": {self.degree_cap},\n'
                f'  "column_cap": {column_cap},\n  "bidegrees": {bidegrees}\n}}')


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
    # Every E2 class is one monomial; the scratch degrees past the report
    # cap hold d_r targets only, and are never E2's classes.
    return BigradedPage(E2Cells(lattice, loop.degree_cap), 2, loop.degree_cap)


def _value_monomials(page: BigradedPage, spec: DifferentialSpec):
    """The assigned generators' values as (lattice index, target monomials),
    in lattice order."""
    return [
        (i, page.monomials(*page.target(spec.r, g.name), spec.assignments[g.name]))
        for i, g in enumerate(page.lattice.generators)
        if g.name in spec.assignments
    ]


def leibniz(lattice: Algebra, bit, exps: tuple[int, ...], values) -> int:
    """d(monomial) by the Leibniz rule, as a row over the bits `bit` of
    its target cell's monomials; products past the lattice cap die.
    `values` is `_value_monomials` of the spec, which a caller evaluating
    many monomials under one spec computes once."""
    mul_exps = lattice._mul_exps
    acc = 0
    for i, monomials in values:
        if exps[i] % 2 == 0:
            continue
        rest = list(exps)
        rest[i] -= 1
        rest = tuple(rest)
        for v in monomials:
            p = mul_exps(rest, v)
            if p is not None:
                acc ^= 1 << bit[p]
    return acc


def _check_spec(page: BigradedPage, spec: DifferentialSpec):
    """Raise unless every value of `spec` is a row over its generator's
    E2 target cell."""
    for name, row in spec.assignments.items():
        s, t = page.target(spec.r, name)
        width = len(page.lattice_cells.cell(s, t))
        if row >> width:
            raise SpectralSequenceError(
                f"d_{spec.r}({name}) is a row wider than its target cell "
                f"{(s, t)}, which has {width} monomials"
            )


def _check_d_squared(page: BigradedPage, spec: DifferentialSpec, d, values, bit):
    """Raise unless d_r(d_r(g)) = 0 for every generator g that `spec`
    assigns, in ascending target bidegree; `values` is
    `_value_monomials(page, spec)`, and `d` is as in `homology_at`, over
    rows of `bit`, which holds every value's monomials.

    d_r is the derivation of the capped lattice that `spec` determines,
    and in characteristic 2 its square is one too, so this is d_r^2 = 0 on
    every monomial (the module docstring has the argument)."""
    gens = page.lattice.generators
    targets = sorted(
        (page.target(spec.r, gens[i].name), gens[i].name, monomials)
        for i, monomials in values
    )
    for (s, t), name, monomials in targets:
        if d(s, t, sum(1 << bit[m] for m in monomials)):
            raise SpectralSequenceError(
                f"d_{spec.r} does not square to zero on {name}"
            )


def _image_table(lattice: Algebra, cells, bit, values):
    """d_r of a row over `cells` (bit i is a cell's i-th monomial, as
    `bit` says), as `homology_at` takes it, read through a table of d_r of
    each monomial: per cell, a row for each of its monomials, filled by
    `leibniz` on the cell's first use."""
    images: dict[tuple[int, int], list[int]] = {}

    def d(s: int, t: int, vec: int) -> int:
        if not vec:
            return 0
        row = images.get((s, t))
        if row is None:
            row = images[(s, t)] = [
                leibniz(lattice, bit, exps, values) for exps in cells[(s, t)]
            ]
        acc = 0
        while vec:
            low = vec & -vec
            acc ^= row[low.bit_length() - 1]
            vec ^= low
        return acc

    return d


def homology_at(
    cells,
    spec: DifferentialSpec,
    s: int,
    t: int,
    vecs: tuple[int, ...],
    incoming: tuple[int, ...],
    alive: bool,
    d,
) -> tuple[int, ...]:
    """Homology at (s, t) under d_r, with monomial-pivot representatives.

    `vecs` are the classes at (s, t) and `incoming` those of its d_r-source
    bidegree, each a row over its bidegree's cell in `cells`.  d_r of a
    class is `d(s, t, vec)`.  With `alive` false, d_r out of the bidegree
    is zero (it lands past a column cap) and every class is a cycle.

    When no cycle survives, `()` is returned before any boundary is
    computed.  When no class has a nonzero d_r and no boundary lands here,
    `vecs` is returned as it is.  That is what the full path would return:
    `vecs` are reduced representatives sorted by lowest bit (single bits,
    or an earlier output of this function), so no pivot bit of one is set
    in another, and `quotient_basis` with no boundaries returns them as
    they are.

    The representatives `quotient_basis` returns ascend by lowest set bit,
    which is the leading monomial: each is an RREF row, in ascending pivot
    order, and each pivot is its row's lowest set bit (`rref` clears
    every other row's bit in a pivot column, and a pivot row never gains
    a lower bit).
    """
    r = spec.r
    cycles = vecs
    if alive and any(out_rows := [d(s, t, v) for v in vecs]):
        cycles = []
        for c in gf2.left_kernel(out_rows, len(cells[(s + r, t - r + 1)])):
            acc = 0
            for i, v in enumerate(vecs):
                if (c >> i) & 1:
                    acc ^= v
            if acc:
                cycles.append(acc)
        if not cycles:
            return ()
    boundaries = [b for u in incoming if (b := d(s - r, t + r - 1, u))]
    if not boundaries and cycles is vecs:
        return vecs
    reps, _ = gf2.quotient_basis(cycles, boundaries, len(cells[(s, t)]))
    return tuple(reps)


class TruncationTower:
    """The fold of `specs` over `e2`, for every column truncation at once.

    `page(m, j)` is the E-infinity of the column-m truncation of `e2`
    under the first j specs, with each bidegree state computed once and
    shared by every m and every later j; the tests check it against a
    from-scratch fold per truncation (`tests/reference.py`).  Before it
    folds anything, the tower checks that the specs act on successive
    pages (no two share an r) and that each value is a row over its E2
    target cell, for every spec, and then that d_r^2 vanishes on each
    assigned generator, which is d_r^2 = 0 on every page and every
    truncation (the module docstring says why).  So constructing a tower
    computes no state: a state is folded on first read.

    The tower folds the touched factor A over A's own cells (`_cells`,
    scratch degrees included, and each monomial's bit in its cell,
    `_bit`; `E2Cells.factor`), walked over the touched generators alone,
    and reads every state as A's classes times B's monomials
    (`_b_columns`, up to the report cap; the module docstring's Kunneth
    split).  `_base` holds A's classes on E2, unit rows per reported A
    bidegree (`_columns` their t per column), and `_folded` every A state
    the fold computes, keyed (j, s, t, alive), as rows; `_terms` holds the
    same states as terms.  The d^2 check and the A states read d_r of
    each spec through one image table per spec (`_image_table`), so each
    A monomial's image is computed once per spec.

    `last_column` is the last E2 column, the largest exponent sum of a
    lattice monomial under the lattice cap, scratch degrees included: it is
    the one place the last column is computed, as the lattice's
    cup-length, with no cell read.  It counts the scratch cells, not only
    the reported classes, whose last column can be smaller (17 against 18
    for spin9 at cap 52), since a d_r into a scratch cell past the last
    reported column need not vanish.

    `stage(m, j)` lists the nonempty states of the column-m truncation
    after j specs as (s, t, alive), column by column up to m: `alive`,
    read once per column, counts the specs among the first j with
    r <= m - s, or all j for m at or past `last_column` (the module
    docstring says why that is exact), and a column's states are those
    of B's bidegrees times A's nonempty states with that alive count.
    `page(m, j)` is built from that list, and a caller that keys its own
    per-class work by the listed (s, t, alive) does that work once per
    state, not once per stage.  So a stage at or past the last column
    folds no state of its own, and its page holds the untruncated
    classes.  m = None means untruncated, and j defaults to every spec.
    The tower keeps each page it builds, per (m, j).

    `column(j, s, alive)` is one column at one alive count, in one pass
    over A's states in column s - s_b times B's column s_b: per t, the
    leading monomials of `state(j, s, t, alive)`, in page order, read
    off the lowest bit of A's rows with no class's terms built.  Its keys
    are the t that `stage` lists in column s at that alive count, so a
    reader of leading monomials alone (a report's stages) reads a stage
    as its columns and never lists it.

    E-infinity's facts come from A's untruncated classes and B, with no
    page: `e_infinity_dims`, `survives` and `top_filtration`.  A tower
    that inference returns holds the dims it compared as its
    `e_infinity_dims`, so they are counted once.
    """

    def __init__(self, e2: BigradedPage, specs: list[DifferentialSpec]):
        self.e2 = e2
        self.specs = sorted(
            (spec for spec in specs if not spec.is_trivial()), key=lambda d: d.r
        )
        self._pages: dict[tuple[int | None, int], BigradedPage] = {}
        lattice = e2.lattice
        self._rs = [spec.r for spec in self.specs]
        values = []
        for j, spec in enumerate(self.specs):
            # Each spec acts on the page after the previous one's.
            first = self.specs[j - 1].r + 1 if j else e2.r
            if spec.r < first:
                raise SpectralSequenceError(
                    f"d_{spec.r} comes after page {first - 1}: "
                    "cannot move to an earlier page"
                )
            # The row widths first: the values' monomials read them.
            _check_spec(e2, spec)
            values.append(_value_monomials(e2, spec))
        touched = set()
        for spec_values in values:
            for i, monomials in spec_values:
                touched.add(i)
                touched.update(k for exps in monomials for k, e in enumerate(exps) if e)
        n = len(lattice.generators)
        self._mask = tuple([i in touched for i in range(n)])
        untouched = [i for i in range(n) if i not in touched]
        # B's generators, for its Poincare series and cup-length: the
        # lattice itself when no spec touches any.
        self._b = lattice if not touched else Algebra(AlgebraPresentation(
            [lattice.generators[i] for i in untouched], lattice.degree_cap
        ))
        self._untouched = untouched
        self._bound = lattice._max_exp
        self._cells, self._bit, self._base, self._columns = (
            e2.lattice_cells.factor(tuple(sorted(touched)))
        )
        self._folded: dict[tuple[int, int, int, int], tuple[int, ...]] = {}
        self._terms: dict[tuple[int, int, int, int], tuple] = {}
        # Per spec, d_r through its image table over A.  The readers are
        # closures that hold no reference to the tower, so a dropped model
        # is freed by refcount.
        self._d = []
        for spec, vals in zip(self.specs, values):
            self._d.append(_image_table(lattice, self._cells, self._bit, vals))
            _check_d_squared(e2, spec, self._d[-1], vals, self._bit)

    @cached_property
    def last_column(self) -> int:
        """The largest exponent sum of a lattice monomial."""
        return self.e2.lattice.cup_length()

    @cached_property
    def _b_columns(self) -> dict[int, list[tuple[int, tuple[tuple[int, ...], ...]]]]:
        """B's monomials up to the report cap, per column, ascending: each
        column's (t, monomials) in t order."""
        out: dict[int, list] = {}
        walk = self.e2.lattice.walk(self._untouched, self.e2.degree_cap)
        for (s, t), bs in _cells(walk).items():
            out.setdefault(s, []).append((t, bs))
        return out

    def _fold(self, j: int, s: int, t: int, alive: int) -> tuple[int, ...]:
        """A's state (j, s, t, alive), as rows over A's cell at (s, t)."""
        if j == 0:
            return self._base.get((s, t), ())
        key = (j, s, t, alive)
        here = self._folded.get(key)
        if here is None:
            spec = self.specs[j - 1]
            r = spec.r
            here = self._fold(j - 1, s, t, min(alive, j - 1))
            if here:
                # Every earlier d out of column s - r lands below s <= m.
                incoming = self._fold(j - 1, s - r, t + r - 1, j - 1)
                here = homology_at(
                    self._cells, spec, s, t, here, incoming, alive == j, self._d[j - 1]
                )
            self._folded[key] = here
        return here

    def _classes(self, j: int, s: int, t: int, alive: int) -> tuple:
        """A's state (j, s, t, alive) as terms."""
        key = (j, s, t, alive)
        out = self._terms.get(key)
        if out is None:
            cell = self._cells.get((s, t))
            out = []
            for vec in self._fold(j, s, t, alive):
                terms = []
                while vec:
                    low = vec & -vec
                    terms.append(cell[low.bit_length() - 1])
                    vec ^= low
                out.append(tuple(terms))
            out = self._terms[key] = tuple(out)
        return out

    def state(self, j: int, s: int, t: int, alive: int) -> tuple:
        """The classes at (s, t) after folding the first j specs, of which
        the first `alive` (a prefix, as r ascends) act out of column s:
        A's classes times each b of B, ascending by leading monomial."""
        out = []
        for sb, column in self._b_columns.items():
            if sb > s:
                break
            for tb, bs in column:
                if (s - sb, t - tb) not in self._base:
                    continue
                classes = self._classes(j, s - sb, t - tb, alive)
                for b in bs:
                    out += [
                        tuple([tuple(map(add, m, b)) for m in cls]) for cls in classes
                    ]
        out.sort()
        return tuple(out)

    def column(self, j: int, s: int, alive: int) -> dict[int, list[tuple[int, ...]]]:
        """The leading monomials of each nonempty state (j, s, t, alive) of
        column s, per t ascending with s + t under the report cap, in page
        order: one pass over A's states in column s - s_b times B's column
        s_b, reading each A class's lowest bit, with no class's terms
        built."""
        cap = self.e2.degree_cap
        out: dict[int, list] = {}
        for sb, column in self._b_columns.items():
            if sb > s:
                break
            for ta in self._columns.get(s - sb, ()):
                fold = self._fold(j, s - sb, ta, alive)
                if not fold:
                    continue
                cell = self._cells[(s - sb, ta)]
                leads = [cell[(v & -v).bit_length() - 1] for v in fold]
                for tb, bs in column:
                    if s + ta + tb > cap:
                        break
                    out.setdefault(ta + tb, []).extend(
                        [tuple(map(add, a, b)) for a in leads for b in bs]
                    )
        return {t: sorted(out[t]) for t in sorted(out)}

    def monomials_in(self, degrees):
        """(bidegree, monomial) of every E2 monomial whose total degree is
        in `degrees`, each at most the report cap: A's monomials times
        B's, so B is walked only when some degree is asked for."""
        if not degrees:
            return
        for sb, column in self._b_columns.items():
            for tb, bs in column:
                for sa, ta in self._base:
                    if sa + ta + sb + tb in degrees:
                        for a in self._cells[(sa, ta)]:
                            for b in bs:
                                yield (sa + sb, ta + tb), tuple(map(add, a, b))

    def alive(self, s: int, m: int | None, j: int | None = None) -> int:
        """How many of the first j specs act out of column s in the
        column-m truncation: those with s + r <= m, a prefix as r ascends;
        every one of them at or past the last E2 column."""
        j = len(self.specs) if j is None else j
        if m is None or m >= self.last_column:
            return j
        return bisect.bisect_right(self._rs, m - s, 0, j)

    def stage(
        self, m: int | None = None, j: int | None = None
    ) -> list[tuple[int, int, int]]:
        """The nonempty states (s, t, alive) of the column-m truncation
        after j specs, in (s, t) order: `page(m, j)` holds
        `state(j, s, t, alive)` at each listed (s, t)."""
        j = len(self.specs) if j is None else j
        top = self.last_column if m is None else min(m, self.last_column)
        cap = self.e2.degree_cap
        out = []
        for s in range(top + 1):
            alive = self.alive(s, m, j)
            ts = set()
            for sb, column in self._b_columns.items():
                if sb > s:
                    break
                for ta in self._columns.get(s - sb, ()):
                    if self._fold(j, s - sb, ta, alive):
                        ts.update([ta + tb for tb, _ in column if s + ta + tb <= cap])
            out += [(s, t, alive) for t in sorted(ts)]
        return out

    def page(self, m: int | None = None, j: int | None = None) -> BigradedPage:
        """The column-m truncation after the first j specs; built once
        per (m, j)."""
        if m is not None and m < 0:
            raise SpectralSequenceError("column cap must be >= 0")
        j = len(self.specs) if j is None else j
        page = self._pages.get((m, j))
        if page is None:
            basis = {
                (s, t): self.state(j, s, t, alive)
                for s, t, alive in self.stage(m, j)
            }
            r = self.specs[j - 1].r + 1 if j else self.e2.r
            page = self._pages[(m, j)] = self.e2._derived(r=r, basis=basis, column_cap=m)
        return page

    # -- E-infinity, from A's untruncated classes and B -----------------------

    @cached_property
    def e_infinity_dims(self) -> list[int]:
        """E-infinity's class count per total degree, 0..the report cap
        (set by inference on the towers it returns).  With no spec A is
        {1}, and they are B's: E2's own."""
        if not self.specs:
            return self.e2.dims_by_total_degree()
        return list(self._dims())

    def _dims(self):
        """E-infinity's class count in each total degree d = 0..the report
        cap, ascending: A's untruncated count convolved with B's Poincare
        series, A's count in degree d adding B's series, shifted by d, to
        every degree from d on.  Degree d reads A's states of degree d and
        below alone, so a reader that stops early folds no higher state."""
        j = len(self.specs)
        cap = self.e2.degree_cap
        b = self._b.poincare_series()
        keys: dict[int, list[tuple[int, int]]] = {}
        for s, t in self._base:
            keys.setdefault(s + t, []).append((s, t))
        dims = [0] * (cap + 1)
        done = 0
        for d in sorted(keys):
            yield from dims[done:d]  # final: no A bidegree lies below d
            n = sum(len(self._fold(j, s, t, j)) for s, t in keys[d])
            if n:
                dims[d:] = [x + n * y for x, y in zip(dims[d:], b)]
            done = d
        yield from dims[done:]

    @cached_property
    def _leads(self) -> dict[tuple[int, ...], tuple[int, int]]:
        """The leading monomial of each of A's untruncated classes, with
        its bidegree."""
        j = len(self.specs)
        return {
            cls[0]: key for key in self._base for cls in self._classes(j, *key, j)
        }

    def survives(self, exps: tuple[int, ...]) -> bool:
        """Whether the lattice monomial `exps`, under the report cap, leads
        an E-infinity class: its touched part leads one of A's untruncated
        classes, and its exponents are within the lattice's bounds, so
        that its untouched part is a monomial of B (with no spec A is
        {1}, and the bounds alone decide)."""
        return all(map(le, exps, self._bound)) and (
            not self.specs or tuple(map(mul, exps, self._mask)) in self._leads
        )

    def top_filtration(self) -> int:
        """The largest s with E-infinity^{s,t} nonzero under the report
        cap: over A's untruncated bidegrees, s_a + the cup-length of B
        under the degree left (with no spec A is {1}: B's, the lattice's,
        cup-length under the cap)."""
        cap = self.e2.degree_cap
        if not self.specs:
            return self._b.cup_length(cap)
        return max(
            (s + self._b.cup_length(cap - s - t) for s, t in set(self._leads.values())),
            default=0,
        )


def candidate_widths(
    e2: BigradedPage, permanent: list[str]
) -> tuple[list[Generator], dict[int, list[int]]]:
    """The unknowns, the generators not listed as permanent cycles, and per
    page r each unknown's d_r target cell width: its d_r candidates are the
    rows of that width.  A page r where every width is 0 has only the zero
    assignment, and is left out, so the least key is the first page where
    a differential can act: every earlier page is E2.  An unknown x1_t
    lands in total degree t + 2 at every r, so its target cells are read
    from one walk up to that degree (`E2Cells.cell`).

    The scan stops at the degree cap, past which every target cell is
    empty: d_r of x1_t lands in filtration r + 1 and total degree t + 2,
    and every lattice generator has degree >= 2, so a nonempty target
    needs 2(r + 1) <= t + 2 <= cap + DEFAULT_SCRATCH, and then r <= cap.
    A permanent cycle that is not an E2 generator raises.
    """
    known = set(permanent)
    for name in permanent:
        if name not in e2.lattice._index:
            raise SpectralSequenceError(f"unknown permanent cycle {name!r}")
    unknowns = [g for g in e2.lattice.generators if g.name not in known]
    cell = e2.lattice_cells.cell
    widths = {}
    for r in range(2, e2.degree_cap + 1):
        w = [len(cell(1 + r, g.degree - r)) for g in unknowns]
        if any(w):
            widths[r] = w
    return unknowns, widths


def infer_differentials(
    e2: BigradedPage,
    candidates: tuple[list[Generator], dict[int, list[int]]],
    target: Algebra,
) -> list[TruncationTower]:
    """Exhaustive search for the differentials forced by the abutment.

    `candidates` is `candidate_widths` of `e2` and the permanent cycles:
    the unknowns, exactly the generators not listed as permanent cycles,
    and their target cell widths per page.  For each page index r and each
    assignment of a target-bidegree value (possibly zero) to every
    unknown, keep the assignments whose E-infinity matches the target
    algebra's dimensions in every total degree up to the cap
    (`TruncationTower.e_infinity_dims`, read off the touched factor with
    no E2-wide page, in ascending degree, so that a candidate is dropped
    at the first degree that differs, with no higher state folded).  Each
    kept assignment is returned as its checked fold, a `TruncationTower`
    whose `specs` are its differentials, holding the dims it matched as
    its `e_infinity_dims`; the zero assignment is the tower with no spec.
    A one-element result certifies the deduction.

    The search space is every assignment, the zero one included, at
    every r where some unknown has a nonzero candidate: the sum over those
    r of the product over unknowns of 2^(target cell width).  The search
    counts it before it builds any tower and raises past `SEARCH_BUDGET`.
    """
    unknowns, widths = candidates
    # The target's dimensions in degrees 0..cap, zero past its own cap.
    want = target.poincare_series()[: e2.degree_cap + 1]
    want += [0] * (e2.degree_cap + 1 - len(want))
    size = sum(1 << sum(w) for w in widths.values())
    if size > SEARCH_BUDGET:
        raise InferenceError(
            f"search budget exceeded: {size} assignments of d_r to "
            f"{', '.join(g.name for g in unknowns)}, more than {SEARCH_BUDGET}"
        )

    results = []
    if e2.dims_by_total_degree() == want:
        results.append(TruncationTower(e2, []))
    for r, w in widths.items():
        for combo in itertools.product(*(range(1 << n) for n in w)):
            if not any(combo):
                continue
            spec = DifferentialSpec(
                r, {g.name: v for g, v in zip(unknowns, combo)}
            )
            try:
                tower = TruncationTower(e2, [spec])
            except SpectralSequenceError:
                continue  # d^2 != 0 or bad bidegree: not a differential
            # In ascending degree, up to the first that differs.
            if all(map(eq, tower._dims(), want)):
                results.append(tower)
    if not results:
        raise InferenceError("no consistent assignment: fixture/target mismatch")
    for tower in results:
        tower.e_infinity_dims = list(want)  # the dims compared, kept
    return results
