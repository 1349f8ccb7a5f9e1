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
At or past the last E2 column (the last column of E2's cells, scratch
degrees included), a d_r out of column s with s + r > m lands past that
column, where E2 has no monomial, so it is zero and the state with it
alive is the same state: there the tower counts every differential
alive, and the stage reads the untruncated states.

The tower checks each spec once, on the E2 lattice, before it folds
anything (`_check_spec`, `_check_d_squared`).  A spec determines a
derivation D of the capped lattice by the Leibniz rule: the capped
lattice is the quotient by the degrees past its cap, an ideal that D
(of total degree +1) preserves.  In characteristic 2, D^2 is again a
derivation, since D^2(ab) = D^2(a) b + 2 D(a) D(b) + a D^2(b).  So D^2
vanishes on every monomial exactly when it vanishes on every generator,
and only the assigned generators can fail: the tower checks D(D(g)) = 0
for each of them.  Every page's d_r is D on the page's classes, so d_r^2
= 0 on every page.  That includes every truncation: d_r on the column-m
truncation is D followed by dropping the columns past m.  Since D raises
the column by exactly r, that square is D^2 on a class whose image lands
at or before m, and zero on the others.

So the tower evaluates the Leibniz rule once per spec and E2 monomial:
it keeps, per spec, the image of each E2 cell's monomials (an int over
the target cell), filled on the cell's first use, and its d^2 check and
every state read d_r through that table.  The table reads each assigned
generator's value as target monomials once per spec.  It is keyed on the
tower's own uncapped E2 and held by the tower alone.  The tests keep an
independent path to the same pages (`tests/reference.py`), which folds
each truncation from scratch and evaluates the Leibniz rule directly.  A
state where no class has a nonzero d_r and no boundary lands keeps its
classes as they are (`homology_at` says why that is exact).

The tower folds only the factor the specs touch (a Kunneth split).  A
generator is touched when some spec assigns it a value or it occurs in
some value's monomials; A is the sub-lattice on the touched generators,
and B is the monomials in the others.  When some spec is nontrivial and
some generator is untouched, the tower folds the specs over A alone, as
a sub-basis of E2's own cells (A's monomials are the E2 monomials whose
untouched exponents are all 0), and assembles every state (j, s, t,
alive) with j >= 1 as the union over b in B of the A state (j, s - s_b,
t - t_b, alive) times b.  That is exact:

- The fold over the sub-basis is A's own fold.  D(A) lies in A, so d_r
  of an A class sets only A bits of its E2 target cell.  `homology_at`'s
  kernel is taken over coefficients, and RREF with lowest-bit pivots
  ignores columns that are zero in every row.  An A monomial's untouched
  exponents are 0, so A's monomials keep their order in A's own cell
  inside every E2 cell.  So the fold over the sub-basis is A's own fold,
  bit for bit under that order-preserving embedding, and the b = 1 block
  maps by the identity.
- D(b) = 0 for an untouched monomial b, and D(A) lies in A.  By the
  Leibniz rule D(a b) = D(a) b, so each block A b is a subcomplex, and
  each bidegree of E2 is the direct sum of its blocks.
- No reported state reads past the lattice cap: d_r out of degree
  <= cap lands in degree <= cap + 1 < cap + `DEFAULT_SCRATCH`.  So in
  reported degrees the capped lattice is A (x) B, and D(a) b loses no
  term to the cap.
- `alive` counts the specs alive out of the full column s = s_a + s_b,
  the same for every block of the state, and A's state takes it
  unchanged.  The incoming state is full-alive on both sides.
- Multiplying by b keeps the ascending order of A's cell inside the full
  cell (the exponents of b agree, so two products first differ where
  their A monomials do), and different blocks have disjoint supports.
  `homology_at`'s representatives are the RREF rows of cycles plus
  boundaries whose lowest-bit pivots are not boundary pivots, so they
  depend on those two spans alone, and the RREF of a direct sum over
  disjoint supports is the union of its summands' RREFs.  So a full
  state's canonical representatives (RREF, lowest-bit pivots, sorted by
  lowest bit) are the union of its blocks' representatives, and every
  state is byte-identical to the unsplit fold's.

The order check, the width check and the d^2 check run once per spec,
on E2, before anything folds, and the fold reads d_r through the same
image tables; the last E2 column is still read over the full cells.  So
the fold's cost follows A, not the untouched factors: on spin9,
F2[x1_2] (x) Lambda(x1_4, x1_6, x1_10, x1_14) with d_3(x1_10) = x1_2^4,
A is F2[x1_2] (x) Lambda(x1_10), and each homology computed over A
serves every monomial of Lambda(x1_4, x1_6, x1_14).

The E2 lattice is an `Algebra`: x1_t has total degree 1 + t, and a
lattice monomial is its exponent tuple, in filtration s = its exponent
sum.  The lattice algebra's cap is the report cap + `DEFAULT_SCRATCH`.
E2's cells cover every lattice degree up to it, but its classes
(`basis`) stop at the report cap.  So the scratch degrees past the cap
are cells, the targets of d_r out of the top reported degrees, which the
d^2 check reads too, and never classes or states: every page and state
holds reported degrees only.  No reported state reads a scratch one.
The state at (s, t) after j specs reads only the state at (s, t) after
j - 1 specs and the incoming one at (s - r, t + r - 1), both at or below
total degree s + t; and d_r out of (s, t) is read through the image
table into the E2 cell at (s + r, t - r + 1), which stays.

A class at (s, t) is an int over `cells[(s, t)]`, the ascending E2
monomials of that bidegree (bit i is the i-th), which is gf2's row
format: homology passes classes and boundaries to gf2 unchanged, and a
representative's lowest set bit is its leading monomial.  A value of d_r
on a generator is such a row over the cell d_r lands in
(`BigradedPage.target`).

E2 builds only what is read of it (`E2Cells`).  Its cells, each
monomial's bit and its shape (the nonempty bidegrees and cell widths)
come from one walk over the lattice, on the first read of any of them;
its classes (the unit rows of each width) are made on first read, and
its `dims_by_total_degree` is the lattice's Poincare series.  The last
E2 column is the lattice's cup-length.  So a report on a space whose
generators are all permanent cycles (every SU(n)) walks no cell.

A page prints as JSON text (`BigradedPage.json_text`, what `dump-page`
writes): the text `json.dumps(..., indent=2)` gives for r, the degree
and column caps and one record of s, t and class labels per bidegree,
written straight from the basis, with no dict per bidegree in between.
A class of one monomial (every class of E2) is labelled straight from
its cell; a sum goes through `class_str`.
"""

from __future__ import annotations

import bisect
import copy
import itertools
from collections.abc import Mapping
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import add

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
    """d_r on generators: each value is a row over the cell of its
    generator's d_r target (`BigradedPage.target`); zero rows are dropped."""

    __slots__ = ("r", "assignments")

    def __init__(self, r: int, assignments: dict[str, int] | None = None):
        self.r = r
        self.assignments = {k: v for k, v in (assignments or {}).items() if v}

    def is_trivial(self) -> bool:
        return not self.assignments


class E2Cells(Mapping):
    """E2's cells and classes over the lattice `algebra`, shared by every
    page over one E2 and each built on its first read: each bidegree's
    ascending monomials up to the lattice cap (`cells`) and each
    monomial's bit in its cell (`bit`), from one walk (`walked`).  As a
    mapping it is E2's basis: each nonempty bidegree up to `degree_cap`
    maps to its cell's unit rows (1, 2, 4, ...), all made on the first
    read of any."""

    def __init__(self, algebra: Algebra, degree_cap: int):
        self.algebra = algebra
        self.degree_cap = degree_cap

    @cached_property
    def walked(self):
        """`(cells, bit)`."""
        return _walk_cells(self.algebra)

    @property
    def cells(self) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
        return self.walked[0]

    @property
    def bit(self) -> dict[tuple[int, ...], int]:
        return self.walked[1]

    @cached_property
    def reported(self) -> dict[tuple[int, int], int]:
        """Each nonempty cell's width, up to `degree_cap`."""
        cap = self.degree_cap
        return {k: len(c) for k, c in self.cells.items() if sum(k) <= cap}

    @cached_property
    def rows(self) -> dict[tuple[int, int], tuple[int, ...]]:
        # One tuple of units, which every bidegree's rows slice.
        units = tuple(1 << i for i in range(max(self.reported.values(), default=0)))
        return {key: units[:w] for key, w in self.reported.items()}

    def get(self, key, default=None):
        return self.rows.get(key, default)

    def __getitem__(self, key):
        return self.rows[key]

    def __iter__(self):
        return iter(self.reported)

    def __len__(self):
        return len(self.reported)

    def __contains__(self, key):
        return key in self.reported


class BigradedPage:
    """One page of the spectral sequence: per-(s,t) class representatives.

    Each class is an F2 sum of `lattice` monomials, held as an int over
    its bidegree's cell.  At E2 every class is a single monomial; later
    pages keep monomial-pivot representatives.  Every page derived from
    one E2 reads that E2's `E2Cells`: `cells` and `_bit`.
    """

    def __init__(
        self,
        cells: E2Cells,
        r: int,
        basis: Mapping[tuple[int, int], tuple[int, ...]],
        degree_cap: int,
    ):
        self.lattice = cells.algebra
        self.lattice_cells = cells
        self.r = r
        self.basis = basis
        self.degree_cap = degree_cap
        self.column_cap: int | None = None

    # Kept on the page once read, and carried by the pages derived later:
    # `leading`, `leibniz` and `homology_at` read them once per class.

    @cached_property
    def cells(self) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
        """Each E2 bidegree's monomials, ascending."""
        return self.lattice_cells.cells

    @cached_property
    def _bit(self) -> dict[tuple[int, ...], int]:
        """Each lattice monomial's bit in its cell."""
        return self.lattice_cells.bit

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

    def monomials(self, s: int, t: int, vec: int) -> list[tuple[int, ...]]:
        """The monomials of the class `vec` at (s, t), ascending."""
        cell = self.cells.get((s, t), ())
        out = []
        while vec:
            low = vec & -vec
            out.append(cell[low.bit_length() - 1])
            vec ^= low
        return out

    def class_str(self, s: int, t: int, vec: int) -> str:
        if not vec:
            return "0"
        return " + ".join(map(self.lattice.monomial_str, self.monomials(s, t, vec)))

    # -- views -------------------------------------------------------------

    def leading(self, s: int, t: int, vec: int) -> tuple[int, ...]:
        return self.cells[(s, t)][(vec & -vec).bit_length() - 1]

    def dims_by_total_degree(self) -> list[int]:
        """Class count per total degree, 0..degree_cap.  E2 has one class
        per lattice monomial: its counts are the lattice's Poincare series,
        read without a cell or a row."""
        if self.basis is self.lattice_cells:
            return self.lattice.poincare_series()[: self.degree_cap + 1]
        dims = [0] * (self.degree_cap + 1)
        for (s, t), vecs in self.basis.items():
            dims[s + t] += len(vecs)
        return dims

    def classes(self):
        """Iterate (s, t, vec) deterministically."""
        for (s, t) in sorted(self.basis):
            for vec in self.basis[(s, t)]:
                yield s, t, vec

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
        label = self.lattice.monomial_str
        records = []
        for s, t in sorted(self.basis):
            cell = self.cells.get((s, t), ())
            names = ",\n        ".join([
                encode_basestring_ascii(
                    label(cell[v.bit_length() - 1]) if v and not v & (v - 1)
                    else self.class_str(s, t, v)
                )
                for v in self.basis[(s, t)]
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
    # Every E2 class is one monomial: one bit of its cell.  The scratch
    # degrees past the report cap are cells only.
    cells = E2Cells(lattice, loop.degree_cap)
    return BigradedPage(cells, 2, cells, loop.degree_cap)


def _walk_cells(lattice: Algebra):
    """(cells, bit): each bidegree's lattice monomials, ascending, in (s,
    t) order, and each monomial's bit in its cell, from one walk."""
    cells: dict[tuple[int, int], list] = {}
    bit = {}
    for exps, degree in lattice.walk():
        s = sum(exps)
        cell = cells.setdefault((s, degree - s), [])
        bit[exps] = len(cell)
        cell.append(exps)
    return {key: tuple(cells[key]) for key in sorted(cells)}, bit


def _value_monomials(page: BigradedPage, spec: DifferentialSpec):
    """The assigned generators' values as (lattice index, target monomials),
    in lattice order."""
    return [
        (i, page.monomials(*page.target(spec.r, g.name), spec.assignments[g.name]))
        for i, g in enumerate(page.lattice.generators)
        if g.name in spec.assignments
    ]


def leibniz(
    page: BigradedPage, spec: DifferentialSpec, exps: tuple[int, ...], values
) -> int:
    """d(monomial) by the Leibniz rule, as an int over its target cell;
    products past the lattice cap die.  `values` is
    `_value_monomials(page, spec)`, which a caller evaluating many
    monomials under one spec computes once."""
    mul = page.lattice._mul_exps
    bit = page._bit
    acc = 0
    for i, monomials in values:
        if exps[i] % 2 == 0:
            continue
        rest = list(exps)
        rest[i] -= 1
        rest = tuple(rest)
        for v in monomials:
            p = mul(rest, v)
            if p is not None:
                acc ^= 1 << bit[p]
    return acc


def _check_spec(page: BigradedPage, spec: DifferentialSpec):
    """Raise unless every value of `spec` is a row over its generator's
    target cell on `page`."""
    for name, row in spec.assignments.items():
        s, t = page.target(spec.r, name)
        width = len(page.cells.get((s, t), ()))
        if row >> width:
            raise SpectralSequenceError(
                f"d_{spec.r}({name}) is a row wider than its target cell "
                f"{(s, t)}, which has {width} monomials"
            )


def _check_d_squared(page: BigradedPage, spec: DifferentialSpec, d):
    """Raise unless d_r(d_r(g)) = 0 for every generator g that `spec`
    assigns, in ascending degree; `d` is as in `homology_at`, over the
    lattice of `page`, and the values must have passed `_check_spec`.

    d_r is the derivation of the capped lattice that `spec` determines,
    and in characteristic 2 its square is one too, so this is d_r^2 = 0 on
    every monomial (the module docstring has the argument)."""
    targets = sorted((page.target(spec.r, name), name) for name in spec.assignments)
    for (s, t), name in targets:
        if d(s, t, spec.assignments[name]):
            raise SpectralSequenceError(
                f"d_{spec.r} does not square to zero on {name}"
            )


def _image_table(e2: BigradedPage, spec: DifferentialSpec):
    """d_r of a class, as `homology_at` takes it, read through a table of
    d_r of each E2 monomial: per cell, an int over the target cell for each
    of the cell's monomials, filled by `leibniz` on the cell's first use."""
    images: dict[tuple[int, int], list[int]] = {}
    values = _value_monomials(e2, spec)

    def d(s: int, t: int, vec: int) -> int:
        if not vec:
            return 0
        row = images.get((s, t))
        if row is None:
            row = images[(s, t)] = [
                leibniz(e2, spec, exps, values) for exps in e2.cells[(s, t)]
            ]
        acc = 0
        while vec:
            low = vec & -vec
            acc ^= row[low.bit_length() - 1]
            vec ^= low
        return acc

    return d


def homology_at(
    page: BigradedPage,
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
    bidegree, each an int over its cell; `page` supplies the cells.  d_r of
    a class is `d(s, t, vec)`.  With `alive` false, d_r out of the
    bidegree is zero (it lands past a column cap) and every class is a
    cycle.

    When no cycle survives, `()` is returned before any boundary is
    computed.  When no class has a nonzero d_r and no boundary lands here,
    `vecs` is returned as it is.  That is what the full path would return:
    `vecs` are reduced representatives sorted by lowest bit (single E2 bits, or
    an earlier output of this function), so no pivot bit of one is set in
    another, and `quotient_basis` with no boundaries returns them as they
    are.

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
        for c in gf2.left_kernel(out_rows, len(page.cells[(s + r, t - r + 1)])):
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
    reps, _ = gf2.quotient_basis(cycles, boundaries, len(page.cells[(s, t)]))
    return tuple(reps)


class TruncationTower:
    """The fold of `specs` over `e2`, for every column truncation at once.

    `page(m, j)` is the E-infinity of the column-m truncation of `e2`
    under the first j specs, with each bidegree state computed once and
    shared by every m and every later j; the tests check it against a
    from-scratch fold per truncation (`tests/reference.py`).  Before it
    folds anything, the tower checks that the specs act on successive
    pages (no two share an r), that each value is a row over its target
    cell, and that d_r^2 vanishes on each assigned generator, which is
    d_r^2 = 0 on every page and every truncation (the module docstring
    says why).  So constructing a tower computes no state: a state is
    folded on first read.  The d^2 check and the states read d_r of each
    spec through one image table per spec (`_image_table`), so each E2
    monomial's image is computed once per spec.

    `last_column` is the last E2 column, the largest column of E2's
    cells, scratch degrees included: it is the one place the last column
    is computed, as the lattice's cup-length (the largest exponent sum
    under the lattice cap), with no cell read.  It counts the scratch
    cells, not only the reported classes, whose last column can be
    smaller (17 against 18 for spin9 at cap 52), since a d_r into a
    scratch cell past the last reported column need not vanish.

    `stage(m, j)` lists the nonempty states of the column-m truncation
    after j specs as (s, t, alive), scanning the column-sorted E2
    bidegrees (sorted on the first listing) up to column m; `alive`,
    read once per column, counts the specs among the first j with
    r <= m - s, or all j for m at or past `last_column` (the module
    docstring says why that is exact).  `page(m, j)` is built from that
    list, and a caller that keys its own per-class work by the listed
    (s, t, alive) does that work once per state, not once per stage.  So
    a stage at or past the last column folds no state of its own, and its
    page holds the untruncated classes.  m = None means untruncated, and j
    defaults to every spec.  The tower keeps each page it builds, per
    (m, j): the inference's dimension check and the model's E-infinity
    read the same untruncated page, as do that check and `page_at` for a
    page past the last differential.

    `_states` holds every state read, keyed (j, s, t, alive), and
    `_folded` every state the fold computes, over the fold's E2 classes
    `_base`.  When no spec acts or every generator is touched, `_base` is
    E2's basis, `_folded` is `_states` and `_blocks` is None: the tower
    folds E2 itself.  Otherwise (the module docstring's Kunneth split)
    `_base` holds the classes of the touched factor A, per E2 bidegree,
    and `_folded` A's states; each state in `_states` with j >= 1 is
    assembled from them.  `_blocks` maps each E2 bidegree to its blocks
    (A bidegree, b) and is built with the tower; each block's bit map,
    keyed by A's unit bits, is built on the first nonempty A state the
    block carries.
    """

    def __init__(self, e2: BigradedPage, specs: list[DifferentialSpec]):
        self.e2 = e2
        self.specs = sorted(
            (spec for spec in specs if not spec.is_trivial()), key=lambda d: d.r
        )
        self._states: dict[tuple[int, int, int, int], tuple[int, ...]] = {}
        self._pages: dict[tuple[int | None, int], BigradedPage] = {}
        self._keys: list[tuple[int, int]] | None = None
        # The largest exponent sum of a lattice monomial.
        self.last_column = e2.lattice.cup_length()
        self._rs = [spec.r for spec in self.specs]
        # Per spec, d_r through its image table over E2.  The readers are
        # closures that hold no reference to the tower, so a dropped model
        # is freed by refcount.
        self._d = []
        for j, spec in enumerate(self.specs):
            # Each spec acts on the page after the previous one's.
            first = self.specs[j - 1].r + 1 if j else e2.r
            if spec.r < first:
                raise SpectralSequenceError(
                    f"d_{spec.r} comes after page {first - 1}: "
                    "cannot move to an earlier page"
                )
            # The row widths first: the table reads the values' monomials.
            _check_spec(e2, spec)
            self._d.append(_image_table(e2, spec))
            _check_d_squared(e2, spec, self._d[j])
        touched = set()
        for spec in self.specs:
            for i, monomials in _value_monomials(e2, spec):
                touched.add(i)
                touched.update(k for exps in monomials for k, e in enumerate(exps) if e)
        self._base = e2.basis
        self._blocks = None
        self._folded = self._states
        if self.specs and len(touched) < len(e2.lattice.generators):
            self._split(sorted(touched))

    def _split(self, kept: list[int]):
        """Fold over the E2 monomials in the generators `kept` alone, the
        sub-basis A, and list each E2 bidegree's blocks (A bidegree, b), b
        an E2 monomial in the other generators."""
        e2 = self.e2
        lattice, cap, bit = e2.lattice, e2.degree_cap, e2._bit
        other = [i for i in range(len(lattice.generators)) if i not in kept]
        # A's and B's monomials up to the report cap, walked over their own
        # generators, with their bits in E2's cells: an A monomial's
        # exponents past `kept` are 0, so A keeps its own ascending order
        # inside each E2 cell.
        base: dict[tuple[int, int], list[int]] = {}
        for a, degree in lattice.walk(kept, cap):
            s = sum(a)
            base.setdefault((s, degree - s), []).append(1 << bit[a])
        self._base = {key: tuple(units) for key, units in base.items()}
        self._folded = {}
        # Ascending degree, so each A bidegree's blocks are a prefix.
        bs = sorted((degree, sum(b), b) for b, degree in lattice.walk(other, cap))
        self._blocks: dict[tuple[int, int], list] = {}
        for sa, ta in self._base:
            room = e2.degree_cap - sa - ta
            for degree, sb, b in bs:
                if degree > room:
                    break
                key = (sa + sb, ta + degree - sb)
                self._blocks.setdefault(key, []).append(((sa, ta), b))
        # Per block, the E2 bit of a b for each A unit bit a of its A
        # bidegree, built on the first nonempty A state the block carries.
        self._bits: dict[tuple, dict[int, int]] = {}

    def _assembled(self, j: int, s: int, t: int, alive: int) -> tuple[int, ...]:
        """The state (j, s, t, alive) as the union of its blocks' A states,
        each multiplied by its b, sorted by lowest bit."""
        out = []
        parts = 0
        for block in self._blocks.get((s, t), ()):
            vecs = self._fold(j, *block[0], alive)
            if not vecs:
                continue
            bits = self._bits.get(block)
            if bits is None:
                # The supports are disjoint: a b is the sum a + b.
                (sa, ta), b = block
                cell, bit = self.e2.cells[(sa, ta)], self.e2._bit
                bits = self._bits[block] = {
                    u: 1 << bit[tuple(map(add, cell[u.bit_length() - 1], b))]
                    for u in self._base[(sa, ta)]
                }
            for vec in vecs:
                acc = 0
                while vec:
                    low = vec & -vec
                    acc |= bits[low]
                    vec ^= low
                out.append(acc)
            parts += 1
        # Multiplying by b keeps a block's order: one block is sorted.
        if parts > 1:
            out.sort(key=lambda v: v & -v)
        return tuple(out)

    def _fold(self, j: int, s: int, t: int, alive: int) -> tuple[int, ...]:
        """The fold's state (j, s, t, alive) over `_base`."""
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
                    self.e2, spec, s, t, here, incoming, alive == j, self._d[j - 1]
                )
            self._folded[key] = here
        return here

    def state(self, j: int, s: int, t: int, alive: int) -> tuple[int, ...]:
        """Basis at (s, t) after folding the first j specs, of which the
        first `alive` (a prefix, as r ascends) act out of column s."""
        if j == 0:
            return self.e2.basis.get((s, t), ())
        if self._blocks is None:
            return self._fold(j, s, t, alive)
        key = (j, s, t, alive)
        here = self._states.get(key)
        if here is None:
            here = self._states[key] = self._assembled(j, s, t, alive)
        return here

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
        if self._keys is None:
            # Column-sorted bidegrees: a stage's are a prefix.
            self._keys = sorted(self.e2.basis)
            self._columns = [s for s, _ in self._keys]
        end = len(self._keys) if m is None else bisect.bisect_right(self._columns, m)
        out = []
        column = None
        for s, t in self._keys[:end]:
            if s != column:
                column, alive = s, self.alive(s, m, j)
            if self.state(j, s, t, alive):
                out.append((s, t, alive))
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


def candidate_widths(
    e2: BigradedPage, permanent: list[str]
) -> tuple[list[Generator], dict[int, list[int]]]:
    """The unknowns, the generators not listed as permanent cycles, and per
    page r each unknown's d_r target cell width: its d_r candidates are the
    rows of that width.  A page r where every width is 0 has only the zero
    assignment, and is left out, so the least key is the first page where
    a differential can act: every earlier page is E2.

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
    widths = {}
    for r in range(2, e2.degree_cap + 1):
        w = [len(e2.cells.get(e2.target(r, g.name), ())) for g in unknowns]
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
    algebra's dimensions in every total degree up to the cap.  Each kept
    assignment is returned as its checked fold, a `TruncationTower` whose
    `specs` are its differentials and whose `page()` is its E-infinity;
    the zero assignment is the tower with no spec.  A one-element result
    certifies the deduction.

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
            if tower.page().dims_by_total_degree() == want:
                results.append(tower)
    if not results:
        raise InferenceError("no consistent assignment: fixture/target mismatch")
    return results
