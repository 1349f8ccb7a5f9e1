"""Arithmetic ledger for category bounds and the certified bracket.

Quantities tracked per space: cat (L-S category), Cat (strong category /
cone length), cuplen, wgt, Mwgt.  Lower entries for cuplen/wgt/Mwgt
propagate to cat lower bounds (cuplen <= wgt <= Mwgt <= cat); a Cat upper
entry gives a cat upper bound (cat <= Cat).
"""

from __future__ import annotations

QUANTITIES = ("cat", "Cat", "cuplen", "wgt", "Mwgt")
KINDS = ("lower", "upper", "exact")


class LedgerError(ValueError):
    pass


class InconsistentLedger(LedgerError):
    def __init__(self, lower_entry, upper_entry):
        self.lower_entry = lower_entry
        self.upper_entry = upper_entry
        super().__init__(
            f"inconsistent ledger: lower bound {lower_entry} "
            f"exceeds upper bound {upper_entry}"
        )


class BoundEntry:
    __slots__ = ("quantity", "kind", "value", "provenance")

    def __init__(self, quantity: str, kind: str, value: int, provenance: str):
        if quantity not in QUANTITIES:
            raise LedgerError(f"unknown quantity {quantity!r}")
        if kind not in KINDS:
            raise LedgerError(f"unknown kind {kind!r}")
        if value < 0:
            raise LedgerError("bound values must be >= 0")
        self.quantity = quantity
        self.kind = kind
        self.value = value
        self.provenance = provenance

    def __str__(self):
        return f"{self.quantity} {self.kind} {self.value} ({self.provenance})"


class BoundsLedger:
    __slots__ = ("entries",)

    def __init__(self, entries: list[BoundEntry] | None = None):
        self.entries = [] if entries is None else entries

    def add(self, quantity: str, kind: str, value: int, provenance: str):
        self.entries.append(BoundEntry(quantity, kind, value, provenance))

    def cat_lower_entries(self) -> list[BoundEntry]:
        out = []
        for e in self.entries:
            if e.kind == "upper":
                continue
            # Any lower/exact bound in the ladder bounds cat from below.
            if e.quantity in ("cat", "cuplen", "wgt", "Mwgt"):
                out.append(e)
        return out

    def cat_upper_entries(self) -> list[BoundEntry]:
        out = []
        for e in self.entries:
            if e.kind == "lower":
                continue
            if e.quantity in ("cat", "Cat"):
                out.append(e)
        return out


def ganea_product_bound(cat_fibre: int, cat_base: int) -> int:
    """cat of a fibre bundle total space: (cat F + 1)(cat B + 1) - 1."""
    if cat_fibre < 0 or cat_base < 0:
        raise LedgerError("category inputs must be >= 0")
    return (cat_fibre + 1) * (cat_base + 1) - 1


def bundle_upper_bound(m: int, n: int) -> int:
    """Upper bound max(m + n, m + 2) for a principal bundle over a double
    suspension whose characteristic map compresses into stage n of a
    length-m cone decomposition with vanishing higher Hopf invariant.

    The hypotheses are homotopy-theoretic and must be attested by the
    caller; this is pure arithmetic.
    """
    if m < 0:
        raise LedgerError("cone length must be >= 0")
    if n < 1:
        raise LedgerError("compression stage must be >= 1")
    return max(m + n, m + 2)


def strong_category_fallback(cat_strong_g: int) -> int:
    """Unconditional strong-category bound for such bundles: 2 Cat G + 1."""
    if cat_strong_g < 0:
        raise LedgerError("Cat input must be >= 0")
    return 2 * cat_strong_g + 1


# Attestation rules: name -> (function, the quantity and kind it bounds,
# its arity).  The arity is read here, from the function itself, so a
# wrapper installed later (a tracer's `*args` one) cannot change it.
RULES = {
    fn.__name__: (fn, quantity, kind, fn.__code__.co_argcount)
    for fn, quantity, kind in (
        (bundle_upper_bound, "cat", "upper"),
        (ganea_product_bound, "cat", "upper"),
        (strong_category_fallback, "Cat", "upper"),
    )
}


def rule_problem(name: str, args: list[int]) -> str | None:
    """Why the attested rule `name(*args)` gives no bound, or None."""
    if name not in RULES:
        return f"unknown bound rule {name!r}"
    fn, _, _, arity = RULES[name]
    if len(args) != arity:
        return f"{name} takes {arity} arguments, got {len(args)}"
    try:
        fn(*args)
    except LedgerError as exc:
        return f"{name}{tuple(args)}: {exc}"
    return None


def assemble_bracket(ledger: BoundsLedger) -> tuple[int | None, int | None]:
    """Close the bracket for cat: (max of lower bounds, min of upper
    bounds), with None for a side that has no entry.

    Raises InconsistentLedger (naming the two conflicting entries) if the
    bracket is empty.
    """
    lo_entry = max(ledger.cat_lower_entries(), key=lambda e: e.value, default=None)
    hi_entry = min(ledger.cat_upper_entries(), key=lambda e: e.value, default=None)
    if lo_entry and hi_entry and lo_entry.value > hi_entry.value:
        raise InconsistentLedger(lo_entry, hi_entry)
    return (
        lo_entry.value if lo_entry else None,
        hi_entry.value if hi_entry else None,
    )
