"""Bounds arithmetic and bracket assembly."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lscat.bounds import (
    BoundsLedger,
    InconsistentLedger,
    LedgerError,
    assemble_bracket,
    bundle_upper_bound,
    ganea_product_bound,
    strong_category_fallback,
)


@given(st.integers(0, 100), st.integers(1, 100))
def test_bundle_upper_bound_closed_form(m, n):
    v = bundle_upper_bound(m, n)
    assert v == max(m + n, m + 2)
    assert v >= m + 2
    # monotone in both arguments
    assert bundle_upper_bound(m + 1, n) >= v
    assert bundle_upper_bound(m, n + 1) >= v


@given(st.integers(0, 100), st.integers(0, 100))
def test_ganea_product_closed_form(f, b):
    v = ganea_product_bound(f, b)
    assert v == (f + 1) * (b + 1) - 1
    assert v >= max(f, b)


@given(st.integers(0, 100))
def test_strong_category_fallback_form(c):
    assert strong_category_fallback(c) == 2 * c + 1


def test_input_validation():
    with pytest.raises(LedgerError):
        bundle_upper_bound(-1, 1)
    with pytest.raises(LedgerError):
        bundle_upper_bound(3, 0)
    with pytest.raises(LedgerError):
        ganea_product_bound(-1, 0)
    with pytest.raises(LedgerError):
        strong_category_fallback(-1)


def test_bundle_instance():
    """Criterion 9: the attested instance gives 8."""
    assert bundle_upper_bound(5, 3) == 8


def test_ladder_propagation():
    ledger = BoundsLedger()
    ledger.add("cuplen", "exact", 6, "a")
    ledger.add("wgt", "exact", 6, "b")
    ledger.add("Mwgt", "lower", 8, "c")
    ledger.add("cat", "upper", 8, "d")
    assert assemble_bracket(ledger) == (8, 8)
    lowers = {e.quantity for e in ledger.cat_lower_entries()}
    assert lowers == {"cuplen", "wgt", "Mwgt"}


def test_cat_via_strong_category():
    ledger = BoundsLedger()
    ledger.add("wgt", "lower", 3, "a")
    ledger.add("Cat", "upper", 5, "b")
    assert assemble_bracket(ledger) == (3, 5)


def test_missing_side():
    ledger = BoundsLedger()
    ledger.add("cuplen", "exact", 2, "a")
    assert assemble_bracket(ledger) == (2, None)


def test_inconsistent_names_entries():
    ledger = BoundsLedger()
    ledger.add("Mwgt", "lower", 9, "too big")
    ledger.add("cat", "upper", 8, "too small")
    with pytest.raises(InconsistentLedger) as exc:
        assemble_bracket(ledger)
    assert exc.value.lower_entry.value == 9
    assert exc.value.upper_entry.value == 8


def test_entry_validation():
    ledger = BoundsLedger()
    with pytest.raises(LedgerError):
        ledger.add("catx", "upper", 1, "p")
    with pytest.raises(LedgerError):
        ledger.add("cat", "sideways", 1, "p")
    with pytest.raises(LedgerError):
        ledger.add("cat", "upper", -1, "p")


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["cuplen", "wgt", "Mwgt"]),
            st.sampled_from(["lower", "exact"]),
            st.integers(0, 20),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 30),
)
def test_bracket_is_extremal(lowers, upper):
    ledger = BoundsLedger()
    for q, k, v in lowers:
        ledger.add(q, k, v, "p")
    ledger.add("cat", "upper", upper, "p")
    best_lower = max(v for _, _, v in lowers)
    if best_lower > upper:
        with pytest.raises(InconsistentLedger):
            assemble_bracket(ledger)
    else:
        assert assemble_bracket(ledger) == (best_lower, upper)
