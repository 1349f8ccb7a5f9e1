"""Generated space fixtures and literature Poincare series.

Nothing here imports `lscat`: the fixtures are plain JSON dicts in the
shape `lscat.spaces.SpacePresentation.from_dict` reads, and the series
are computed from the published ring structures, so they can serve as an
independent check on what `lscat` computes.
"""

from __future__ import annotations

import itertools
from math import comb

# Cohomology rings as (generator degree, height) factors; height 2 is an
# exterior generator.  H*(Spin(9); F2) = F2[x3]/x3^4 (x) Lambda(x5, x7, x15)
# (Borel); the toy space is F2[x3]/x3^4.
SPIN9_FACTORS = ((3, 4), (5, 2), (7, 2), (15, 2))
TOY_FACTORS = ((3, 4),)


def su_factors(n: int) -> tuple[tuple[int, int], ...]:
    """H*(SU(n); F2) = Lambda(x3, x5, ..., x(2n-1))."""
    return tuple((2 * j - 1, 2) for j in range(2, n + 1))


def product_series(factors, cap: int) -> list[int]:
    """Coefficients 0..cap of prod over factors of (1 + t^d + ... + t^(d(h-1)))."""
    poly = [1] + [0] * cap
    for degree, height in factors:
        new = [0] * (cap + 1)
        for i, c in enumerate(poly):
            if not c:
                continue
            for e in range(height):
                if i + degree * e <= cap:
                    new[i + degree * e] += c
        poly = new
    return poly


def enumerated_series(fixture: dict) -> list[int]:
    """Poincare series of a fixture's cohomology, by monomial enumeration.

    Reads the generator list straight from the fixture JSON; a check that
    the fixture encodes the ring the product formula describes.
    """
    cap = fixture["degree_cap"]
    gens = fixture["cohomology"]["generators"]
    ranges = [
        range(min(g["height"] - 1, cap // g["degree"]) + 1) for g in gens
    ]
    dims = [0] * (cap + 1)
    for exps in itertools.product(*ranges):
        d = sum(e * g["degree"] for e, g in zip(exps, gens))
        if d <= cap:
            dims[d] += 1
    return dims


def su_fixture(n: int) -> dict:
    """Presentation of SU(n), n >= 2, as a fixture dict.

    Cohomology Lambda(x3, ..., x(2n-1)) with Borel's squares
    Sq^(2i) x(2j-1) = C(j-1, i) x(2i+2j-1); loop homology polynomial on
    u2, ..., u(2n-2) (Bott), every suspension class permanent; and the
    attested upper bound cat SU(n) <= n - 1 (Singhof 1975).
    """
    if n < 2:
        raise ValueError("SU(n) needs n >= 2")
    top = 2 * n - 1
    steenrod = []
    for j in range(2, n + 1):
        for i in range(1, j):
            target = 2 * i + 2 * j - 1
            if target <= top and comb(j - 1, i) % 2:
                steenrod.append(
                    {"gen": f"x{2 * j - 1}", "k": 2 * i, "value": [f"x{target}"]}
                )
    return {
        "name": f"su{n}",
        "degree_cap": n * n - 1,
        "cohomology": {
            "generators": [
                {"name": f"x{d}", "degree": d, "height": h}
                for d, h in su_factors(n)
            ]
        },
        "steenrod": steenrod,
        "loop_homology": {
            "generators": [
                {"name": f"u{2 * k}", "degree": 2 * k, "height": "unbounded"}
                for k in range(1, n)
            ]
        },
        "permanent_cycles": [f"x1_{2 * k}" for k in range(1, n)],
        "extra_generators": [],
        "attestations": [
            {
                "claim": f"SU({n}) has L-S category {n - 1}",
                "provenance": "Singhof, Math. Z. 145 (1975)",
                "bound": {"quantity": "cat", "kind": "upper", "value": n - 1},
            }
        ],
    }
