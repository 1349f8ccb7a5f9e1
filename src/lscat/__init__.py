"""Mod-2 Lusternik-Schnirelmann invariants from algebraic models.

Cup-length, category weight, and Steenrod-module obstructions against
projective-stage retractions, computed over F2 from a machine-readable
space presentation, with a bounds ledger that closes a certified bracket
for the category.
"""

from lscat.algebra import (
    Algebra,
    AlgebraError,
    AlgebraPresentation,
    Element,
    Generator,
)
from lscat.bounds import (
    BoundEntry,
    BoundsLedger,
    InconsistentLedger,
    LedgerError,
    assemble_bracket,
    bundle_upper_bound,
    ganea_product_bound,
    strong_category_fallback,
)
from lscat.cells import CellComplex, CellError, smash, sphere, suspend
from lscat.report import build_ledger, build_report, format_text, page_at
from lscat.spaces import (
    BUILTIN_NAMES,
    Attestation,
    ExtraGenerator,
    FixtureError,
    SpacePresentation,
    builtin,
    validate,
)
from lscat.specseq import (
    BigradedPage,
    DifferentialSpec,
    InferenceError,
    SpectralSequenceError,
    apply_differential,
    infer_differentials,
    koszul_e2,
    run_to_e_infinity,
    truncate,
)
from lscat.steenrod import SteenrodAction
from lscat.weights import LoopSpaceModel, ObstructionWitness, WeightError

__version__ = "0.1.0"

# Name of the GF(2) kernel (`lscat.gf2`), which benchmark runs record; the
# pure-Python one is the only one.
GF2_BACKEND = "py"

__all__ = [
    "Algebra",
    "AlgebraError",
    "AlgebraPresentation",
    "Attestation",
    "BUILTIN_NAMES",
    "BigradedPage",
    "BoundEntry",
    "BoundsLedger",
    "CellComplex",
    "CellError",
    "DifferentialSpec",
    "Element",
    "ExtraGenerator",
    "FixtureError",
    "GF2_BACKEND",
    "Generator",
    "InconsistentLedger",
    "InferenceError",
    "LedgerError",
    "LoopSpaceModel",
    "ObstructionWitness",
    "SpacePresentation",
    "SpectralSequenceError",
    "SteenrodAction",
    "WeightError",
    "apply_differential",
    "assemble_bracket",
    "build_ledger",
    "build_report",
    "builtin",
    "bundle_upper_bound",
    "format_text",
    "ganea_product_bound",
    "infer_differentials",
    "koszul_e2",
    "page_at",
    "run_to_e_infinity",
    "smash",
    "sphere",
    "strong_category_fallback",
    "suspend",
    "truncate",
    "validate",
]
