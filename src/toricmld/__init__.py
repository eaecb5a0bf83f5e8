"""Exact invariants of affine toric log pairs.

The package computes minimal log discrepancies and Gorenstein indices of
affine toric pairs with standard boundary coefficients, and builds fully
checked convex-geometry certificates for the index bound ``n ≤ c_d · q^d``.

Everything is exact ``int``/``Fraction`` arithmetic; no floats anywhere.
"""

from .errors import CheckFailed, NotKlt, NotLogQGorenstein, ToricMldError
from .families import FamilySpec, SweepReport, sweep
from .pairs import (
    BoundaryCoefficient,
    BoundVerdict,
    LogCanonicalReport,
    ToricLogPair,
    bound_check,
    compute_mld,
    mld_oracle,
    standard_coefficients,
    validate_pair,
)
from .proof import ProofTrace, prove, serialize_trace

__all__ = [
    "BoundaryCoefficient",
    "BoundVerdict",
    "CheckFailed",
    "FamilySpec",
    "LogCanonicalReport",
    "NotKlt",
    "NotLogQGorenstein",
    "ProofTrace",
    "SweepReport",
    "ToricLogPair",
    "ToricMldError",
    "bound_check",
    "compute_mld",
    "mld_oracle",
    "prove",
    "serialize_trace",
    "standard_coefficients",
    "sweep",
    "validate_pair",
]
__version__ = "0.1.0"
