"""Exception types raised across the package.

Everything derives from :class:`ToricMldError` so callers can catch the
package's failures with one except clause.  Input/shape problems and
mathematical impossibilities get distinct subclasses because the CLI maps
them to different exit codes.
"""

from __future__ import annotations


class ToricMldError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameters(ToricMldError, ValueError):
    """Arguments outside a function's documented domain."""


class DimensionMismatch(ToricMldError, ValueError):
    """Vectors or matrices with incompatible shapes."""


class LengthMismatch(ToricMldError, ValueError):
    """Parallel sequences (rays vs. coefficients) of different lengths."""


# --- lattice-level failures -------------------------------------------------


class ZeroFunctional(ToricMldError, ValueError):
    """The zero linear functional has no value group."""


class ValueGroupMismatch(ToricMldError, ArithmeticError):
    """A requested value is not attained by the functional on the lattice."""


# --- geometry-level failures ------------------------------------------------


class NotFullDimensional(ToricMldError, ValueError):
    """A cone or polytope fails to span the expected dimension."""


class PointNotInterior(ToricMldError, ValueError):
    """A base point required to be interior lies on or outside the boundary."""


class UnboundedRegion(ToricMldError, ValueError):
    """A region that must be bounded is not."""


class NotLatticePolytope(ToricMldError, ValueError):
    """A polytope required to have lattice vertices has fractional ones."""


# --- pair validation --------------------------------------------------------


class NonPrimitiveRay(ToricMldError, ValueError):
    """A ray generator whose coordinates share a factor (or is zero)."""


class NotStronglyConvex(ToricMldError, ValueError):
    """The cone contains a line."""


class RedundantRay(ToricMldError, ValueError):
    """A listed ray is not extreme in the cone (or appears twice)."""


class NonStandardCoefficient(ToricMldError, ValueError):
    """A boundary coefficient outside {1} ∪ {(l-1)/l : l ≥ 1}."""


class NotLogQGorenstein(ToricMldError, ArithmeticError):
    """No rational functional takes the prescribed values on all rays."""


class NotKlt(ToricMldError, ValueError):
    """The pair has minimal log discrepancy 0 where positivity is required."""


class DimensionTooSmall(ToricMldError, ValueError):
    """The construction needs dimension at least two."""


class NoInteriorPoint(ToricMldError, ValueError):
    """A region expected to contain a lattice point has none."""


# --- proof pipeline ---------------------------------------------------------


class CheckFailed(ToricMldError, AssertionError):
    """A certified inequality or uniqueness check did not hold."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        self.detail = detail
        super().__init__(f"check {name!r} failed" + (f": {detail}" if detail else ""))


class MissingGamma(ToricMldError, ValueError):
    """A bound in dimension ≥ 3 was requested without a shrink factor."""


class ExhaustedResampling(ToricMldError, RuntimeError):
    """Random generation failed to produce a valid object in the retry budget."""
