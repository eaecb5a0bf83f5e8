"""Exact linear algebra over ℤ and ℚ: lattices, functionals, quotients.

Everything here works with arbitrary-precision ``int`` and
``fractions.Fraction``; no floating point is used anywhere in the package.
The module provides the Smith normal form, integer kernels
and saturations, and three small abstractions built on top of them:

* :class:`SublatticeBasis` — a sublattice of ℤ^d given by independent rows,
  with exact coordinate/membership queries;
* :class:`ValueGroup` / :func:`value_group` — the subgroup of ℚ generated by
  the values of a rational functional on ℤ^d;
* :class:`QuotientMap` / :func:`quotient_lattice` — a concrete model of
  ℤ^d / Λ for a saturated sublattice Λ, with an integral section.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import Sequence

from .errors import (
    DimensionMismatch,
    InvalidParameters,
    NotSaturated,
    ValueGroupMismatch,
    ZeroFunctional,
)

IntVector = tuple[int, ...]
RatVector = tuple[Fraction, ...]
IntMatrix = tuple[IntVector, ...]
RatMatrix = tuple[RatVector, ...]


# --- vectors ----------------------------------------------------------------


def dot(u: Sequence, v: Sequence):
    """Exact inner product of two equal-length vectors."""
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vec_add(u: Sequence, v: Sequence) -> tuple:
    if len(u) != len(v):
        raise DimensionMismatch(f"sum of lengths {len(u)} and {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    if len(u) != len(v):
        raise DimensionMismatch(f"difference of lengths {len(u)} and {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Sequence) -> tuple:
    return tuple(c * x for x in v)


def rat_vector(v: Sequence) -> RatVector:
    return tuple(Fraction(x) for x in v)


def as_int_vector(v: Sequence) -> IntVector:
    """Cast a vector of integral values to ints, rejecting fractional entries."""
    out = []
    for x in v:
        f = Fraction(x)
        if f.denominator != 1:
            raise InvalidParameters(f"entry {x} is not an integer")
        out.append(f.numerator)
    return tuple(out)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: return ``(g, x, y)`` with ``g = a*x + b*y`` and ``g >= 0``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def content(v: Sequence[int]) -> int:
    """gcd of the entries (0 for the zero vector)."""
    return gcd(*(int(x) for x in v)) if len(v) else 0


def primitive_vector(v: Sequence[int]) -> IntVector:
    """Divide an integer vector by its content; rejects the zero vector."""
    w = tuple(int(x) for x in v)
    c = content(w)
    if c == 0:
        raise InvalidParameters("the zero vector has no primitive multiple")
    return tuple(x // c for x in w)


def clear_denominators(v: Sequence) -> tuple[IntVector, int]:
    """Return ``(w, m)`` with ``w = m * v`` integral and ``m`` the lcm of denominators."""
    fracs = rat_vector(v)
    m = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return tuple(int(f * m) for f in fracs), m


# --- matrices ---------------------------------------------------------------


def _check_rect(M: Sequence[Sequence]) -> tuple[int, int]:
    m = len(M)
    n = len(M[0]) if m else 0
    for row in M:
        if len(row) != n:
            raise DimensionMismatch("ragged matrix")
    return m, n


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _cleared(M: Sequence[Sequence]) -> tuple[list[list[int]], list[int] | None]:
    """Each row times the lcm of its denominators, with those multipliers
    (``None`` for an integer matrix).  Row scaling keeps the rank."""
    if all(type(x) is int for row in M for x in row):
        return [list(row) for row in M], None
    cleared = [clear_denominators(row) for row in M]
    return [list(w) for w, _ in cleared], [m for _, m in cleared]


def _bareiss(a: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free forward elimination in place (Bareiss 1968): every
    entry stays an integer minor of the input, so each division by the
    previous pivot is exact.  Returns the pivot columns and the sign of the
    row permutation; a square nonsingular matrix ends with ±det last."""
    m = len(a)
    n = len(a[0]) if m else 0
    pivots: list[int] = []
    sign, prev, r = 1, 1, 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p, top = a[r][c], a[r]
        for i in range(r + 1, m):
            f = a[i][c]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        pivots.append(c)
        r += 1
    return pivots, sign


def det(M: Sequence[Sequence]):
    """Exact determinant by fraction-free elimination: ``int`` for integer
    matrices, ``Fraction`` for rational ones."""
    m, n = _check_rect(M)
    if m != n:
        raise InvalidParameters(f"determinant of a {m}x{n} matrix")
    if n == 0:
        return 1
    a, scales = _cleared(M)
    pivots, sign = _bareiss(a)
    value = sign * a[n - 1][n - 1] if len(pivots) == n else 0
    return value if scales is None else Fraction(value, prod(scales))


def matrix_rank(M: Sequence[Sequence]) -> int:
    if not len(M):
        return 0
    _check_rect(M)
    return len(_bareiss(_cleared(M)[0])[0])


def int_inverse(M: Sequence[Sequence[int]]) -> tuple[IntMatrix, int]:
    """Fraction-free Gauss–Jordan: ``(B, D)`` with ``M·B = D·I`` and
    ``|D| = |det M|`` for a nonsingular integer matrix, by the update of
    :func:`_bareiss` applied above the pivot too."""
    m, n = _check_rect(M)
    if m != n:
        raise InvalidParameters(f"inverse of a {m}x{n} matrix")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise InvalidParameters("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        p, top = a[k][k], a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
    return tuple(tuple(row[n:]) for row in a), prev


def mat_inverse(M: Sequence[Sequence]) -> RatMatrix:
    """Exact inverse of a square matrix: with ``M = diag(1/s)·A`` for the
    integer rows ``A``, ``M⁻¹ = A⁻¹·diag(s)``."""
    a, scales = _cleared(M)
    B, D = int_inverse(a)
    scales = scales or [1] * len(B)
    return tuple(tuple(Fraction(x * s, D) for x, s in zip(row, scales)) for row in B)


def as_int_matrix(M: Sequence[Sequence]) -> IntMatrix:
    return tuple(as_int_vector(row) for row in M)


def solve(M: Sequence[Sequence], b: Sequence) -> RatVector:
    """Solve ``M x = b`` for square invertible ``M``, exactly."""
    inv = mat_inverse(M)
    if len(b) != len(inv):
        raise DimensionMismatch("right-hand side has the wrong length")
    return tuple(dot(row, b) for row in inv)


# --- normal form ------------------------------------------------------------


def _row_comb(A: list[list[int]], i: int, j: int, a: int, b: int, c: int, d: int):
    """Replace rows (i, j) by (a·rᵢ + b·rⱼ, c·rᵢ + d·rⱼ); caller keeps ad−bc = ±1."""
    ri, rj = A[i], A[j]
    A[i] = [a * x + b * y for x, y in zip(ri, rj)]
    A[j] = [c * x + d * y for x, y in zip(ri, rj)]


def _elim_transform(a: int, b: int) -> tuple[int, int, int, int]:
    """Unimodular 2x2 transform sending the pair ``(a, b)`` to ``(g, 0)``.

    When ``a`` already divides ``b`` the transform is a plain shear that
    leaves the pivot row fixed — important so that repeated clearing passes
    in the Smith reduction cannot oscillate.
    """
    if b % a == 0:
        return 1, 0, -(b // a), 1
    g, x, y = xgcd(a, b)
    return x, y, -(b // g), a // g


def _col_comb(A: list[list[int]], i: int, j: int, a: int, b: int, c: int, d: int):
    for row in A:
        x, y = row[i], row[j]
        row[i] = a * x + b * y
        row[j] = c * x + d * y


def smith_normal_form(
    M: Sequence[Sequence[int]],
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form.

    Returns ``(D, U, V)`` with ``U @ M @ V == D``, ``U`` and ``V`` unimodular,
    and ``D`` diagonal with nonnegative entries forming a divisibility chain
    ``d₁ | d₂ | …``.
    """
    m, n = _check_rect(M)
    A = [[int(x) for x in row] for row in M]
    U = _identity(m)
    V = _identity(n)
    t = 0
    while t < min(m, n):
        best = None
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                    best = abs(A[i][j])
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            A[t], A[i0] = A[i0], A[t]
            U[t], U[i0] = U[i0], U[t]
        if j0 != t:
            _col_comb(A, t, j0, 0, 1, 1, 0)
            _col_comb(V, t, j0, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    x, y, u, v = _elim_transform(A[t][t], A[i][t])
                    _row_comb(A, t, i, x, y, u, v)
                    _row_comb(U, t, i, x, y, u, v)
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    x, y, u, v = _elim_transform(A[t][t], A[t][j])
                    _col_comb(A, t, j, x, y, u, v)
                    _col_comb(V, t, j, x, y, u, v)
            if any(A[i][t] for i in range(t + 1, m)):
                continue  # a column step refilled the pivot column
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            A[t] = [x + y for x, y in zip(A[t], A[offender])]
            U[t] = [x + y for x, y in zip(U[t], U[offender])]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return (
        tuple(tuple(row) for row in A),
        tuple(tuple(row) for row in U),
        tuple(tuple(row) for row in V),
    )


# --- kernels, saturation, sublattices ---------------------------------------


def kernel_basis(rows: Sequence[Sequence[int]], dim: int) -> IntMatrix:
    """Basis of ``{x ∈ ℤ^dim : R x = 0}`` for the given functional rows.

    The result is a basis of the *saturated* kernel lattice (it extends to a
    basis of ℤ^dim), possibly empty.
    """
    if not len(rows):
        return tuple(tuple(row) for row in _identity(dim))
    for row in rows:
        if len(row) != dim:
            raise DimensionMismatch("functional rows must have length dim")
    D, _, V = smith_normal_form(rows)
    r = sum(1 for i in range(min(len(rows), dim)) if D[i][i] != 0)
    return tuple(tuple(V[i][j] for i in range(dim)) for j in range(r, dim))


def saturate(rows: Sequence[Sequence[int]], dim: int) -> IntMatrix:
    """Basis of ℤ^dim ∩ span_ℚ(rows), the saturation of the row lattice."""
    if not len(rows):
        return ()
    return kernel_basis(kernel_basis(rows, dim), dim)


@dataclass(frozen=True)
class SublatticeBasis:
    """A sublattice of ℤ^d presented by linearly independent basis rows."""

    ambient_dim: int
    rows: IntMatrix

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        for row in rows:
            if len(row) != self.ambient_dim:
                raise DimensionMismatch(
                    f"basis row of length {len(row)} in ambient dimension {self.ambient_dim}"
                )
        if rows and matrix_rank(rows) != len(rows):
            raise InvalidParameters("basis rows are linearly dependent")

    @property
    def rank(self) -> int:
        return len(self.rows)

    @cached_property
    def _solver(self) -> tuple[tuple[int, ...], RatMatrix]:
        if not self.rows:
            return (), ()
        pivots, _ = _bareiss([list(row) for row in self.rows])
        sub = [[row[c] for c in pivots] for row in self.rows]
        return tuple(pivots), mat_inverse(sub)

    def to_coords(self, point: Sequence) -> RatVector:
        """Coordinates of ``point`` in this basis; the point must lie in the
        ℚ-span of the rows (otherwise :class:`InvalidParameters`)."""
        if len(point) != self.ambient_dim:
            raise DimensionMismatch("point has the wrong length")
        target = rat_vector(point)
        if self.rank == 0:
            if any(target):
                raise InvalidParameters("point lies outside the sublattice span")
            return ()
        cols, inv = self._solver
        proj = [target[c] for c in cols]
        coords = tuple(
            sum(proj[i] * inv[i][j] for i in range(len(cols)))
            for j in range(len(cols))
        )
        if rat_vector(self.from_coords(coords)) != target:
            raise InvalidParameters("point lies outside the sublattice span")
        return coords

    def from_coords(self, coords: Sequence) -> tuple:
        if len(coords) != self.rank:
            raise DimensionMismatch("coordinate vector has the wrong length")
        out = [0] * self.ambient_dim
        for c, row in zip(coords, self.rows):
            for i, x in enumerate(row):
                out[i] += c * x
        return tuple(out)

    def contains(self, point: Sequence) -> bool:
        """Whether ``point`` is an integer combination of the basis rows."""
        try:
            coords = self.to_coords(point)
        except InvalidParameters:
            return False
        return all(c.denominator == 1 for c in coords)


def kernel_sublattice(psi: Sequence, dim: int) -> SublatticeBasis:
    """The lattice ``{x ∈ ℤ^dim : ⟨psi, x⟩ = 0}`` for a rational functional."""
    if len(psi) != dim:
        raise DimensionMismatch("functional has the wrong length")
    w, _ = clear_denominators(psi)
    if not any(w):
        return SublatticeBasis(dim, tuple(tuple(r) for r in _identity(dim)))
    return SublatticeBasis(dim, kernel_basis((w,), dim))


# --- value groups and base points -------------------------------------------


@dataclass(frozen=True)
class ValueGroup:
    """The subgroup ``generator·ℤ ⊆ ℚ`` of values of a functional on ℤ^d.

    ``index`` is the lcm of the coordinate denominators; ``unit_generator``
    records whether the group is exactly ``(1/index)·ℤ``.
    """

    generator: Fraction
    index: int
    unit_generator: bool


def value_group(psi: Sequence) -> ValueGroup:
    """Value group of a nonzero rational functional on the standard lattice.

    The values ``⟨psi, x⟩`` for ``x ∈ ℤ^d`` form ``g·ℤ`` with
    ``g = gcd(numerators)/lcm(denominators)`` of the coordinates in lowest
    terms.  Raises :class:`ZeroFunctional` on the zero vector.
    """
    fracs = rat_vector(psi)
    if not any(fracs):
        raise ZeroFunctional("the zero functional has trivial value group")
    num_gcd = gcd(*(f.numerator for f in fracs))
    den_lcm = lcm(*(f.denominator for f in fracs))
    g = Fraction(num_gcd, den_lcm)
    return ValueGroup(g, den_lcm, g == Fraction(1, den_lcm))


def base_point(psi: Sequence) -> IntVector:
    """An integer point where the functional attains ``1/index``.

    Only exists when the value group is ``(1/index)·ℤ``; otherwise
    :class:`ValueGroupMismatch` is raised.
    """
    vg = value_group(psi)
    w = tuple(int(Fraction(x) * vg.index) for x in psi)
    g = 0
    coeffs = [0] * len(w)
    for i, wi in enumerate(w):
        if wi == 0:
            continue
        g2, x, y = xgcd(g, wi)
        coeffs = [x * c for c in coeffs]
        coeffs[i] += y
        g = g2
        if g == 1:
            break
    if g != 1:
        raise ValueGroupMismatch(
            f"values generate ({g}/{vg.index})·ℤ; no point attains 1/{vg.index}"
        )
    return tuple(coeffs)


# --- quotient lattices --------------------------------------------------------


@dataclass(frozen=True)
class QuotientMap:
    """A surjection ℤ^d → ℤ^k with a chosen integral section.

    ``matrix`` holds the k functional rows of the projection; ``lift_rows``
    holds the images of the target's unit vectors under the section, so
    ``apply(lift(y)) == y`` for every ``y`` and ``apply`` kills exactly
    ``kernel``.
    """

    source_dim: int
    target_dim: int
    matrix: IntMatrix
    lift_rows: IntMatrix
    kernel: SublatticeBasis

    def apply(self, point: Sequence) -> tuple:
        if len(point) != self.source_dim:
            raise DimensionMismatch("point has the wrong length")
        return tuple(dot(row, point) for row in self.matrix)

    def lift(self, point: Sequence) -> tuple:
        if len(point) != self.target_dim:
            raise DimensionMismatch("point has the wrong length")
        out = [0] * self.source_dim
        for c, row in zip(point, self.lift_rows):
            for i, x in enumerate(row):
                out[i] += c * x
        return tuple(out)


def quotient_lattice(dim: int, sub: SublatticeBasis) -> QuotientMap:
    """Quotient of ℤ^dim by a saturated sublattice.

    Raises :class:`NotSaturated` if the sublattice has a nontrivial invariant
    factor (the quotient would then have torsion).
    """
    if sub.ambient_dim != dim:
        raise DimensionMismatch("sublattice lives in a different ambient lattice")
    k = sub.rank
    if k == 0:
        ident = tuple(tuple(r) for r in _identity(dim))
        return QuotientMap(dim, dim, ident, ident, sub)
    D, _, V = smith_normal_form(sub.rows)
    for i in range(k):
        if D[i][i] != 1:
            raise NotSaturated(
                f"sublattice has invariant factor {D[i][i]}; quotient has torsion"
            )
    proj = tuple(tuple(V[i][j] for i in range(dim)) for j in range(k, dim))
    v_inv = as_int_matrix(mat_inverse(V))
    lift_rows = tuple(v_inv[i] for i in range(k, dim))
    return QuotientMap(dim, dim - k, proj, lift_rows, sub)
