"""Exact linear algebra over ℤ: lattices, functionals, quotients.

Everything here works with arbitrary-precision ``int``, fraction-free: a
rational functional is an integer vector ``w`` over one denominator, an
inverse is an integer matrix over a determinant.  No floating point is used
anywhere in the package.  The module provides the Smith normal form,
integer kernels and saturations, and two small abstractions built on top
of them:

* :class:`SublatticeBasis` — a sublattice of ℤ^d given by independent rows,
  with exact integer coordinates;
* :func:`quotient_lattice` — ``(proj, lift)``, a concrete model of ℤ^d / Λ
  for the saturation Λ of given rows, with an integral section.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Sequence

from .errors import (
    DimensionMismatch,
    InvalidParameters,
    ValueGroupMismatch,
    ZeroFunctional,
)

IntVector = tuple[int, ...]
RatVector = tuple[Fraction, ...]
IntMatrix = tuple[IntVector, ...]


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
    """gcd of the entries (0 for the zero vector).  An entry that is not an
    ``int`` raises :class:`InvalidParameters`, as in :func:`det`."""
    if not all(type(x) is int for x in v):
        raise InvalidParameters("vector entries must be integers")
    return gcd(*v)


def primitive_vector(v: Sequence[int]) -> IntVector:
    """Divide an integer vector by its content; rejects the zero vector."""
    c = content(v)
    if c == 0:
        raise InvalidParameters("the zero vector has no primitive multiple")
    return tuple(x // c for x in v)


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


def _int_rows(M: Sequence[Sequence]) -> list[list[int]]:
    """A mutable copy of an integer matrix.  Any other entry (a ``bool``
    too) raises :class:`InvalidParameters`: a cast would silently truncate
    a ``Fraction``, and the exact ``//`` below would be silently wrong."""
    if not all(type(x) is int for row in M for x in row):
        raise InvalidParameters("matrix entries must be integers")
    return [list(row) for row in M]


def _bareiss(a: list[list[int]], full: bool = False) -> tuple[list[int], int]:
    """Fraction-free elimination in place (Bareiss 1968): every entry stays
    an integer minor of the input, so each division by the previous pivot
    is exact.  Returns the pivot columns and the sign of the row
    permutation; a square nonsingular matrix ends with ±det last.  With
    ``full`` each pivot clears its column above too (Gauss–Jordan), and
    every pivot entry ends equal to the last pivot."""
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
        for i in range(0 if full else r + 1, m):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        pivots.append(c)
        r += 1
    return pivots, sign


def det(M: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    m, n = _check_rect(M)
    if m != n:
        raise InvalidParameters(f"determinant of a {m}x{n} matrix")
    if n == 0:
        return 1
    a = _int_rows(M)
    pivots, sign = _bareiss(a)
    return sign * a[n - 1][n - 1] if len(pivots) == n else 0


def matrix_rank(M: Sequence[Sequence[int]]) -> int:
    if not len(M):
        return 0
    _check_rect(M)
    return len(_bareiss(_int_rows(M))[0])


def _augmented(M: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Gauss–Jordan on ``[M | I]``: the pivot columns and the rows.  The
    ``I`` part ends as ``B`` with ``B·M`` equal to the last pivot times the
    identity on the pivot columns."""
    a = [row + [int(i == j) for j in range(len(M))] for i, row in enumerate(_int_rows(M))]
    return _bareiss(a, full=True)[0], a


def int_inverse(M: Sequence[Sequence[int]]) -> tuple[IntMatrix, int]:
    """Fraction-free Gauss–Jordan: ``(B, D)`` with ``M·B = D·I`` and
    ``|D| = |det M|`` for a nonsingular integer matrix."""
    m, n = _check_rect(M)
    if m != n:
        raise InvalidParameters(f"inverse of a {m}x{n} matrix")
    if n == 0:
        return (), 1
    pivots, a = _augmented(M)
    if pivots != list(range(n)):
        raise InvalidParameters("matrix is singular")
    return tuple(tuple(row[n:]) for row in a), a[0][0]


def solve(M: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[IntVector, int]:
    """Solve ``M x = b`` for a square nonsingular integer matrix, fraction
    free: ``(x, D)`` with ``M·x = D·b`` and ``|D| = |det M|``, so the
    solution is ``x/D``."""
    B, D = int_inverse(M)
    if len(b) != len(B):
        raise DimensionMismatch("right-hand side has the wrong length")
    return tuple(dot(row, b) for row in B), D


def independent_rows(M: Sequence[Sequence[int]], k: int) -> list[int]:
    """Indices of the first ``k`` rows, taken greedily in order, each
    linearly independent of those taken before it (fewer when the rows
    span less): the pivot columns of the transpose's elimination."""
    return _bareiss([list(col) for col in zip(*_int_rows(M))])[0][:k]


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
    A = _int_rows(M)
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
        rows = tuple(map(tuple, _int_rows(self.rows)))
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
    def _solver(self) -> tuple[tuple[int, ...], IntMatrix, int]:
        """Pivot columns ``cols`` of the rows and ``(B, D)`` with ``B·S =
        D·I`` for the rows ``S`` cut to those columns."""
        cols, a = _augmented(self.rows)
        B = tuple(tuple(row[self.ambient_dim :]) for row in a)
        return tuple(cols), B, a[0][cols[0]]

    def to_coords(self, point: Sequence) -> IntVector:
        """Integer coordinates of ``point`` in this basis; the point must lie
        in the sublattice (otherwise :class:`InvalidParameters`)."""
        if len(point) != self.ambient_dim:
            raise DimensionMismatch("point has the wrong length")
        coords: tuple = ()
        if self.rank:
            cols, B, D = self._solver
            nums = [sum(point[c] * x for c, x in zip(cols, col)) for col in zip(*B)]
            if any(v % D for v in nums):
                raise InvalidParameters("point lies outside the sublattice")
            coords = tuple(v // D for v in nums)
        if self.from_coords(coords) != tuple(point):
            raise InvalidParameters("point lies outside the sublattice")
        return coords

    def from_coords(self, coords: Sequence) -> tuple:
        if len(coords) != self.rank:
            raise DimensionMismatch("coordinate vector has the wrong length")
        out = [0] * self.ambient_dim
        for c, row in zip(coords, self.rows):
            for i, x in enumerate(row):
                out[i] += c * x
        return tuple(out)


def kernel_sublattice(w: Sequence[int], dim: int) -> SublatticeBasis:
    """The lattice ``{x ∈ ℤ^dim : ⟨w, x⟩ = 0}`` for an integer functional
    (the numerators of a rational one over their common denominator)."""
    if len(w) != dim:
        raise DimensionMismatch("functional has the wrong length")
    return SublatticeBasis(dim, kernel_basis((w,), dim))


# --- base points ---------------------------------------------------------------


def base_point(w: Sequence[int]) -> IntVector:
    """An integer point where the integer functional ``w`` takes the value 1,
    so ``w/n`` takes ``1/n`` there.

    Only exists when the entries of ``w`` are coprime, i.e. the values of
    ``w/n`` form ``(1/n)·ℤ``; otherwise :class:`ValueGroupMismatch` is
    raised, and :class:`ZeroFunctional` on the zero vector.
    """
    if not any(w):
        raise ZeroFunctional("the zero functional attains no nonzero value")
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
        raise ValueGroupMismatch(f"values generate {g}·ℤ; no point attains 1")
    return tuple(coeffs)


# --- quotient lattices --------------------------------------------------------


def quotient_lattice(rows: Sequence[Sequence[int]], dim: int) -> tuple[IntMatrix, IntMatrix]:
    """ℤ^dim modulo the saturation of the row lattice, torsion-free of rank
    ``k``: ``(proj, lift)``, the ``k`` functional rows of a surjection ℤ^dim
    → ℤ^k and the images of ℤ^k's unit vectors under an integral section,
    so ``proj·lift = I``.  Both come from the Smith form ``U·S·V`` of the
    saturated rows ``S``: the columns of ``V`` past the rank, and the rows
    of ``V⁻¹`` past it."""
    sat = saturate(rows, dim)
    if not sat:
        ident = tuple(tuple(r) for r in _identity(dim))
        return ident, ident
    _, _, V = smith_normal_form(sat)
    k = len(sat)
    proj = tuple(tuple(V[i][j] for i in range(dim)) for j in range(k, dim))
    B, det_v = int_inverse(V)  # V is unimodular: V⁻¹ = det_v·B
    return proj, tuple(tuple(det_v * x for x in B[i]) for i in range(k, dim))
