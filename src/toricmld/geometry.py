"""Exact convex geometry over ℚ: hulls, volumes, lattice-point enumeration.

The central type is :class:`RatPolytope`, a bounded rational polytope carrying
both descriptions at once: lex-sorted vertices and facet inequalities with
primitive integer normals.  Hulls are computed by an exact incremental
double-description pass on homogenized points, so no floating point enters at
any stage.  Polytopes of dimension ≥ 1 produced by :func:`convex_hull` are
full-dimensional in their ambient space; lower-dimensional data should be
re-coordinatized (e.g. with :class:`~toricmld.lattice.SublatticeBasis`)
before building hulls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatch,
    InvalidParameters,
    NotFullDimensional,
    PointNotInterior,
    UnboundedRegion,
)
from .lattice import (
    IntVector,
    RatVector,
    SublatticeBasis,
    clear_denominators,
    content,
    det,
    dot,
    mat_inverse,
    matrix_rank,
    primitive_vector,
    rat_vector,
    vec_add,
    vec_sub,
)

Facet = tuple[IntVector, Fraction]


@dataclass(frozen=True)
class RatPolytope:
    """A bounded rational polytope with vertex and facet descriptions.

    ``vertices`` are lex-sorted tuples of :class:`~fractions.Fraction`;
    ``facets`` are sorted pairs ``(u, b)`` of a primitive integer outer
    normal and a rational offset, encoding the inequality ``⟨u, x⟩ ≤ b``.
    A zero-dimensional polytope is the single empty-tuple point with no
    facets.
    """

    dim: int
    vertices: tuple[RatVector, ...]
    facets: tuple[Facet, ...]

    def contains(self, point: Sequence, strict: bool = False) -> bool:
        if len(point) != self.dim:
            raise DimensionMismatch("point has the wrong length")
        for u, b in self.facets:
            val = dot(u, point)
            if val > b or (strict and val == b):
                return False
        return True

    def support(self, u: Sequence) -> Fraction:
        """Support function: the maximum of ``⟨u, ·⟩`` over the polytope."""
        return max(Fraction(dot(u, v)) for v in self.vertices)


def _homogenize(p: RatVector) -> IntVector:
    w, _ = clear_denominators((1,) + p)
    return primitive_vector(w)


def _double_description(cons: list[IntVector], n: int) -> list[IntVector]:
    """Extreme rays of the pointed full-dimensional cone ``{y : ⟨c, y⟩ ≥ 0}``.

    ``cons`` must contain ``n`` linearly independent vectors; those seed a
    simplicial cone whose rays are refined one constraint at a time, with
    adjacency decided combinatorially from tight-set bitmasks.
    """
    seed: list[int] = []
    for i, c in enumerate(cons):
        if matrix_rank([cons[j] for j in seed] + [c]) > len(seed):
            seed.append(i)
        if len(seed) == n:
            break
    if len(seed) < n:
        raise NotFullDimensional("points do not affinely span the ambient space")
    ordered = [cons[i] for i in seed] + [c for i, c in enumerate(cons) if i not in set(seed)]
    ginv = mat_inverse(ordered[:n])
    rays: list[IntVector] = []
    zeros: list[int] = []
    full = (1 << n) - 1
    for j in range(n):
        col, _ = clear_denominators(tuple(ginv[i][j] for i in range(n)))
        rays.append(primitive_vector(col))
        zeros.append(full ^ (1 << j))
    for idx in range(n, len(ordered)):
        c = ordered[idx]
        vals = [dot(c, r) for r in rays]
        if all(v >= 0 for v in vals):
            for t, v in enumerate(vals):
                if v == 0:
                    zeros[t] |= 1 << idx
            continue
        keep = [t for t, v in enumerate(vals) if v >= 0]
        pos = [t for t, v in enumerate(vals) if v > 0]
        neg = [t for t, v in enumerate(vals) if v < 0]
        new_rays = [rays[t] for t in keep]
        new_zeros = [zeros[t] | (1 << idx) if vals[t] == 0 else zeros[t] for t in keep]
        for p in pos:
            for q in neg:
                common = zeros[p] & zeros[q]
                if common.bit_count() < n - 2:
                    continue
                if any(
                    s != p and s != q and (zeros[s] & common) == common
                    for s in range(len(rays))
                ):
                    continue
                combo = tuple(
                    vals[p] * rays[q][i] - vals[q] * rays[p][i] for i in range(n)
                )
                new_rays.append(primitive_vector(combo))
                new_zeros.append(common | (1 << idx))
        rays, zeros = new_rays, new_zeros
    return rays


def _hull_2d(pts: list[RatVector]) -> RatPolytope:
    """Monotone-chain hull of lexicographically sorted distinct points."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[RatVector] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[RatVector] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    ring = lower[:-1] + upper[:-1]
    if len(ring) < 3:
        raise NotFullDimensional("points do not affinely span the ambient space")
    facets = set()
    for a, b in zip(ring, ring[1:] + ring[:1]):
        w, _ = clear_denominators((b[1] - a[1], a[0] - b[0]))
        u = primitive_vector(w)
        facets.add((u, Fraction(dot(u, a))))
    return RatPolytope(2, tuple(sorted(ring)), tuple(sorted(facets)))


def convex_hull(points: Sequence[Sequence]) -> RatPolytope:
    """Convex hull of finitely many rational points.

    The points must affinely span their ambient space (otherwise
    :class:`NotFullDimensional`), so that a facet inequality description
    exists; dimensions 0–2 are handled directly, higher dimensions by
    double description on the homogenization.
    """
    pts = sorted({rat_vector(p) for p in points})
    if not pts:
        raise InvalidParameters("hull of an empty point set")
    d = len(pts[0])
    for p in pts:
        if len(p) != d:
            raise DimensionMismatch("points of mixed dimensions")
    if d == 0:
        return RatPolytope(0, ((),), ())
    if d == 1:
        lo, hi = pts[0][0], pts[-1][0]
        if lo == hi:
            raise NotFullDimensional("points do not affinely span the ambient space")
        return RatPolytope(1, ((lo,), (hi,)), (((-1,), -lo), ((1,), hi)))
    if d == 2:
        return _hull_2d(pts)
    dual = _double_description([_homogenize(p) for p in pts], d + 1)
    facets = set()
    for y in dual:
        c = content(y[1:])
        u = tuple(-x // c for x in y[1:])
        facets.add((u, Fraction(y[0], c)))
    facet_tuple = tuple(sorted(facets))
    verts = []
    for p in pts:
        tight = [u for u, b in facet_tuple if dot(u, p) == b]
        if len(tight) >= d and matrix_rank(tight) == d:
            verts.append(p)
    return RatPolytope(d, tuple(verts), facet_tuple)


# --- volume -------------------------------------------------------------------


def _affine_rank(points: Sequence[RatVector]) -> int:
    base = points[0]
    return matrix_rank([vec_sub(p, base) for p in points[1:]])


def _triangulate(P: RatPolytope) -> list[tuple[RatVector, ...]]:
    """Partition into simplices by coning the lex-least vertex over the
    far facets (each facet triangulated recursively in projected coordinates)."""
    k = P.dim
    verts = P.vertices
    if k <= 1 or len(verts) == k + 1:
        return [verts]
    v0 = verts[0]
    out = []
    for u, b in P.facets:
        if dot(u, v0) == b:
            continue
        drop = next(i for i, x in enumerate(u) if x != 0)
        proj = {}
        for v in verts:
            if dot(u, v) == b:
                proj[v[:drop] + v[drop + 1 :]] = v
        for s in _triangulate(convex_hull(list(proj))):
            out.append((v0,) + tuple(proj[w] for w in s))
    return out


def normalized_volume(P: RatPolytope, sub: SublatticeBasis | None = None) -> Fraction:
    """Volume of ``P`` normalized so a fundamental cell of the lattice has
    volume 1.

    With ``sub`` omitted the lattice is ℤ^dim; otherwise ``sub`` must be a
    finite-index sublattice of ℤ^dim and the result is divided by its index
    (= the covolume of the sublattice).  Zero-dimensional polytopes have
    volume 1 by convention.
    """
    k = P.dim
    if sub is not None:
        if sub.ambient_dim != k or sub.rank != k:
            raise InvalidParameters(
                "normalizing sublattice must have finite index in ℤ^dim"
            )
        return normalized_volume(P) / abs(det(sub.rows))
    if k == 0:
        return Fraction(1)
    if _affine_rank(P.vertices) < k:
        return Fraction(0)
    total = Fraction(0)
    for s in _triangulate(P):
        total += abs(det([vec_sub(v, s[0]) for v in s[1:]]))
    return total / math.factorial(k)


# --- polytope arithmetic --------------------------------------------------------


def minkowski_sum(P: RatPolytope, Q: RatPolytope) -> RatPolytope:
    if P.dim != Q.dim:
        raise DimensionMismatch("summands live in different dimensions")
    return convex_hull([vec_add(v, w) for v in P.vertices for w in Q.vertices])


def difference_body(P: RatPolytope) -> RatPolytope:
    """The centrally symmetric body ``P + (−P)``."""
    return convex_hull([vec_sub(v, w) for v in P.vertices for w in P.vertices])


def translate(P: RatPolytope, w: Sequence) -> RatPolytope:
    if len(w) != P.dim:
        raise DimensionMismatch("translation vector has the wrong length")
    verts = tuple(sorted(rat_vector(vec_add(v, w)) for v in P.vertices))
    facets = tuple(sorted((u, Fraction(b + dot(u, w))) for u, b in P.facets))
    return RatPolytope(P.dim, verts, facets)


def reflect_about(P: RatPolytope, z: Sequence) -> RatPolytope:
    """Point reflection ``x ↦ 2z − x``."""
    if len(z) != P.dim:
        raise DimensionMismatch("center has the wrong length")
    double = tuple(2 * Fraction(x) for x in z)
    verts = tuple(sorted(rat_vector(vec_sub(double, v)) for v in P.vertices))
    facets = tuple(
        sorted(
            (tuple(-x for x in u), Fraction(b - 2 * dot(u, z))) for u, b in P.facets
        )
    )
    return RatPolytope(P.dim, verts, facets)


def scale_about(P: RatPolytope, t, z: Sequence) -> RatPolytope:
    """Dilation ``x ↦ z + t(x − z)`` with a positive rational factor."""
    t = Fraction(t)
    if t <= 0:
        raise InvalidParameters("scale factor must be positive")
    if len(z) != P.dim:
        raise DimensionMismatch("center has the wrong length")
    zf = rat_vector(z)
    verts = tuple(
        sorted(tuple(a + t * (x - a) for a, x in zip(zf, v)) for v in P.vertices)
    )
    facets = tuple(
        sorted((u, Fraction(t * b + (1 - t) * dot(u, z))) for u, b in P.facets)
    )
    return RatPolytope(P.dim, verts, facets)


def max_gamma(S: RatPolytope, z: Sequence) -> Fraction:
    """Largest γ with ``z + γ(S − S) ⊆ S`` for an interior point ``z``.

    Computed facetwise as slack over the width of ``S − S`` in the normal
    direction; dilating ``S`` about ``z`` scales slack and width alike, so
    the result only depends on the shape of ``S`` around ``z``.
    """
    if len(z) != S.dim:
        raise DimensionMismatch("center has the wrong length")
    if not S.facets:
        raise InvalidParameters("the polytope has no facets")
    best = None
    for u, b in S.facets:
        slack = b - dot(u, z)
        if slack <= 0:
            raise PointNotInterior(f"center violates or touches facet {u}")
        width = S.support(u) + S.support(tuple(-x for x in u))
        g = Fraction(slack) / width
        if best is None or g < best:
            best = g
    return best


def cone_over(height, Q: RatPolytope) -> RatPolytope:
    """Pyramid ``conv({0} ∪ {height} × Q)`` in one more dimension."""
    h = Fraction(height)
    if h <= 0:
        raise InvalidParameters("cone height must be positive")
    apex = (Fraction(0),) * (Q.dim + 1)
    return convex_hull([apex] + [(h,) + v for v in Q.vertices])


# --- lattice points --------------------------------------------------------------


def _projection_levels(P: RatPolytope) -> list[list[Facet]]:
    """Per depth ``k``, the facets of the projection of ``P`` onto its first
    ``k + 1`` coordinates that involve coordinate ``k``.

    The projection is the hull of the vertices cut to ``k + 1`` coordinates,
    so each level comes from hulling the level above; the last depth is
    ``P.facets`` itself.  Facets with a zero entry ``k`` are the preimages of
    the next level down and are left out."""
    levels = [[f for f in P.facets if f[0][-1] != 0]]
    verts = P.vertices
    for k in range(P.dim - 2, -1, -1):
        proj = convex_hull([v[: k + 1] for v in verts])
        levels.append([f for f in proj.facets if f[0][k] != 0])
        verts = proj.vertices
    return levels[::-1]


def _iter_points(P: RatPolytope, scale: int, strict: bool):
    if not isinstance(scale, int) or scale < 1:
        raise InvalidParameters("scale must be a positive integer")
    d = P.dim
    if d == 0:
        yield ()
        return
    if not P.facets:
        raise UnboundedRegion("polytope carries no facet description")
    # The interior of a projection is the projection of the interior, so
    # strict membership rounds every level's bound down past equality.
    levels = [
        [
            (u, math.ceil(scale * b) - 1 if strict else math.floor(scale * b))
            for u, b in level
        ]
        for level in _projection_levels(P)
    ]
    y = [0] * d

    def walk(k: int):
        lo, hi = None, None
        for w, c in levels[k]:
            rest = c - sum(w[i] * y[i] for i in range(k))
            a = w[k]
            if a > 0:
                bound = rest // a
                hi = bound if hi is None else min(hi, bound)
            else:
                bound = -(rest // (-a))
                lo = bound if lo is None else max(lo, bound)
        if lo is None or hi is None:
            raise UnboundedRegion("facets do not bound the region")
        if k == d - 1:
            for t in range(lo, hi + 1):
                y[k] = t
                yield tuple(y)
        else:
            for t in range(lo, hi + 1):
                y[k] = t
                yield from walk(k + 1)

    yield from walk(0)


def enumerate_points(
    P: RatPolytope, scale: int = 1, strict: bool = False
) -> tuple[IntVector, ...]:
    """Integer vectors ``y`` with ``y/scale ∈ P``, in lexicographic order.

    With ``strict`` the membership is in the interior.  Equivalently this
    lists the lattice points of the dilate ``scale·P``; callers wanting
    points of ``P ∩ (1/scale)ℤ^d`` divide the results by ``scale``.  The
    walk fixes one coordinate at a time within the exact projections of
    ``scale·P`` onto its leading coordinates, each taken as the convex hull
    of the vertices cut to those coordinates.
    """
    return tuple(_iter_points(P, scale, strict))


def any_lattice_point(P: RatPolytope, scale: int = 1, strict: bool = False) -> bool:
    """Whether ``scale·P`` (or its interior) contains an integer vector;
    stops at the first hit instead of enumerating everything."""
    for _ in _iter_points(P, scale, strict):
        return True
    return False
