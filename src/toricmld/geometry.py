"""Exact convex geometry over ℚ: hulls, volumes, lattice-point enumeration.

The central type is :class:`RatPolytope`, a bounded rational polytope kept
as integer vertex rows and integer facets over one common denominator, so
hulls, transforms, volumes and enumeration run in ``int``; ``Fraction``
appears only at the API boundary.  Hulls are a monotone chain in 2D and an
exact incremental double-description pass on homogenized points above, so
no floating point enters at any stage.  A polytope also carries its
vertex–facet incidence, one bitmask of vertex rows per facet: hulls above
2D report the tight sets their double description already keeps, and
volumes are a pulling triangulation over those bitmasks.  Pyramids, the
bipyramid of the certificate and the difference body of a simplex of
dimension ≥ 3 get their facets in closed form, checked against their
vertices, so none is ever hulled.  The lattice-point walk projects a
polytope one coordinate at a time through the ridges of the facets and
incidence it already carries (Fourier–Motzkin restricted to adjacent
facets), for its projection levels and its objective cuts alike, so no
walk hulls.  Polytopes of dimension ≥ 1
produced by :func:`convex_hull` are full-dimensional in their ambient
space; lower-dimensional data should be re-coordinatized (e.g. with
:class:`~toricmld.lattice.SublatticeBasis`) before building hulls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from operator import mul
from typing import Sequence

from .errors import (
    CheckFailed,
    DimensionMismatch,
    InvalidParameters,
    NotFullDimensional,
    PointNotInterior,
    UnboundedRegion,
)
from .lattice import (
    IntMatrix,
    IntVector,
    RatVector,
    _identity,
    dot,
    int_inverse,
    matrix_rank,
    pivot_inverse,
    primitive_vector,
    vec_sub,
)

IntFacet = tuple[IntVector, int]


@dataclass(frozen=True)
class RatPolytope:
    """A bounded rational polytope in canonical fraction-free form.

    ``den`` is the least common denominator of the vertex coordinates and
    ``rows`` the lex-sorted integer rows ``den·vertex``; ``int_facets`` are
    sorted pairs ``(u, c)`` of a primitive integer outer normal and an
    integer offset, encoding ``⟨u, row⟩ ≤ c``, i.e. ``⟨u, x⟩ ≤ c/den``.
    ``vertices`` is a read-only :class:`~fractions.Fraction` view of the
    rows in the same order.  ``_incidence`` holds, per facet, the bitmask
    of the rows it is tight on (bit ``i`` for ``rows[i]``), and
    ``_spanning`` the tight sets whose span the pyramids over it take as
    known (:func:`_lifted`).  ``_basis`` is the
    walk basis ``(U, U⁻¹)`` and, once a walk has picked it, the cache holds
    the frame ``U·P`` as ``_reduced`` (:func:`_reduced_frame`).  A
    zero-dimensional polytope is the single empty row with no facets.
    """

    dim: int
    den: int
    rows: tuple[IntVector, ...]
    int_facets: tuple[IntFacet, ...]

    @cached_property
    def vertices(self) -> tuple[RatVector, ...]:
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self.rows)

    @cached_property
    def _incidence(self) -> tuple[int, ...]:
        return tuple(
            sum(1 << i for i, r in enumerate(self.rows) if dot(u, r) == c)
            for u, c in self.int_facets
        )

    @cached_property
    def _spanning(self) -> frozenset[int]:
        """The tight sets of the facets whose rows affinely span a hyperplane,
        and the set of all rows when one of those misses a row: the rows
        then span the space."""
        full = (1 << len(self.rows)) - 1
        out = {
            m for m in self._incidence
            if m != full and _spans_hyperplane(
                [r for i, r in enumerate(self.rows) if m >> i & 1], self.dim
            )
        }
        return frozenset(out | {full} if out else out)

    @cached_property
    def _levels(self) -> tuple[tuple[IntFacet, ...], ...]:
        return _projection_levels(self)

    @cached_property
    def _basis(self) -> tuple[IntMatrix, IntMatrix] | None:
        return _scatter_basis(self)

    def contains(self, point: Sequence, strict: bool = False) -> bool:
        if len(point) != self.dim:
            raise DimensionMismatch("point has the wrong length")
        (p,), m = _clear_rows([point])
        for u, c in self.int_facets:
            val, bound = self.den * dot(u, p), c * m
            if val > bound or (strict and val == bound):
                return False
        return True


def _exact(x) -> Fraction:
    """``x``, an ``int`` or a ``Fraction``, as a ``Fraction``; anything else,
    a ``bool``, a ``float`` or a ``str`` included, raises
    :class:`InvalidParameters` rather than being rounded or parsed."""
    if type(x) is int or isinstance(x, Fraction):
        return Fraction(x)
    raise InvalidParameters(f"{x!r} is not an int or a Fraction")


def _clear_rows(points) -> tuple[list[IntVector], int]:
    """The points as integer rows over the least common denominator of all
    their coordinates, each an ``int`` or a ``Fraction`` (:func:`_exact`)."""
    pts = [tuple(p) for p in points]
    if all(type(x) is int for p in pts for x in p):
        return pts, 1
    fracs = [[_exact(x) for x in p] for p in pts]
    den = math.lcm(*(x.denominator for p in fracs for x in p))
    return [tuple(x.numerator * (den // x.denominator) for x in p) for p in fracs], den


def _canonical(dim: int, den: int, rows, facets, incidence=None) -> RatPolytope:
    """``(rows, facets)`` over ``den`` with the common factor of ``den`` and
    the rows divided out (it divides each offset: facets are tight); a known
    ``incidence`` is kept, as dividing changes no tight set."""
    g = math.gcd(den, *chain.from_iterable(rows))
    if g > 1:
        den //= g
        rows = tuple(tuple(x // g for x in r) for r in rows)
        facets = tuple((u, c // g) for u, c in facets)
    P = RatPolytope(dim, den, tuple(rows), tuple(facets))
    if incidence is not None:
        vars(P)["_incidence"] = tuple(incidence)
    return P


def _double_description(
    cons: list[IntVector], n: int
) -> tuple[list[IntVector], list[int]]:
    """Extreme rays of the pointed full-dimensional cone ``{y : ⟨c, y⟩ ≥ 0}``
    and, per ray, the bitmask of the constraints tight on it (bit ``i`` for
    ``cons[i]``).

    ``cons`` must contain ``n`` linearly independent vectors; those seed a
    simplicial cone whose rays are refined one constraint at a time, with
    adjacency decided combinatorially from the tight-set bitmasks.
    """
    seed, B, D = pivot_inverse(tuple(zip(*cons)))
    if len(seed) < n:
        raise NotFullDimensional("points do not affinely span the ambient space")
    seeds = set(seed)
    order = seed + [i for i in range(len(cons)) if i not in seeds]
    sign = 1 if D > 0 else -1
    rays: list[IntVector] = []
    zeros: list[int] = []
    full = sum(1 << i for i in seed)
    for j in range(n):
        # ⟨cons[seed[i]], B[j]⟩ = D·[i = j]
        rays.append(primitive_vector([sign * x for x in B[j]]))
        zeros.append(full ^ (1 << seed[j]))
    for idx in order[n:]:
        c = cons[idx]
        vals = [dot(c, r) for r in rays]
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
    return rays, zeros


def _hull_2d(pts: list[IntVector]) -> tuple[list[IntVector], list[IntFacet]]:
    """Monotone-chain hull of lexicographically sorted distinct points."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[IntVector] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[IntVector] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    ring = lower[:-1] + upper[:-1]
    if len(ring) < 3:
        raise NotFullDimensional("points do not affinely span the ambient space")
    facets = []
    for a, b in zip(ring, ring[1:] + ring[:1]):
        x, y = b[1] - a[1], a[0] - b[0]
        g = math.gcd(x, y)
        facets.append(((x // g, y // g), (x * a[0] + y * a[1]) // g))
    return sorted(ring), facets


def _meet(masks: Sequence[int], i: int) -> int:
    """The bitmask of the points on every facet through point ``i`` (all
    bits when none is): exactly ``1 << i`` when ``i`` is a vertex."""
    bit, meet = 1 << i, -1
    for mask in masks:
        if mask & bit:
            meet &= mask
    return meet


def convex_hull(points: Sequence[Sequence], den: int = 1) -> RatPolytope:
    """Convex hull of finitely many rational points, each divided by the
    positive integer ``den``.

    The points must affinely span their ambient space (otherwise
    :class:`NotFullDimensional`), so that a facet inequality description
    exists; dimensions 0–2 are handled directly, higher dimensions by
    double description on the homogenization, all on the points' integer
    rows over one common denominator.  Above 2D the hull keeps the tight
    sets of its facets as its incidence, and a point is a vertex exactly
    when the facets tight at it meet in it alone.
    """
    if type(den) is not int or den < 1:
        raise InvalidParameters(f"den must be a positive integer, got {den!r}")
    rows, m = _clear_rows(points)
    den *= m
    if not rows:
        raise InvalidParameters("hull of an empty point set")
    d = len(rows[0])
    for r in rows:
        if len(r) != d:
            raise DimensionMismatch("points of mixed dimensions")
    if d == 0:
        return RatPolytope(0, 1, ((),), ())
    pts = sorted(set(rows))
    if d == 1:
        lo, hi = pts[0][0], pts[-1][0]
        if lo == hi:
            raise NotFullDimensional("points do not affinely span the ambient space")
        verts, facets = [pts[0], pts[-1]], [((-1,), -lo), ((1,), hi)]
    elif d == 2:
        verts, facets = _hull_2d(pts)
    else:
        tight = {}
        for y, mask in zip(*_double_description([(1,) + p for p in pts], d + 1)):
            c = math.gcd(*y[1:])
            tight[(tuple(-x // c for x in y[1:]), y[0] // c)] = mask
        masks = list(tight.values())
        keep = [i for i in range(len(pts)) if _meet(masks, i) == 1 << i]
        facets = sorted(tight)
        incidence = [
            sum(1 << k for k, i in enumerate(keep) if tight[f] >> i & 1) for f in facets
        ]
        return _canonical(d, den, [pts[i] for i in keep], facets, incidence)
    return _canonical(d, den, verts, sorted(set(facets)))


# --- volume -------------------------------------------------------------------


def _pulling(face: int, facets: Sequence[int], k: int):
    """Bitmasks of the simplices of a pulling triangulation of the
    ``k``-dimensional face ``face``, not a simplex, given the bitmasks of
    its facets: the face is its lowest vertex coned over the
    triangulations of its facets that miss that vertex, a facet with ``k``
    vertices being a simplex already.  The facets of a
    facet ``G`` are the inclusion-maximal sets ``G ∩ H`` with at least ``k −
    1`` vertices, ``H`` another facet."""
    low = face & -face
    for g in facets:
        if g & low:
            continue
        if g.bit_count() == k:
            yield g | low
            continue
        ridges: list[int] = []
        for r in sorted({g & h for h in facets} - {g}, key=int.bit_count, reverse=True):
            if r.bit_count() < k - 1:
                break
            if all(r & m != r for m in ridges):
                ridges.append(r)
        for s in _pulling(g, ridges, k - 1):
            yield s | low


def _det_sum(rows: Sequence[IntVector], simplices: Sequence[int]) -> int:
    """``Σ |det(v − v0)|`` over the simplices, bitmasks of ``rows`` whose
    lowest row is ``v0``.  Consecutive simplices of a pulling triangulation
    share their leading, pulled rows, so one fraction-free (Bareiss)
    elimination is carried along the rows a simplex shares with the one
    before it: ``stack[t]`` is its row ``t + 1`` reduced by the rows before
    it, with its pivot column and pivot, and a simplex reduces only the
    rows it does not share.  Its last pivot is ``±det``."""
    total, prev, stack = 0, [], []
    for s in simplices:
        idx = []
        while s:
            low = s & -s
            idx.append(low.bit_length() - 1)
            s ^= low
        p = 0
        while p < len(prev) and prev[p] == idx[p]:
            p += 1
        if p == 0:
            stack, v0 = [], rows[idx[0]]
            diffs = [[x - y for x, y in zip(r, v0)] for r in rows]
        del stack[max(p - 1, 0) :]
        for i in idx[len(stack) + 1 :]:
            r, last = diffs[i], 1
            for pr, c, pv in stack:
                f = r[c]
                r = [(pv * x - f * y) // last for x, y in zip(r, pr)]
                last = pv
            for c, x in enumerate(r):
                if x:
                    stack.append((r, c, x))
                    break
            else:  # a flat simplex: its rows do not stay on the stack
                break
        else:
            total += abs(stack[-1][2])
        prev = idx[: len(stack) + 1]
    return total


def normalized_volume(P: RatPolytope) -> Fraction:
    """Volume of ``P`` normalized so a fundamental cell of ℤ^dim has volume
    1.  Zero-dimensional polytopes have volume 1 by convention.  The volume
    is a pulling triangulation of ``P``'s own rows over its vertex–facet
    incidence, found by bitmask intersections alone (a simplex needs none):
    only its simplices take a determinant on the integer rows
    (:func:`_det_sum`), and their sum is divided once by ``den^dim·dim!``.
    """
    k = P.dim
    if k == 0:
        return Fraction(1)
    rows, full = P.rows, (1 << len(P.rows)) - 1
    simplices = (full,) if len(rows) == k + 1 else _pulling(full, P._incidence, k)
    return Fraction(_det_sum(rows, simplices), P.den**k * math.factorial(k))


# --- polytope arithmetic --------------------------------------------------------


def difference_body(P: RatPolytope) -> RatPolytope:
    """The centrally symmetric body ``P + (−P)``: in closed form for a
    simplex of dimension ≥ 3, hulled for any other polytope and up to 2D,
    where the hull costs less than checking the closed form.

    For a ``k``-simplex with rows ``v_0 < … < v_k``, let ``ℓ_1 … ℓ_k`` be the
    columns of ``B`` with ``(v_i − v_0)_i·B = D·I`` and ``ℓ_0 = −Σ ℓ_i``:
    ``⟨ℓ_i, x − y⟩/D`` is the difference of the ``i``-th barycentric
    coordinates of ``x`` and ``y``.  The body's rows are the ``v_a − v_b``,
    ``a ≠ b``, and it has one facet per proper nonempty ``I``,
    ``⟨sign(D)·Σ_{i∈I} ℓ_i, x⟩ ≤ |D|``, made primitive (Rogers & Shephard
    1957).  That facet is tight on the ``v_a − v_b`` with ``a ∈ I``, ``b ∉
    I``: the face ``F_I − F_{I^c}``, a sum of two faces with complementary
    directions, so it spans a hyperplane.  :func:`_checked` takes those
    sets as spanning and the body keeps them as its ``_spanning``, so the
    pyramids over its homothets take no rank test."""
    k, rows = P.dim, P.rows
    if k <= 2 or len(rows) != k + 1:
        return convex_hull([vec_sub(v, w) for v in rows for w in rows], P.den)
    B, D = int_inverse([vec_sub(v, rows[0]) for v in rows[1:]])
    s = 1 if D > 0 else -1
    ells = [tuple(s * x for x in col) for col in zip(*B)]
    ells.insert(0, tuple(-sum(c) for c in zip(*ells)))
    n = range(k + 1)
    diffs = sorted((vec_sub(rows[a], rows[b]), a, b) for a in n for b in n if a != b)
    source, target = [0] * (k + 1), [0] * (k + 1)
    for i, (_, a, b) in enumerate(diffs):
        source[a] |= 1 << i
        target[b] |= 1 << i
    # per vertex set I: Σ_{i∈I} ℓ_i, the rows v_a − v_b with a ∈ I and those with b ∈ I
    sums, out, into = [(0,) * k], [0], [0]
    facets, spanned = [], set()
    for I in range(1, (1 << (k + 1)) - 1):
        i = (I & -I).bit_length() - 1
        rest = I & (I - 1)
        sums.append(tuple(x + y for x, y in zip(sums[rest], ells[i])))
        out.append(out[rest] | source[i])
        into.append(into[rest] | target[i])
        g = math.gcd(*sums[I])
        facets.append((tuple(x // g for x in sums[I]), abs(D) // g))
        spanned.add(out[I] & ~into[I])
    body = _checked(k, P.den, [r for r, _, _ in diffs], facets, frozenset(spanned))
    vars(body)["_spanning"] = frozenset(spanned | {(1 << len(diffs)) - 1})
    return body


def _affine_image(P: RatPolytope, a: int, b: int, w: IntVector, den: int) -> RatPolytope:
    """``row ↦ a·row + b·w`` over the new denominator ``den``; with
    ``a > 0`` the vertex and facet orders are unchanged, so the incidence,
    spanning tight sets, projection levels and reduced frame that ``P`` has
    built carry over.
    The basis ``U`` is carried whenever ``P`` has taken it: it depends only
    on the vertex scatter, which a translate leaves as it is and a positive
    homothet multiplies by a square, and LLL reduction is blind to a
    positive factor of the Gram matrix.  Whether to walk in ``U·P`` is
    decided per walk, at the walked scale (:func:`_reduced_frame`)."""

    def image(facets, g=1):
        return tuple((u, (a * c + b * sum(map(mul, u, w))) // g) for u, c in facets)

    rows = tuple(tuple(a * x + b * y for x, y in zip(r, w)) for r in P.rows)
    cache = vars(P)
    Q = _canonical(P.dim, den, rows, image(P.int_facets), cache.get("_incidence"))
    if "_levels" in cache:  # divided by the content den/Q.den like the facets
        vars(Q)["_levels"] = tuple(image(lv, den // Q.den) for lv in cache["_levels"])
    for name in ("_spanning", "_basis"):
        if name in cache:
            vars(Q)[name] = cache[name]
    if "_reduced" in cache:
        Uw = tuple(dot(r, w) for r in cache["_basis"][0])
        vars(Q)["_reduced"] = _affine_image(cache["_reduced"], a, b, Uw, den)
    return Q


def translate(P: RatPolytope, w: Sequence) -> RatPolytope:
    if len(w) != P.dim:
        raise DimensionMismatch("translation vector has the wrong length")
    (wr,), m = _clear_rows([w])
    den = math.lcm(P.den, m)
    return _affine_image(P, den // P.den, den // m, wr, den)


def scale_about(P: RatPolytope, t, z: Sequence) -> RatPolytope:
    """Dilation ``x ↦ z + t(x − z)`` with a positive rational factor."""
    t = _exact(t)
    if t <= 0:
        raise InvalidParameters("scale factor must be positive")
    if len(z) != P.dim:
        raise DimensionMismatch("center has the wrong length")
    (zr,), m = _clear_rows([z])
    p, q = t.numerator, t.denominator
    den = math.lcm(P.den, m)
    return _affine_image(P, p * (den // P.den), (q - p) * (den // m), zr, q * den)


def max_gamma(S: RatPolytope, z: Sequence) -> Fraction:
    """Largest γ with ``z + γ(S − S) ⊆ S`` for an interior point ``z``.

    Computed facetwise as slack over the width of ``S − S`` in the normal
    direction; dilating ``S`` about ``z`` scales slack and width alike, so
    the result only depends on the shape of ``S`` around ``z``.
    """
    if len(z) != S.dim:
        raise DimensionMismatch("center has the wrong length")
    if not S.int_facets:
        raise InvalidParameters("the polytope has no facets")
    (zr,), m = _clear_rows([z])
    best = None
    for u, c in S.int_facets:
        # both scaled by den·m
        slack = c * m - S.den * dot(u, zr)
        if slack <= 0:
            raise PointNotInterior(f"center violates or touches facet {u}")
        vals = [dot(u, r) for r in S.rows]
        width = (max(vals) - min(vals)) * m
        if best is None or slack * best[1] < best[0] * width:
            best = (slack, width)
    return Fraction(*best)


def _apex_facets(apex: IntVector, top: int, facets) -> list[IntFacet]:
    """The facets through ``apex`` of its pyramid over ``{top} × Q``, all in
    row units: one per facet ``(u, c)`` of ``Q``, the hyperplane through the
    apex and ``{top} × {⟨u, ·⟩ = c}``, oriented so that ``Q`` lies below."""
    a0, a = apex[0], apex[1:]
    s = 1 if top > a0 else -1
    out = []
    for u, c in facets:
        w = (s * (sum(map(mul, u, a)) - c),) + tuple(s * (top - a0) * x for x in u)
        g = math.gcd(*w)
        w = tuple(x // g for x in w)
        out.append((w, sum(map(mul, w, apex))))
    return out


def _spans_hyperplane(tight: Sequence[IntVector], dim: int) -> bool:
    """Whether the distinct rows ``tight`` affinely span a hyperplane of
    ℚ^dim, or more; they span a point or a line, so the rank is needed from
    3D on."""
    return len(tight) >= dim and (
        dim <= 2 or matrix_rank([vec_sub(r, tight[0]) for r in tight[1:]]) >= dim - 1
    )


def _checked(dim: int, den: int, rows, facets, spanned=frozenset()) -> RatPolytope:
    """The polytope with vertex rows ``rows`` (lex-sorted) and the facets
    ``facets`` built in closed form, verified in the one dot pass that also
    yields its incidence.  It certifies validity (every row satisfies every
    facet), spanning (each facet is tight on rows that affinely span a
    hyperplane), distinctness (no two facets are tight on the same rows) and
    vertices (the facets tight at each row meet in it alone).  A tight set
    in ``spanned`` is known to span (:func:`_lifted`); any other takes a
    rank test.  A violation raises :class:`CheckFailed`.

    It does not certify completeness: a facet left out at a non-simple
    vertex can leave every other fact true (drop any one facet of the
    cuboctahedron, the unit tetrahedron's difference body).  The caller
    owns that: a complete base for the pyramids, the enumeration of the
    vertex splits for the difference body, the cone record for the slab."""
    facets = sorted(facets)
    incidence = []
    for u, c in facets:
        mask, tight = 0, []
        for i, r in enumerate(rows):
            v = sum(map(mul, u, r))
            if v > c:
                raise CheckFailed("closed-form-facets", f"a vertex violates facet {u}")
            if v == c:
                mask |= 1 << i
                tight.append(r)
        if mask not in spanned and not _spans_hyperplane(tight, dim):
            raise CheckFailed("closed-form-facets", f"facet {u} is not spanned by vertices")
        incidence.append(mask)
    if len(set(incidence)) < len(incidence):
        raise CheckFailed("closed-form-facets", "two facets are tight on the same vertices")
    if any(_meet(incidence, i) != 1 << i for i in range(len(rows))):
        raise CheckFailed("closed-form-facets", "a row is not a vertex")
    return _canonical(dim, den, rows, facets, incidence)


def _lifted(Q: RatPolytope, apexes: Sequence[int], top: bool) -> frozenset[int]:
    """The tight sets of a pyramid or bipyramid over ``Q`` whose span ``Q``
    settles, in its own dimension and once (``Q._spanning``).  Base row
    ``i`` is its bit ``i + 1`` and the apexes sit at the bits ``apexes``.
    An apex with a facet's tight set spans a hyperplane exactly when that
    set spans one in ``Q``; the whole base, the top facet when ``top``, does
    when ``Q``'s rows span its space.  Up to 2D no rank is taken anyway."""
    if Q.dim < 2:
        return frozenset()
    full = (1 << len(Q.rows)) - 1
    out = {m << 1 | a for m in Q._spanning - {full} for a in apexes}
    if top and full in Q._spanning:
        out.add(full << 1)
    return frozenset(out)


def cone_over(height, Q: RatPolytope) -> RatPolytope:
    """Pyramid ``conv({0} ∪ {height} × Q)`` in one more dimension.

    Built in closed form, not hulled: its facets are the top ``{height} ×
    Q`` and one through the apex per facet of ``Q`` (for a point ``Q``, the
    apex itself), checked against the vertices as in :func:`bipyramid`.
    """
    h = _exact(height)
    if h <= 0:
        raise InvalidParameters("cone height must be positive")
    top, k = h.numerator * Q.den, Q.dim
    apex = (0,) * (k + 1)
    base = [(top,) + tuple(h.denominator * x for x in r) for r in Q.rows]
    sides = [((-1,), 0)]
    if k:
        sides = _apex_facets(apex, top, [(u, h.denominator * c) for u, c in Q.int_facets])
    top_facet = ((1,) + (0,) * k, top)
    return _checked(
        k + 1, h.denominator * Q.den, [apex] + base, sides + [top_facet], _lifted(Q, (1,), True)
    )


def bipyramid(height, Q: RatPolytope, z: Sequence) -> RatPolytope:
    """The bipyramid ``conv({0, 2·(height, z)} ∪ {height} × Q)`` over a
    polytope ``Q`` of dimension ≥ 1 with ``z`` interior to it.

    Built in closed form, not hulled: two facets per facet of ``Q``, one
    through each apex.  The facets are verified against the vertices in one
    dot pass (every vertex satisfies every facet, each facet is tight on an
    affinely spanning set that no other facet shares, every vertex is one),
    so a ``z`` that is not interior to ``Q`` raises :class:`CheckFailed`.
    """
    h = _exact(height)
    if h <= 0:
        raise InvalidParameters("bipyramid height must be positive")
    if len(z) != Q.dim:
        raise DimensionMismatch("center has the wrong length")
    if Q.dim < 1:
        raise InvalidParameters("a bipyramid needs a base of dimension >= 1")
    (zr,), m = _clear_rows([z])
    den = math.lcm(h.denominator * Q.den, m)
    top, f = h.numerator * (den // h.denominator), den // Q.den
    apex = (2 * top,) + tuple(2 * (den // m) * x for x in zr)
    base = [(top,) + tuple(f * x for x in r) for r in Q.rows]
    base_facets = [(u, f * c) for u, c in Q.int_facets]
    facets = _apex_facets((0,) * (Q.dim + 1), top, base_facets)
    facets += _apex_facets(apex, top, base_facets)
    rows = [(0,) * (Q.dim + 1)] + base + [apex]
    spanned = _lifted(Q, (1, 1 << len(rows) - 1), False)
    return _checked(Q.dim + 1, den, rows, facets, spanned)


# --- lattice points --------------------------------------------------------------


def _eliminate(
    facets: Sequence[IntFacet], masks: Sequence[int], c: int, n: int
) -> tuple[list[IntFacet], list[int]]:
    """The facets of a full-dimensional polytope's projection that drops
    coordinate ``c``, with their tight sets, from its ``facets`` and their
    tight sets ``masks`` over its ``n`` rows: Fourier–Motzkin restricted to
    ridges.  A facet with ``u[c] = 0`` projects to a facet on the same rows.
    Two facets with opposite signs at ``c`` give their primitive
    combination, tight on their common rows, exactly when they meet in a
    ridge: by the combinatorial test of double description (Fukuda &
    Prodon 1996), when the facets tight at every common row are those two
    alone, which one bitmask of facets per row decides with one AND per
    common row.  No other facet of the projection arises, and none twice,
    so the tight sets stay over the same rows."""
    at = [0] * n
    for j, m in enumerate(masks):
        while m:
            low = m & -m
            at[low.bit_length() - 1] |= 1 << j
            m ^= low
    out, out_masks, pos, neg = [], [], [], []
    for j, (u, b) in enumerate(facets):
        if u[c] > 0:
            pos.append(j)
        elif u[c] < 0:
            neg.append(j)
        else:
            out.append((u[:c] + u[c + 1 :], b))
            out_masks.append(masks[j])
    for p in pos:
        up, bp = facets[p]
        for q in neg:
            common = masks[p] & masks[q]
            if common.bit_count() < len(up) - 1:  # a ridge has at least dim − 1 vertices
                continue
            pair, meet, m = 1 << p | 1 << q, -1, common
            while m and meet != pair:
                low = m & -m
                meet &= at[low.bit_length() - 1]
                m ^= low
            if meet != pair:
                continue
            uq, bq = facets[q]
            a, e = up[c], -uq[c]
            v = [e * x + a * y for x, y in zip(up, uq)]
            del v[c]
            g = math.gcd(*v)
            out.append((tuple(x // g for x in v), (e * bp + a * bq) // g))
            out_masks.append(common)
    return out, out_masks


def _projection_levels(P: RatPolytope) -> tuple[tuple[IntFacet, ...], ...]:
    """Per depth ``k < dim − 1`` (the last is ``P.int_facets``), the facets
    of the projection of ``P`` onto its first ``k + 1`` coordinates: from
    ``P``'s facets and incidence, one trailing coordinate eliminated at a
    time (:func:`_eliminate`), and at depth 0 the range of the first
    coordinate over the rows, so a polygon needs no incidence.  The walk
    skips facets with a zero entry k."""
    levels = []
    if P.dim > 2:
        facets, masks = P.int_facets, P._incidence
        for c in range(P.dim - 1, 1, -1):
            facets, masks = _eliminate(facets, masks, c, len(P.rows))
            levels.append(tuple(facets))
    if P.dim > 1:
        first = [r[0] for r in P.rows]
        levels.append((((-1,), -min(first)), ((1,), max(first))))
    return tuple(levels[::-1])


def _objective_cuts(P: RatPolytope, w: IntVector) -> list[list[IntFacet]]:
    """Per depth ``k`` below the last nonzero entry ``kw`` of ``w``, the
    facets ``⟨v, (y[:k+1], t)⟩ ≤ c`` with ``v[k+1] < 0`` of the projection of
    ``P`` under ``y ↦ (y[:k+1], ⟨w, y⟩)``: those bound ``t`` from below.
    Replacing ``y[kw]`` by ``t = ⟨w, y⟩`` maps ``P`` one to one, so with
    ``w[kw] = s·a``, ``a > 0``, a facet ``⟨u, y⟩ ≤ c`` of ``P`` maps to the
    facet ``⟨a·u − s·u[kw]·w, y⟩ + s·u[kw]·t ≤ a·c`` (entry ``kw`` of the
    first part left out), made primitive, on the same rows.  The trailing
    coordinates and then ``y[kw−1], y[kw−2], …`` are eliminated from that
    image (:func:`_eliminate`); a polygon needs no elimination."""
    kw = max((i for i, x in enumerate(w) if x), default=0)
    if not kw:
        return []
    a, s = abs(w[kw]), (1 if w[kw] > 0 else -1)
    facets = []
    for u, c in P.int_facets:
        m = s * u[kw]
        if m >= 0 and P.dim == 2:  # a polygon's image is its one cut: lower bounds on t
            continue
        v = [a * x - m * y for x, y in zip(u, w)]
        v[kw] = m
        g = math.gcd(*v)
        facets.append((tuple(x // g for x in v), a * c // g) if g > 1 else (tuple(v), a * c))
    if P.dim == 2:
        return [facets]
    masks, n = P._incidence, len(P.rows)
    for i in range(P.dim - 1, kw, -1):
        facets, masks = _eliminate(facets, masks, i, n)
    cuts = []
    for k in range(kw - 1, -1, -1):
        cuts.append([(v, c) for v, c in facets if v[k + 1] < 0])
        if k:
            facets, masks = _eliminate(facets, masks, k, n)
    return cuts[::-1]


def _lll(G: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """``(U, U⁻¹)``, the rows of ``U`` an LLL-reduced basis (δ = 3/4) of ℤ^n
    under the positive definite Gram matrix ``G``: integral LLL (Cohen 1993,
    Alg. 2.6.7), 1-based, ``dd[i]`` the Gram determinant of the first ``i``
    rows, ``lam[k][j] = dd[j]·μ_kj`` and ``C`` the columns of ``U⁻¹``."""
    n = len(G)
    B, C = [None] + _identity(n), [None] + _identity(n)
    dd, lam = [1, G[0][0]] + [0] * (n - 1), [[0] * (n + 1) for _ in range(n + 1)]

    def reduce(k: int, l: int) -> None:
        q = (2 * lam[k][l] + dd[l]) // (2 * dd[l])
        if q:
            B[k] = [x - q * y for x, y in zip(B[k], B[l])]
            C[l] = [x + q * y for x, y in zip(C[l], C[k])]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]
            lam[k][l] -= q * dd[l]

    k, kmax = 2, 1
    while k <= n:
        if k > kmax:  # B[k] is still the unit vector e_k
            kmax = k
            for j in range(1, k + 1):
                u = sum(map(mul, G[k - 1], B[j]))
                for i in range(1, j):
                    u = (dd[i] * u - lam[k][i] * lam[j][i]) // dd[i - 1]
                lam[k][j] = u
            dd[k] = u
        reduce(k, k - 1)
        la = lam[k][k - 1]
        if 4 * dd[k] * dd[k - 2] >= 3 * dd[k - 1] ** 2 - 4 * la * la:
            for l in range(k - 2, 0, -1):
                reduce(k, l)
            k += 1
            continue
        B[k - 1], B[k], C[k - 1], C[k] = B[k], B[k - 1], C[k], C[k - 1]
        lam[k - 1][1 : k - 1], lam[k][1 : k - 1] = lam[k][1 : k - 1], lam[k - 1][1 : k - 1]
        b = (dd[k - 2] * dd[k] + la * la) // dd[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (dd[k] * lam[i][k - 1] - la * t) // dd[k - 1]
            lam[i][k - 1] = (b * t + la * lam[i][k]) // dd[k]
        dd[k - 1], k = b, max(2, k - 1)
    return tuple(map(tuple, B[1:])), tuple(zip(*C[1:]))


def _scatter_basis(P: RatPolytope) -> tuple[IntMatrix, IntMatrix] | None:
    """``(U, U⁻¹)``, the rows of ``U`` LLL-reduced under the vertex scatter
    ``Σ (n·row − Σ rows)(…)ᵀ``: directions in which ``P`` is thin, so few
    lattice points of the leading projections of ``U·P`` lead nowhere
    (Lenstra 1983).  ``None`` below dimension 2 or without facets."""
    if P.dim <= 1 or not P.int_facets:
        return None
    n, cols = len(P.rows), list(zip(*P.rows))
    cen = [[n * x - s for x in c] for c, s in zip(cols, map(sum, cols))]
    return _lll([[sum(map(mul, x, y)) for y in cen] for x in cen])


# A 2D walk in place takes one clip per value of its first coordinate, and
# taking U and building U·P costs about as much as 60 such clips, so a
# polygon whose first coordinate takes at most this many values at the
# walked scale is walked as it is.  Above 2D a clip's work grows with the
# facets of each projection level, and frames pay on far smaller boxes.
_PLANE_IN_PLACE = 64


def _reduced_frame(P: RatPolytope, scale: int) -> tuple[IntMatrix, RatPolytope] | None:
    """``(U⁻¹, U·P)`` to walk ``scale·P`` in, or ``None`` to walk ``P``.
    ``U·P`` is walked when the leading box of ``scale·U·P``, the vertex
    bounding box over every coordinate but the last (which the walk takes
    as one run), holds fewer lattice points than that of ``scale·P``,
    except for a polygon whose first coordinate takes at most
    ``_PLANE_IN_PLACE`` values.  A dilate's box is not the dilate of the box
    (a cross-section's holds about one point at scale 1 and many at the
    threshold), so this is decided at the walked scale.  ``U·P``, rows
    ``U·row`` and facets ``(u·U⁻¹, c)``, is built only when a walk picks
    it, and then kept in ``P``'s cache as ``_reduced``; above 2D it takes
    ``P``'s incidence, its rows and facets renumbered, for its levels."""
    rows, den, cache = P.rows, P.den, vars(P)

    def span(c) -> int:
        return max(0, (scale * max(c)) // den + (-scale * min(c)) // den + 1)

    lead = math.prod(map(span, list(zip(*rows))[:-1]))
    if (P.dim == 2 and lead <= _PLANE_IN_PLACE) or P._basis is None:
        return None
    U, Ui = P._basis
    R = cache.get("_reduced")
    ucols = list(zip(*R.rows)) if R else [[sum(map(mul, u, r)) for r in rows] for u in U]
    if math.prod(map(span, ucols[:-1])) >= lead:
        return None
    if R is None:
        uicols = list(zip(*Ui))
        facets = [(tuple(sum(map(mul, u, c)) for c in uicols), b) for u, b in P.int_facets]
        R = RatPolytope(P.dim, den, tuple(sorted(zip(*ucols))), tuple(sorted(facets)))
        if P.dim > 2:  # the projection levels read it, a polygon's do not
            bit = {r: 1 << k for k, r in enumerate(R.rows)}
            moved = [bit[r] for r in zip(*ucols)]  # row i of P is row k of R
            tight = dict(zip(facets, P._incidence))
            vars(R)["_incidence"] = tuple(
                sum(b for i, b in enumerate(moved) if tight[f] >> i & 1) for f in R.int_facets
            )
        cache["_reduced"] = R
    return Ui, R


def _iter_points(P: RatPolytope, scale: int, strict: bool, w: IntVector | None = None):
    """The one lattice-point walk, over ``scale·P`` or its interior; with an
    objective ``w`` only the points that beat every earlier one under it.
    When :func:`_reduced_frame` picks ``U·P`` at this scale the walk runs in
    ``U·P`` under ``w·U⁻¹`` and yields its points mapped back by ``U⁻¹``,
    so every point is in ``P``'s coordinates."""
    if type(scale) is not int or scale < 1:
        raise InvalidParameters("scale must be a positive integer")
    d = P.dim
    if d == 0:
        yield ()
        return
    if not P.int_facets:
        raise UnboundedRegion("polytope carries no facet description")
    M: IntMatrix = ()
    frame = _reduced_frame(P, scale)
    if frame:
        M, P = frame
        if w is not None:
            w = tuple(dot(w, col) for col in zip(*M))
    den = P.den

    def offset(c: int) -> int:
        # ⟨u, y⟩ ≤ scale·c/den; the interior of a projection is the projection
        # of the interior, so strict membership rounds down past equality.
        return -((-scale * c) // den) - 1 if strict else (scale * c) // den

    # Depth k reads (u[:k], u[k], c): ⟨u[:k], y[:k]⟩ + u[k]·y[k] ≤ c.
    facets = P._levels + (P.int_facets,)
    levels = [[(u[:k], u[k], offset(c)) for u, c in lv if u[k]] for k, lv in enumerate(facets)]
    # Objective cuts (u[:k], u[k], c, m): ⟨u, y[:k+1]⟩ ≤ c + m·(record − 1).
    # Below the last nonzero entry kw of w, the facets of the projection
    # (y[:k+1], ⟨w, y⟩) that bound ⟨w, y⟩ from below; from kw on, w.
    cuts: list[list] = [[] for _ in range(d)]
    if w is not None:
        lifted = _objective_cuts(P, w)
        for k, lv in enumerate(lifted):
            cuts[k] = [(v[:k], v[k], offset(c), -v[k + 1]) for v, c in lv]
        for k in range(len(lifted), d):
            cuts[k] = [(w[:k], w[k], 0, 1)]
        # the coordinates of the vertex least under w start each depth's range
        first = [(scale * x) // den for x in min(P.rows, key=lambda r: dot(w, r))]
    record = None
    y = [0] * d

    def clip(k: int) -> tuple[int, int]:
        cons = levels[k]
        if record is not None:
            cons = chain(cons, ((p, a, c + m * (record - 1)) for p, a, c, m in cuts[k]))
        lo, hi = None, None
        for p, a, c in cons:
            rest = c - sum(map(mul, p, y))
            if a > 0:
                bound = rest // a
                hi = bound if hi is None else min(hi, bound)
            elif a < 0:
                bound = -(rest // (-a))
                lo = bound if lo is None else max(lo, bound)
            elif rest < 0:
                return 1, 0
        if lo is None or hi is None:
            raise UnboundedRegion("facets do not bound the region")
        return lo, hi

    def walk(k: int):
        # Returns whether a record was set below; the range is then clipped
        # again under the new record.
        nonlocal record
        lo, hi = clip(k)
        if k == d - 1:
            if w is not None:  # each point beats the record: take the better end
                if lo > hi:
                    return False
                y[k] = lo if w[k] >= 0 else hi
                record = dot(w, y)
                yield tuple(dot(r, y) for r in M) if M else tuple(y)
                return True
            if M:  # the run y[k] = lo..hi maps by M to arithmetic progressions
                y[k], n = 0, hi - lo + 1
                cols = ((sum(map(mul, r, y)) + lo * r[k], r[k]) for r in M)
                yield from zip(*(range(b, b + n * c, c) if c else repeat(b, n) for b, c in cols))
                return False
            for y[k] in range(lo, hi + 1):
                yield tuple(y)
            return False
        if w is None:
            for y[k] in range(lo, hi + 1):
                yield from walk(k + 1)
            return False
        # The minimiser is unique, so any order finds it: from the best
        # vertex's coordinate down to lo, then up to hi.
        found, start = False, min(max(first[k], lo), hi)
        for step, x in ((-1, start), (1, start + 1)):
            while True:
                x = min(x, hi) if step < 0 else max(x, lo)
                if not lo <= x <= hi:
                    break
                y[k] = x
                if (yield from walk(k + 1)):
                    found = True
                    lo, hi = clip(k)
                x += step
        return found

    yield from walk(0)


def enumerate_points(
    P: RatPolytope, scale: int = 1, strict: bool = False
) -> tuple[IntVector, ...]:
    """Integer vectors ``y`` with ``y/scale ∈ P``, in lexicographic order.

    With ``strict`` the membership is in the interior.  Equivalently this
    lists the lattice points of the dilate ``scale·P``; callers wanting
    points of ``P ∩ (1/scale)ℤ^d`` divide the results by ``scale``.  The
    walk fixes one coordinate at a time within the exact projections of
    ``scale·P`` onto its leading coordinates: their facets come from ``P``'s
    own by eliminating the trailing coordinates through ridges of its
    carried incidence (:func:`_eliminate`), once per polytope, with offsets
    rescaled per dilate.
    It walks ``U·P`` for a unimodular, LLL-reduced ``U`` when the vertex
    bounding box of ``scale·U·P`` over every coordinate but the last holds
    fewer lattice points than that of ``scale·P`` (a polygon whose first
    coordinate takes few values is walked as it is), then maps the points
    back by ``U⁻¹`` and sorts them; ``U`` is taken once per polytope and
    shared by its homothets.
    """
    return tuple(sorted(_iter_points(P, scale, strict)))


def minimize(
    P: RatPolytope, w: Sequence[int], strict: bool = False
) -> tuple[int, IntVector] | None:
    """The least value of ``⟨w, y⟩`` over the lattice points ``y`` of ``P``
    (of its interior with ``strict``) and the lex-least point attaining it,
    or ``None`` when there is no such point; ``w`` is an integer vector.

    The lex tie-break is folded into one objective ``W = B^d·w + Σ_i
    B^(d−1−i)·e_i``, ``B`` one more than the widest range of ``P``'s vertex
    box: no two lattice points of ``P`` differ by ``B`` in a coordinate, so
    ``⟨W, ·⟩`` orders them by ``(⟨w, y⟩, y_0, …, y_(d−1))`` and its
    minimiser is unique and the answer.  Like :func:`enumerate_points` it
    walks the reduced frame ``U·P`` when :func:`_reduced_frame` picks it
    at scale 1, under ``W·U⁻¹``, and maps each record back by ``U⁻¹``.

    The walk runs in objective mode (branch and bound): it yields only
    points that strictly beat every earlier one, so the last is the
    minimiser.  As that is unique, the order of the walk is free: each
    depth starts at the coordinate of the vertex least under ``W``, clamped
    to its range, and walks down from there, then up, clipped again under
    every record found below it.  At a depth ``k`` before the last nonzero
    entry ``kw`` of the objective the range of ``y[k]`` is also cut by the
    lower bounds on ``⟨W, ·⟩`` from the projection of ``P`` onto ``(y[:k+1],
    ⟨W, y⟩)``: replacing ``y[kw]`` by ``⟨W, y⟩`` maps ``P``'s facets one to
    one, and the coordinates after ``kw``, then ``y[kw−1], y[kw−2], …`` are
    eliminated from that image as for the walk's levels
    (:func:`_objective_cuts`); from ``kw`` on the cut is ``W`` itself.  At
    the last depth every point of the clipped range beats the record, so
    only its better end is taken.
    """
    if len(w) != P.dim:
        raise DimensionMismatch("objective has the wrong length")
    if not all(type(x) is int for x in w):
        raise InvalidParameters("objective must be an integer vector")
    w, d = tuple(w), P.dim
    B = 1 + max((max(c) - min(c) for c in zip(*P.rows)), default=0) // P.den
    W = tuple(B**d * x + B ** (d - 1 - i) for i, x in enumerate(w))
    best = None
    for best in _iter_points(P, 1, strict, W):
        pass
    if best is None:
        return None
    return dot(w, best), best


def any_lattice_point(P: RatPolytope, scale: int = 1, strict: bool = False) -> bool:
    """Whether ``scale·P`` (or its interior) contains an integer vector: the
    walk of :func:`enumerate_points`, stopped at the first hit."""
    return next(_iter_points(P, scale, strict), None) is not None
