"""Convex hulls, volumes, transforms, and lattice-point enumeration."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricmld import geometry as geo
from toricmld.errors import (
    CheckFailed,
    DimensionMismatch,
    InvalidParameters,
    NotFullDimensional,
    PointNotInterior,
    UnboundedRegion,
)
from toricmld.lattice import det, dot, matrix_rank, vec_sub

coords = st.integers(min_value=-4, max_value=4)


def points_2d(min_size=3):
    return st.lists(
        st.tuples(coords, coords), min_size=min_size, max_size=9, unique=True
    )


def monotone_chain(points):
    """Oracle: 2D hull vertices via Andrew's monotone chain."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def shoelace(cycle):
    """Oracle: polygon area from a vertex cycle."""
    total = Fraction(0)
    for (x0, y0), (x1, y1) in zip(cycle, cycle[1:] + cycle[:1]):
        total += Fraction(x0) * y1 - Fraction(x1) * y0
    return abs(total) / 2


UNIT_SQUARE = geo.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
UNIT_TRIANGLE = geo.convex_hull([(0, 0), (1, 0), (0, 1)])


# --- convex_hull -------------------------------------------------------------


def test_hull_of_unit_square():
    P = UNIT_SQUARE
    assert P.dim == 2
    assert P.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert P.den == 1
    assert P.int_facets == (((-1, 0), 0), ((0, -1), 0), ((0, 1), 1), ((1, 0), 1))


def test_hull_drops_non_vertices():
    P = geo.convex_hull(
        [(0, 0), (1, 0), (0, 1), (1, 1),
         (Fraction(1, 2), Fraction(1, 2)), (1, Fraction(1, 2))]
    )
    assert P == UNIT_SQUARE


def test_hull_degenerate_inputs():
    with pytest.raises(InvalidParameters):
        geo.convex_hull([])
    with pytest.raises(NotFullDimensional):
        geo.convex_hull([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(NotFullDimensional):
        geo.convex_hull([(3,)])
    with pytest.raises(DimensionMismatch):
        geo.convex_hull([(0, 0), (1,)])


def test_hull_in_dimension_one_and_zero():
    P = geo.convex_hull([(3,), (-1,), (0,)])
    assert P.vertices == ((-1,), (3,))
    assert P.den == 1 and P.int_facets == (((-1,), 1), ((1,), 3))
    Z = geo.convex_hull([()])
    assert Z.dim == 0 and Z.vertices == ((),) and Z.int_facets == ()


@given(points_2d())
@settings(deadline=None)
def test_hull_matches_monotone_chain_oracle(pts):
    assume(matrix_rank([vec_sub(p, pts[0]) for p in pts[1:]]) == 2)
    P = geo.convex_hull(pts)
    assert set(P.vertices) == set(monotone_chain(pts))
    for p in pts:
        assert P.contains(p)
    for u, c in P.int_facets:
        assert max(dot(u, p) for p in pts) == Fraction(c, P.den)
        assert sum(1 for r in P.rows if dot(u, r) == c) >= 2


@given(st.lists(st.tuples(coords, coords, coords), min_size=4, max_size=8, unique=True))
@settings(deadline=None, max_examples=60)
def test_hull_3d_consistency(pts):
    assume(matrix_rank([vec_sub(p, pts[0]) for p in pts[1:]]) == 3)
    P = geo.convex_hull(pts)
    assert set(P.vertices) <= {tuple(map(Fraction, p)) for p in pts}
    for p in pts:
        assert P.contains(p)
    for u, c in P.int_facets:
        tight = [r for r in P.rows if dot(u, r) == c]
        assert max(dot(u, p) for p in pts) == Fraction(c, P.den)
        assert len(tight) >= 3
        assert matrix_rank([vec_sub(r, tight[0]) for r in tight[1:]]) == 2
    for r in P.rows:
        normals = [u for u, c in P.int_facets if dot(u, r) == c]
        assert matrix_rank(normals) == 3


@pytest.mark.parametrize("d", [3, 4])
def test_double_description_hull_eliminates_once(d):
    """The seed of a double-description hull is chosen and inverted by one
    elimination: hulling a simplex plus an interior point runs the Bareiss
    kernel once."""
    import toricmld.lattice as lattice

    pts = [(0,) * d] + [tuple(4 * (i == j) for j in range(d)) for i in range(d)]
    with mock.patch.object(lattice, "_bareiss", wraps=lattice._bareiss) as spy:
        P = geo.convex_hull(pts + [(1,) * d])
    assert P.vertices == tuple(tuple(map(Fraction, p)) for p in sorted(pts))
    assert spy.call_count == 1


# --- volume -------------------------------------------------------------------


def test_volume_known_values():
    assert geo.normalized_volume(UNIT_SQUARE) == 1
    assert geo.normalized_volume(UNIT_TRIANGLE) == Fraction(1, 2)
    hexagon = geo.convex_hull(
        [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]
    )
    assert geo.normalized_volume(hexagon) == 3
    cube = geo.convex_hull(
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )
    assert geo.normalized_volume(cube) == 1
    simplex = geo.convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert geo.normalized_volume(simplex) == Fraction(1, 6)
    assert geo.normalized_volume(geo.convex_hull([()])) == 1


@given(points_2d())
@settings(deadline=None)
def test_volume_matches_shoelace_oracle(pts):
    assume(matrix_rank([vec_sub(p, pts[0]) for p in pts[1:]]) == 2)
    assert geo.normalized_volume(geo.convex_hull(pts)) == shoelace(monotone_chain(pts))


# --- Minkowski arithmetic -------------------------------------------------------


def test_difference_body_of_triangle_is_hexagon():
    D = geo.difference_body(UNIT_TRIANGLE)
    assert set(D.vertices) == {
        (1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)
    }
    assert geo.normalized_volume(D) == 3


def test_difference_body_volume_of_simplices_is_rogers_shephard():
    """Oracle (Rogers & Shephard 1957, the equality case): a k-simplex S
    has vol(S − S) = C(2k, k)·vol(S).  Eight seeded rational simplices
    for each k = 1..6."""
    rng = random.Random(1957)
    for k in range(1, 7):
        for _ in range(8):
            while True:
                pts = [
                    tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k))
                    for _ in range(k + 1)
                ]
                if det([[int(6 * (a - b)) for a, b in zip(p, pts[0])] for p in pts[1:]]):
                    break
            S = geo.convex_hull(pts)
            assert len(S.rows) == k + 1
            vol = geo.normalized_volume(S)
            assert geo.normalized_volume(geo.difference_body(S)) == math.comb(2 * k, k) * vol


# --- rigid transforms -----------------------------------------------------------


def test_translate_scale_known_values():
    seg = geo.convex_hull([(0,), (3,)])
    assert geo.scale_about(seg, Fraction(1, 2), (1,)) == geo.convex_hull(
        [(Fraction(1, 2),), (2,)]
    )
    assert geo.translate(seg, (2,)) == geo.convex_hull([(2,), (5,)])
    with pytest.raises(InvalidParameters):
        geo.scale_about(seg, 0, (1,))


@given(points_2d(), st.tuples(coords, coords))
@settings(deadline=None, max_examples=40)
def test_transforms_commute_with_rehulling(pts, w):
    assume(matrix_rank([vec_sub(p, pts[0]) for p in pts[1:]]) == 2)
    P = geo.convex_hull(pts)
    for Q in (
        geo.translate(P, w),
        geo.scale_about(P, Fraction(2, 3), w),
    ):
        assert geo.convex_hull(Q.vertices) == Q
    assert geo.normalized_volume(
        geo.scale_about(P, Fraction(3, 2), w)
    ) == Fraction(9, 4) * geo.normalized_volume(P)


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_integer_transforms_match_fraction_reference(data):
    """Each transform of the integer form equals the hull of the same map
    applied to the Fraction vertices, in dimensions 2 to 4."""
    P = data.draw(rational_polytopes())
    d = P.dim
    small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    z = data.draw(st.tuples(*[small] * d))
    t = data.draw(st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3))
    V = P.vertices
    assert P.den == math.lcm(*(x.denominator for v in V for x in v))
    assert V == tuple(tuple(Fraction(x, P.den) for x in r) for r in P.rows)
    for u, c in P.int_facets:
        assert math.gcd(*u) == 1 and c == max(dot(u, r) for r in P.rows)

    def rehull(points):
        return geo.convex_hull(list(points))

    assert geo.translate(P, z) == rehull(tuple(x + c for x, c in zip(v, z)) for v in V)
    scaled = geo.scale_about(P, t, z)
    assert scaled == rehull(tuple(c + t * (x - c) for x, c in zip(v, z)) for v in V)
    cone = geo.cone_over(t, P)
    assert cone == rehull([(Fraction(0),) * (d + 1)] + [(t,) + v for v in V])
    assert geo.difference_body(P) == rehull(
        tuple(a - b for a, b in zip(v, w)) for v in V for w in V
    )
    vol = geo.normalized_volume(P)
    assert vol > 0
    assert geo.normalized_volume(scaled) == t**d * vol
    assert geo.normalized_volume(geo.translate(P, z)) == vol
    assert geo.normalized_volume(cone) == t * vol / (d + 1)


# --- max_gamma -------------------------------------------------------------------


def test_max_gamma_known_values():
    assert geo.max_gamma(UNIT_TRIANGLE, (Fraction(1, 4), Fraction(1, 4))) == Fraction(1, 4)
    assert geo.max_gamma(UNIT_SQUARE, (Fraction(1, 2), Fraction(1, 2))) == Fraction(1, 2)
    seg = geo.convex_hull([(0,), (3,)])
    assert geo.max_gamma(seg, (1,)) == Fraction(1, 3)
    with pytest.raises(PointNotInterior):
        geo.max_gamma(UNIT_SQUARE, (0, 0))
    with pytest.raises(PointNotInterior):
        geo.max_gamma(UNIT_SQUARE, (5, 5))


@given(points_2d(), st.integers(min_value=1, max_value=7))
@settings(deadline=None, max_examples=40)
def test_max_gamma_is_dilation_invariant(pts, tnum):
    """Key geometric fact the certificate pipeline relies on: shrinking a
    body about the same center does not change its gamma."""
    assume(matrix_rank([vec_sub(p, pts[0]) for p in pts[1:]]) == 2)
    P = geo.convex_hull(pts)
    z = tuple(
        Fraction(sum(v[i] for v in P.vertices), len(P.vertices)) for i in range(2)
    )
    g = geo.max_gamma(P, z)
    assert Fraction(0) < g <= Fraction(1, 2)
    t = Fraction(tnum, 7)
    assert geo.max_gamma(geo.scale_about(P, t, z), z) == g


# --- cone_over -------------------------------------------------------------------


def test_cone_over_square():
    C = geo.cone_over(2, UNIT_SQUARE)
    assert C.dim == 3
    assert len(C.vertices) == 5
    assert geo.normalized_volume(C) == Fraction(2, 3)
    with pytest.raises(InvalidParameters):
        geo.cone_over(0, UNIT_SQUARE)


# --- enumerate_points -------------------------------------------------------------


def test_enumerate_points_triangle():
    T = geo.convex_hull([(0, 0), (2, 0), (0, 2)])
    assert geo.enumerate_points(T) == (
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)
    )
    assert len(geo.enumerate_points(T, scale=2)) == 15
    assert geo.enumerate_points(T, strict=True) == ()
    assert geo.enumerate_points(T, scale=2, strict=True) == ((1, 1), (1, 2), (2, 1))


def test_enumerate_points_requires_facets():
    bare = geo.RatPolytope(1, 1, ((0,),), ())
    with pytest.raises(UnboundedRegion):
        geo.enumerate_points(bare)
    with pytest.raises(InvalidParameters):
        geo.enumerate_points(UNIT_SQUARE, scale=0)


def test_enumerate_points_zero_dim():
    Z = geo.convex_hull([()])
    assert geo.enumerate_points(Z) == ((),)
    assert geo.enumerate_points(Z, strict=True) == ((),)


@st.composite
def rational_polytopes(draw, dims=(2, 3, 4)):
    """Hulls of a few points of a small box in one of ``dims``, divided by
    1, 2 or 3 so that vertices and facet offsets are rational."""
    d = draw(st.sampled_from(dims))
    c = coords if d == 2 else st.integers(min_value=-2, max_value=2)
    pts = draw(
        st.lists(st.tuples(*[c] * d), min_size=d + 1, max_size=d + 4, unique=True)
    )
    assume(matrix_rank([vec_sub(p, pts[0]) for p in pts[1:]]) == d)
    den = draw(st.sampled_from([1, 2, 3]))
    return geo.convex_hull([tuple(Fraction(x, den) for x in p) for p in pts])


def box_scan(P, scale, strict):
    """Oracle: the lattice points of ``scale·P`` (or its interior) by testing
    every point of the vertex bounding box against the facets."""
    ranges = [
        range(
            math.floor(min(v[i] for v in P.vertices) * scale),
            math.ceil(max(v[i] for v in P.vertices) * scale) + 1,
        )
        for i in range(P.dim)
    ]
    bounds = [(u, Fraction(scale * c, P.den)) for u, c in P.int_facets]
    return [
        y
        for y in itertools.product(*ranges)
        if all(dot(u, y) < c if strict else dot(u, y) <= c for u, c in bounds)
    ]


@given(rational_polytopes(), st.sampled_from([1, 2, 3]), st.booleans())
@settings(deadline=None, max_examples=100)
def test_enumerate_points_matches_box_scan(P, scale, strict):
    got = geo.enumerate_points(P, scale=scale, strict=strict)
    expected = box_scan(P, scale, strict)
    assert list(got) == expected
    assert list(got) == sorted(got)
    assert geo.any_lattice_point(P, scale=scale, strict=strict) == bool(got)


# The in-place cut-off for polygons as set, and 0, at which polygons follow
# the box products alone, as above 2D, so that small skewed polygons take the
# reduced frame too.
PLANE_CUTS = (geo._PLANE_IN_PLACE, 0)


def plane_cut(cut):
    return mock.patch.object(geo, "_PLANE_IN_PLACE", cut)


def test_minimize_known_values():
    T = geo.convex_hull([(0, 0), (4, 0), (0, 4)])
    assert geo.minimize(T, (1, 1)) == (0, (0, 0))
    assert geo.minimize(T, (1, 1), strict=True) == (2, (1, 1))
    assert geo.minimize(T, (-1, 0), strict=True) == (-2, (2, 1))
    assert geo.minimize(T, (0, 0), strict=True) == (0, (1, 1))
    unit = geo.convex_hull([(0, 0), (1, 0), (0, 1)])
    assert geo.minimize(unit, (1, 2), strict=True) is None
    assert geo.minimize(geo.convex_hull([()]), ()) == (0, ())
    # walked in place, and in its reduced frame, where the optimum is one
    # below the first record under the unique objective and tight on the
    # closed-form cut
    thin = geo.convex_hull([(6, 9), (8, 2), (10, 0)], 2)
    for cut in PLANE_CUTS:
        with plane_cut(cut):
            assert (geo._reduced_frame(thin, 1) is None) == (cut > 0)
            assert geo.minimize(thin, (2, 0)) == (8, (4, 1))
    with pytest.raises(DimensionMismatch):
        geo.minimize(T, (1,))


# --- the reduced walk frame ---------------------------------------------------------


@st.composite
def unimodular_matrices(draw, d, bound=20):
    """A signed permutation times up to eight elementary row operations,
    skipping any that would push an entry past ``bound``."""
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d))
    U = [[signs[i] * int(perm[i] == j) for j in range(d)] for i in range(d)]
    pairs = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.integers(-3, 3))
    for i, j, c in draw(st.lists(pairs, max_size=8)):
        row = [x + c * y for x, y in zip(U[i], U[j])]
        if i != j and max(map(abs, row)) <= bound:
            U[i] = row
    return tuple(map(tuple, U))


def mat_vec(M, v):
    return tuple(dot(r, v) for r in M)


@st.composite
def skewed_polytopes(draw):
    """``(U, B, U·B)``: a small rational box or simplex ``B`` in 2D–4D and
    its image under a random unimodular ``U``, so that the image is thin in
    directions far from the coordinate axes."""
    d = draw(st.sampled_from([2, 3, 4]))
    den = draw(st.sampled_from([1, 2, 3]))
    lo = draw(st.tuples(*[st.integers(-2, 2)] * d))
    if draw(st.booleans()):
        hi = [x + draw(st.integers(1, 3)) for x in lo]
        pts = list(itertools.product(*zip(lo, hi)))
    else:
        steps = draw(st.tuples(*[st.integers(1, 3)] * d))
        pts = [lo] + [tuple(x + steps[i] * (i == j) for j, x in enumerate(lo)) for i in range(d)]
    B = [tuple(Fraction(x, den) for x in p) for p in pts]
    U = draw(unimodular_matrices(d))
    return U, geo.convex_hull(B), geo.convex_hull([mat_vec(U, v) for v in B])


def spans(P, scale=1):
    """Per coordinate, the integers in the vertex range of ``scale·P``."""
    return [
        max(0, math.floor(scale * max(c)) - math.ceil(scale * min(c)) + 1)
        for c in zip(*P.vertices)
    ]


def lead_points(P, scale=1):
    """Lattice points in the leading box of ``scale·P``: the bounding box of
    its vertices over every coordinate but the last."""
    return math.prod(spans(P, scale)[:-1])


def gram_schmidt(U, M):
    """Exact Gram–Schmidt of the rows of ``U`` under the form ``M``: the
    squared lengths ``|b*_k|²`` and the coefficients ``μ_kj``."""
    n = len(U)
    g = [[Fraction(dot(mat_vec(M, U[i]), U[j])) for j in range(n)] for i in range(n)]
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for k in range(n):
        for j in range(k):
            mu[k][j] = (g[k][j] - sum(mu[j][i] * mu[k][i] * norms[i] for i in range(j))) / norms[j]
        norms.append(g[k][k] - sum(mu[k][i] ** 2 * norms[i] for i in range(k)))
    return norms, mu


def vertex_scatter(P):
    """``Σ (n·row − Σ rows)(n·row − Σ rows)ᵀ`` over the integer vertex rows."""
    n, s = len(P.rows), [sum(c) for c in zip(*P.rows)]
    cen = [[n * x - t for x, t in zip(r, s)] for r in P.rows]
    return [[sum(r[i] * r[j] for r in cen) for j in range(P.dim)] for i in range(P.dim)]


def assert_lll_reduced(U, Ui, M):
    n = len(U)
    assert abs(det(U)) == 1
    assert [list(mat_vec(U, col)) for col in zip(*Ui)] == [
        [int(i == j) for i in range(n)] for j in range(n)
    ]
    norms, mu = gram_schmidt(U, M)
    for k in range(n):
        assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
        if k:
            assert norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]


@st.composite
def thin_simplices(draw):
    """``(U, B, U·B)`` as in :func:`skewed_polytopes`, for a simplex ``B``
    in 3D or 4D that is wide in one coordinate other than the last, the
    shape of a threshold dilate whose leading box decides its frame."""
    d = draw(st.sampled_from([3, 4]))
    wide = draw(st.integers(0, d - 2))
    lo = draw(st.tuples(*[st.integers(-2, 2)] * d))
    steps = [draw(st.integers(20, 60)) if i == wide else 1 for i in range(d)]
    pts = [lo] + [tuple(x + steps[i] * (i == j) for j, x in enumerate(lo)) for i in range(d)]
    B = [tuple(map(Fraction, p)) for p in pts]
    U = draw(unimodular_matrices(d))
    return U, geo.convex_hull(B), geo.convex_hull([mat_vec(U, v) for v in B])


@given(st.one_of(skewed_polytopes(), thin_simplices()), st.sampled_from([1, 2, 3]), st.booleans())
@settings(deadline=None, max_examples=80)
def test_skewed_enumeration_matches_box_scan(data, scale, strict):
    """The walk in the reduced frame lists the same lex-sorted points as a
    box scan of the unskewed preimage mapped forward, on boxes and simplices
    and on thin simplices whose wide coordinate is not the last."""
    U, B, P = data
    expected = sorted(mat_vec(U, x) for x in box_scan(B, scale, strict))
    for cut in PLANE_CUTS:
        with plane_cut(cut):
            got = geo.enumerate_points(P, scale=scale, strict=strict)
            assert list(got) == expected
            assert geo.any_lattice_point(P, scale=scale, strict=strict) == bool(expected)


@st.composite
def objectives(draw, P):
    """Integer objectives with ties: entries of which the trailing ones are
    often zero, so that every point under a fixed prefix ties; the zero
    objective; or one that is least on an edge of ``P``, the negated sum of
    the outer normals of the facets through that edge, which is constant
    along it."""
    d = P.dim
    kind = draw(st.sampled_from(["entries", "zero", "edge"] if d > 1 else ["entries", "zero"]))
    if kind == "zero":
        return (0,) * d
    if kind == "edge":
        edges = []
        for i, j in itertools.combinations(range(len(P.rows)), 2):
            mask = 1 << i | 1 << j
            if geo._meet([m for m in P._incidence if m & mask == mask], i) == mask:
                edges.append(mask)
        edge = draw(st.sampled_from(edges))
        normals = [u for (u, _), m in zip(P.int_facets, P._incidence) if m & edge == edge]
        return tuple(-sum(col) for col in zip(*normals))
    w = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=d, max_size=d))
    zeros = draw(st.integers(min_value=0, max_value=d))
    return tuple(w[: d - zeros]) + (0,) * zeros


@given(st.data(), st.booleans())
@settings(deadline=None, max_examples=250)
def test_minimize_matches_enumeration(data, strict):
    """The lex-least minimiser over the enumerated points, on small hulls
    and on unimodular images of boxes and simplices with entries up to 20,
    which are walked in their reduced frame."""
    skewed = skewed_polytopes().map(lambda t: t[2])
    P = data.draw(st.one_of(rational_polytopes(dims=(1, 2, 3, 4)), skewed))
    w = data.draw(objectives(P))
    pts = geo.enumerate_points(P, strict=strict)
    expected = None
    if pts:
        best = min(pts, key=lambda y: (dot(w, y), y))
        expected = (dot(w, best), best)
    for cut in PLANE_CUTS:
        with plane_cut(cut):
            assert geo.minimize(P, w, strict=strict) == expected


@given(skewed_polytopes(), st.lists(st.integers(1, 12), min_size=1, max_size=4))
@settings(deadline=None, max_examples=60)
def test_frame_is_lll_reduced_and_pays(data, scales):
    """The basis U is unimodular, size-reduced and meets the Lovász
    condition under the vertex scatter, and a walk of ``scale·P`` takes the
    frame ``U·P`` exactly when its leading box holds fewer lattice points
    at that scale, unless ``P`` is a polygon whose first coordinate
    takes at most the cut-off's number of values there; the frame is then
    ``U·P``, built once."""
    P = data[2]
    M = vertex_scatter(P)
    U, Ui = geo._lll(M)
    assert_lll_reduced(U, Ui, M)
    assert P._basis == (U, Ui)
    image = geo.convex_hull([mat_vec(U, v) for v in P.vertices])
    built = None
    for scale, cut in itertools.product(scales, PLANE_CUTS):
        with plane_cut(cut):
            frame = geo._reduced_frame(P, scale)
        in_place = P.dim == 2 and spans(P, scale)[0] <= cut
        pays = lead_points(image, scale) < lead_points(P, scale)
        assert (frame is not None) == (pays and not in_place)
        if frame is not None:
            assert frame[0] == Ui
            assert (frame[1].dim, frame[1].den, frame[1].rows) == (P.dim, image.den, image.rows)
            assert sorted(frame[1].int_facets) == sorted(image.int_facets)
            assert built is None or frame[1] is built
            built = frame[1]


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_lll_of_random_gram_matrices(data):
    d = data.draw(st.sampled_from([2, 3, 4, 5]))
    A = data.draw(
        st.lists(st.tuples(*[st.integers(-30, 30)] * d), min_size=d, max_size=d)
    )
    assume(det(A) != 0)
    M = [[dot(a, b) for b in zip(*A)] for a in zip(*A)]
    assert_lll_reduced(*geo._lll(M), M)


@given(skewed_polytopes(), st.data(), st.booleans())
@settings(deadline=None, max_examples=60)
def test_images_keep_frame_and_levels(data, draws, strict):
    """``translate`` and ``scale_about`` carry the basis U to every image,
    and the frame ``U·P`` and projection levels when a walk has built them;
    the images list the same points as hulls rebuilt from their vertices,
    which take U afresh from their own scatter."""
    P = data[2]
    d = P.dim
    small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    z = draws.draw(st.tuples(*[small] * d))
    t = draws.draw(st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3))
    walked = draws.draw(st.integers(1, 6))
    cut = draws.draw(st.sampled_from(PLANE_CUTS))
    with plane_cut(cut):
        geo.enumerate_points(P, scale=walked)
        frame = geo._reduced_frame(P, walked)
        (P if frame is None else frame[1])._levels
        basis = P._basis
        for image in (geo.translate(P, z), geo.scale_about(P, t, z)):
            assert vars(image)["_basis"] == basis
            assert ("_reduced" in vars(image)) == ("_reduced" in vars(P))
            rebuilt = geo.convex_hull(image.vertices)
            assert rebuilt == image
            assert rebuilt._basis == basis
            for scale in (1, 2, walked):
                got = geo.enumerate_points(image, scale=scale, strict=strict)
                assert got == geo.enumerate_points(rebuilt, scale=scale, strict=strict)
                assert geo.any_lattice_point(image, scale=scale, strict=strict) == bool(got)
                if "_reduced" in vars(image) and geo._reduced_frame(image, scale):
                    reduced = geo._reduced_frame(image, scale)[1]
                    assert reduced == geo.convex_hull(
                        [mat_vec(basis[0], v) for v in image.vertices]
                    )


@given(st.one_of(rational_polytopes(), skewed_polytopes().map(lambda t: t[2])), st.data())
@settings(deadline=None, max_examples=60)
def test_homothets_share_the_scatter_basis(P, draws):
    """A translate leaves the vertex scatter as it is and a positive homothet
    multiplies it by a square, so LLL gives the same U for every homothet:
    the basis carried to an image is the one its own scatter gives."""
    d = P.dim
    small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    z = draws.draw(st.tuples(*[small] * d))
    t = draws.draw(st.fractions(min_value=Fraction(1, 7), max_value=40, max_denominator=7))
    U = geo._lll(vertex_scatter(P))
    for image in (geo.scale_about(P, t, z), geo.translate(P, z)):
        assert geo._lll(vertex_scatter(image)) == U


@given(st.one_of(rational_polytopes(), skewed_polytopes().map(lambda t: t[2])), st.data())
@settings(deadline=None, max_examples=100)
def test_walk_at_a_scale_is_the_walk_of_the_dilate(P, draws):
    """``scale·P`` walked at scale ``s`` and the dilate ``scale_about(P, s,
    0)`` walked at scale 1 decide their frames from the same boxes and list
    the same points."""
    s = draws.draw(st.integers(1, 9))
    strict = draws.draw(st.booleans())
    D = geo.scale_about(P, s, (0,) * P.dim)
    got = geo.enumerate_points(P, scale=s, strict=strict)
    assert got == geo.enumerate_points(D, strict=strict)
    assert got == geo.enumerate_points(geo.convex_hull(D.vertices), strict=strict)
    assert geo.any_lattice_point(P, scale=s, strict=strict) == bool(got)


def test_image_offsets_are_divided_by_the_content():
    # rows (1, 1), (3, 1), (7, 5) over 2, moved by (1, 1) over 2, have the
    # content 2 in common with the denominator; the carried offsets must be
    # divided by it like the facet offsets
    half = Fraction(1, 2)
    for cut in PLANE_CUTS:
        with plane_cut(cut):
            T = geo.convex_hull([(half, half), (3 * half, half), (7 * half, 5 * half)])
            geo.enumerate_points(T)
            frame = geo._reduced_frame(T, 1)
            (T if frame is None else frame[1])._levels
            image = geo.translate(T, (half, half))
            assert image.den == 1
            rebuilt = geo.convex_hull(image.vertices)
            for scale in (1, 2, 3):
                for strict in (False, True):
                    got = geo.enumerate_points(image, scale, strict)
                    assert got == geo.enumerate_points(rebuilt, scale, strict)
            assert geo.enumerate_points(image) == ((1, 1), (2, 1), (3, 2), (4, 3))


# --- incidence, closed-form pyramids, pulling volumes -------------------------------


def dot_pass_incidence(P):
    """Oracle: per facet, the bitmask of the rows it is tight on."""
    return geo.RatPolytope(P.dim, P.den, P.rows, P.int_facets)._incidence


def fields(P):
    return P.dim, P.den, P.rows, P.int_facets


def rehull_volume(P):
    """Oracle: the volume by the former re-hull triangulation, which cones the
    lex-least vertex over the facets missing it and re-hulls each facet that
    is not a simplex in coordinates with one entry of its normal dropped."""

    def triangulate(rows, facets, k):
        if k <= 1 or len(rows) == k + 1:
            return [tuple(rows)]
        v0, out = rows[0], []
        for u, c in facets:
            if dot(u, v0) == c:
                continue
            face = [v for v in rows if dot(u, v) == c]
            if len(face) == k:
                out.append((v0, *face))
                continue
            drop = next(i for i, x in enumerate(u) if x != 0)
            proj = {v[:drop] + v[drop + 1 :]: v for v in face}
            H = geo.convex_hull(list(proj))
            for s in triangulate(H.rows, H.int_facets, k - 1):
                out.append((v0,) + tuple(proj[w] for w in s))
        return out

    k = P.dim
    total = sum(
        abs(det([vec_sub(v, s[0]) for v in s[1:]]))
        for s in triangulate(P.rows, P.int_facets, k)
    )
    return Fraction(total, P.den**k * math.factorial(k))


@given(rational_polytopes(dims=(3, 4, 5)), st.data())
@settings(deadline=None, max_examples=60)
def test_pulling_volume_matches_rehull_triangulation(P, data):
    """The pulling triangulation over incidences gives the volume of the
    former re-hull triangulation, also on unimodular affine images; hulls
    above 2D report the incidence a dot pass finds."""
    d = P.dim
    assert vars(P)["_incidence"] == dot_pass_incidence(P)
    vol = geo.normalized_volume(P)
    assert vol == rehull_volume(P) > 0
    U = data.draw(unimodular_matrices(d, bound=6))
    w = data.draw(st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * d))
    image = geo.convex_hull([tuple(x + c for x, c in zip(mat_vec(U, v), w)) for v in P.vertices])
    assert geo.normalized_volume(image) == rehull_volume(image) == vol


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_cone_over_equals_its_hull(data):
    """The closed-form pyramid over a base of dimension 0 to 4 is the hull of
    its points, field by field, and carries the incidence of a dot pass."""
    k = data.draw(st.sampled_from([0, 1, 2, 3, 4]))
    Q = geo.convex_hull([()]) if k == 0 else data.draw(rational_polytopes(dims=(k,)))
    h = data.draw(st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3))
    C = geo.cone_over(h, Q)
    H = geo.convex_hull([(Fraction(0),) * (k + 1)] + [(h,) + v for v in Q.vertices])
    assert fields(C) == fields(H)
    assert vars(C)["_incidence"] == dot_pass_incidence(C)


def test_closed_form_facets_are_verified():
    """Each mutation of a correct facet list raises the typed error: a dropped
    facet, an offset moved off or into the vertices, a repeated facet."""
    T = geo.cone_over(2, UNIT_TRIANGLE)
    facets = list(T.int_facets)
    (u, c), rest = facets[0], facets[1:]
    geo._checked(3, T.den, T.rows, facets)
    for bad in (rest, [(u, c + 1)] + rest, [(u, c - 1)] + rest, facets + facets[:1]):
        with pytest.raises(CheckFailed):
            geo._checked(3, T.den, T.rows, bad)


def pulling_volume(P):
    """Oracle: the volume as one determinant per simplex of a fresh pulling
    triangulation over the incidence of a dot pass."""
    k, rows = P.dim, P.rows
    full = (1 << len(rows)) - 1
    simplices = (full,) if len(rows) == k + 1 else geo._pulling(full, dot_pass_incidence(P), k)
    total = 0
    for s in simplices:
        v0, *rest = (r for i, r in enumerate(rows) if s >> i & 1)
        total += abs(det([vec_sub(v, v0) for v in rest]))
    return Fraction(total, P.den**k * math.factorial(k))


def test_images_follow_the_volume_laws():
    """Seeded hulls in 2D–6D of a simplex and 0–6 more points, measured
    first, and their translates, positive homothets and pyramids: no image
    carries the hull's triangulation, each is pulled on
    its own, and every volume, with its determinants shared along the
    simplices' common rows, is the oracle's and the one the translate,
    homothety and pyramid laws derive from the hull's."""
    rng = random.Random(20261020)
    for _ in range(200):
        d = rng.randint(2, 6)
        while True:
            n = d + 1 + rng.randint(0, 6)
            pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n)]
            if matrix_rank([vec_sub(p, pts[0]) for p in pts[1:]]) == d:
                break
        P = geo.convex_hull(pts, rng.randint(1, 3))
        vol = geo.normalized_volume(P)
        assert vol == pulling_volume(P)
        z = tuple(Fraction(sum(c), len(P.rows)) for c in zip(*P.vertices))
        t = Fraction(rng.randint(1, 7), rng.randint(1, 4))
        h = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        laws = (
            (geo.translate(P, z), vol),
            (geo.scale_about(P, t, z), t**d * vol),
            (geo.cone_over(h, P), h * vol / (d + 1)),
        )
        for image, derived in laws:
            assert "_triangulation" not in vars(image)
            assert geo.normalized_volume(image) == pulling_volume(image) == derived


def test_closed_form_facets_take_the_rank_test_off_the_base():
    """A base facet whose tight set does not span a hyperplane is not taken
    as known: the 4-cube with ``x₁ + x₂ ≤ 2``, valid but tight only on a
    2-face of four rows, as many as its dimension, so only a rank test sees
    it.  And an apex facet nudged off the rows or into them fails although
    a base is passed."""
    cube = geo.convex_hull(list(itertools.product((0, 1), repeat=4)))
    bad = geo.RatPolytope(4, 1, cube.rows, tuple(sorted(cube.int_facets + (((1, 1, 0, 0), 2),))))
    with pytest.raises(CheckFailed) as err:
        geo.cone_over(1, bad)
    assert err.value.name == "closed-form-facets"
    assert "is not spanned by vertices" in err.value.detail
    Q = geo.convex_hull([p for p in itertools.product((0, 2), repeat=3)] + [(1, 1, 3)])
    C = geo.cone_over(1, Q)
    rows, spanned = [(0,) * 4] + [(1,) + r for r in Q.rows], geo._lifted(Q)
    apex_facets = [(u, c) for u, c in C.int_facets if c == 0]
    rest = [f for f in C.int_facets if f not in apex_facets]
    assert geo._checked(4, 1, rows, C.int_facets, spanned) == C
    (u, c), others = apex_facets[0], apex_facets[1:]
    for nudged in (c + 1, c - 1):
        with pytest.raises(CheckFailed) as err:
            geo._checked(4, 1, rows, rest + others + [(u, nudged)], spanned)
        assert err.value.name == "closed-form-facets"


def test_volumes_and_pyramids_make_no_hull_calls(monkeypatch):
    cube = geo.convex_hull([p for p in itertools.product((0, 2), repeat=3)] + [(1, 1, 3)])
    hull, calls = geo.convex_hull, []
    monkeypatch.setattr(geo, "convex_hull", lambda pts: calls.append(1) or hull(pts))
    assert geo.normalized_volume(cube) == Fraction(28, 3)
    pyramid = geo.cone_over(Fraction(3, 2), cube)
    assert geo.normalized_volume(pyramid) == Fraction(3, 8) * geo.normalized_volume(cube)
    assert calls == []


# --- ridge elimination and rows-only bodies -----------------------------------------


def hull_levels(P):
    """Oracle: the former projection levels, per depth ``k < dim − 1`` the
    facets of the hull of the rows cut to their first ``k + 1`` coordinates,
    and at depth 0 the range of the first one."""
    levels, rows = [], P.rows
    for k in range(P.dim - 2, 0, -1):
        proj = geo.convex_hull([r[: k + 1] for r in rows])
        levels.append(proj.int_facets)
        rows = proj.rows
    if P.dim > 1:
        levels.append((((-1,), -min(r[0] for r in rows)), ((1,), max(r[0] for r in rows))))
    return [sorted(lv) for lv in levels[::-1]]


def hull_cuts(P, w):
    """Oracle: the former objective cuts, per depth ``k`` below the last
    nonzero entry of ``w`` the facets of the hull of ``(row[:k+1], ⟨w,
    row⟩)`` that bound its last coordinate from below."""
    kw = max((i for i, x in enumerate(w) if x), default=0)
    cuts = []
    for k in range(kw):
        lifted = geo.convex_hull([r[: k + 1] + (dot(w, r),) for r in P.rows])
        cuts.append(sorted(f for f in lifted.int_facets if f[0][-1] < 0))
    return cuts


def assert_eliminations_are_the_hulls(P, rng):
    assert [sorted(lv) for lv in P._levels] == hull_levels(P)
    d = P.dim
    w = tuple(rng.randint(-3, 3) for _ in range(d))
    for objective in (w, w[: d // 2] + (0,) * (d - d // 2), (1,) + (0,) * (d - 1)):
        got = geo._objective_cuts(P, objective)
        assert [sorted(c) for c in got] == hull_cuts(P, objective)


def seeded_hull(rng, d, extra):
    while True:
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 1 + extra)]
        if matrix_rank([vec_sub(p, pts[0]) for p in pts[1:]]) == d:
            return geo.convex_hull(pts, rng.randint(1, 3))


def skew(rng, d):
    """A unimodular matrix: the identity under a few row operations."""
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        (i, j), c = rng.sample(range(d), 2), rng.choice((-2, -1, 1, 2))
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]
    return U


def test_ridge_elimination_gives_the_hulled_levels_and_cuts():
    """Seeded hulls in 3D–7D, skewed copies of them walked in their reduced
    frames ``U·P``, homothets made before and after the levels are taken,
    and the pyramid over them: the projection levels and the
    objective cuts from ridge elimination over the carried incidence equal
    those of the former hulls, and a frame receives ``P``'s incidence."""
    rng = random.Random(20261021)
    framed = 0
    for d in (3,) * 4 + (4,) * 4 + (5,) * 3 + (6,) * 2 + (7,) * 2:
        P = seeded_hull(rng, d, rng.randint(0, 4))
        z = tuple(Fraction(sum(c), len(P.rows)) for c in zip(*P.vertices))
        t = Fraction(rng.randint(1, 7), rng.randint(1, 4))
        before = geo.scale_about(P, t, z)
        assert_eliminations_are_the_hulls(P, rng)
        after = geo.translate(geo.scale_about(P, t, z), z)
        assert "_levels" in vars(after) and "_levels" not in vars(before)
        for Q in (before, after, geo.cone_over(t, P)):
            assert_eliminations_are_the_hulls(Q, rng)
        U = skew(rng, d)
        S = geo.convex_hull([mat_vec(U, v) for v in P.vertices])
        frame = next(filter(None, (geo._reduced_frame(S, s) for s in (1, 3, 9))), None)
        if frame:
            framed += 1
            R = frame[1]
            assert vars(R)["_incidence"] == dot_pass_incidence(R)
            assert_eliminations_are_the_hulls(R, rng)
    assert framed >= 8


def test_polygons_walk_without_incidence():
    """A polygon's levels are the range of its first coordinate and its
    objective cut is its own facets mapped, so neither it nor its frame
    computes an incidence."""
    P = geo.convex_hull([(0, 0), (37, 5), (74, 11), (3, 1)])
    with plane_cut(0):
        assert geo.minimize(P, (1, 1)) == (0, (0, 0))
        frame = geo._reduced_frame(P, 1)
    assert frame is not None
    for Q in (P, frame[1]):
        assert "_incidence" not in vars(Q)
        assert sorted(map(sorted, Q._levels)) == sorted(map(sorted, hull_levels(Q)))
        assert [sorted(c) for c in geo._objective_cuts(Q, (2, -3))] == hull_cuts(Q, (2, -3))
        assert "_incidence" not in vars(Q)


def test_vertex_rows_of_a_simplex_difference_body_are_its_hull_rows():
    """Seeded simplices with k = 1..6: the ``v_a − v_b`` as a ``VertexRows``
    have the dimension, denominator, rows and vertices of the hulled
    difference body, and so do its translates and positive homothets, which
    stay rows-only.  With no facets it cannot be walked, pulled or asked
    what it contains."""
    rng = random.Random(20261022)
    for k in range(1, 7):
        for _ in range(4):
            S = seeded_hull(rng, k, 0)
            R = geo.vertex_rows(k, S.den, [vec_sub(v, w) for v in S.rows for w in S.rows if v != w])
            H = geo.difference_body(S)
            assert (R.dim, R.den, R.rows, R.vertices) == (H.dim, H.den, H.rows, H.vertices)
            z = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k))
            t = Fraction(rng.randint(1, 7), rng.randint(1, 4))
            for image, hulled in (
                (geo.translate(R, z), geo.translate(H, z)),
                (geo.scale_about(R, t, z), geo.scale_about(H, t, z)),
            ):
                assert type(image) is geo.VertexRows
                assert (image.den, image.rows) == (hulled.den, hulled.rows)
    for call in (geo.enumerate_points, geo.normalized_volume, lambda P: P.contains((0,) * P.dim)):
        with pytest.raises(AttributeError):
            call(R)


def test_checked_cannot_see_a_missing_facet_at_a_non_simple_vertex():
    """The unit tetrahedron's difference body is the cuboctahedron, whose
    vertices each lie on four facets.  With any one of its 14 facets left
    out the rest still pass every check ``_checked`` makes: completeness is
    its caller's to show."""
    T = geo.convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    C = geo.difference_body(T)
    assert len(C.rows) == 12 and len(C.int_facets) == 14
    for i in range(14):
        geo._checked(3, C.den, C.rows, C.int_facets[:i] + C.int_facets[i + 1 :])
