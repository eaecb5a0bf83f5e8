"""Certificate pipeline tests.

Frozen expectations were worked out by hand on small cones: the 1/3(1,1)
cyclic quotient (box [-2/3, -1/3] over base point (-1, 1), threshold 2,
gamma 1/2, certificate volume 4/3), the smooth quadrant (Minkowski
equality: volume 4 = 2^2), and the quadrant with a half coefficient
(shrink factor 1/2, gamma 1/3).
"""

import hashlib
import time
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from toricmld.errors import (
    CheckFailed,
    DimensionTooSmall,
    InvalidParameters,
    NoInteriorPoint,
    NotKlt,
    NotLatticePolytope,
)
import toricmld.geometry as geometry
import toricmld.pairs as pairs
import toricmld.proof as proof
from toricmld.families import FamilySpec, _instances
from toricmld.geometry import convex_hull, difference_body, normalized_volume
from toricmld.lattice import SublatticeBasis, base_point, kernel_sublattice
from toricmld.pairs import ToricLogPair, compute_mld, standard_coefficients
from toricmld.proof import (
    build_box,
    chain_verify,
    lemma_lv_check,
    lemma_vo_check,
    minkowski_certificate,
    prove,
    serialize_trace,
    shrink_to_unique,
    verify_bullets,
)

THIRD = ToricLogPair(2, ((0, 1), (3, -1)), standard_coefficients([0, 0]))
QUADRANT = ToricLogPair(2, ((1, 0), (0, 1)), standard_coefficients([0, 0]))
HALF = ToricLogPair(2, ((1, 0), (0, 1)), standard_coefficients([F(1, 2), 0]))
DU_VAL_A1 = ToricLogPair(2, ((0, 1), (2, -1)), standard_coefficients([0, 0]))

CHECK_NAMES = (
    "dilation-threshold",
    "vertex-orders",
    "vertex-denominators",
    "shrink-uniqueness",
    "gamma-range",
    "certificate-symmetry",
    "certificate-unique-interior",
    "certificate-volume",
    "certificate-bipyramid",
    "pyramid-interior-empty",
    "chain-minkowski",
    "chain-cross-section",
    "chain-difference",
    "chain-dilation",
    "chain-index",
)


def segment(a, b):
    return convex_hull([(F(a),), (F(b),)])


def walk(P, scale=1):
    """The interior lattice points of ``scale·P``, as ``prove`` hands them
    to ``verify_bullets`` and ``shrink_to_unique``."""
    return geometry.enumerate_points(P, scale=scale, strict=True)


def section_length(trace):
    (v1,), (v2,) = trace.section.vertices
    return abs(v2 - v1)


def test_third_quotient_certificate():
    trace = prove(THIRD)
    assert trace.report.index == 3
    assert trace.report.mld == F(2, 3)
    assert trace.threshold == 2
    assert section_length(trace) == F(1, 3)
    assert trace.shrink_factor == 1
    assert trace.gamma == F(1, 2)
    assert normalized_volume(trace.certificate) == F(4, 3)
    assert trace.bound.limit == 18 and trace.bound.passed
    assert tuple(c.name for c in trace.checks) == CHECK_NAMES
    assert trace.all_passed


def test_smooth_quadrant_is_minkowski_equality_case():
    trace = prove(QUADRANT)
    assert trace.threshold == 2
    assert trace.gamma == F(1, 2)
    # the certificate fills the Minkowski budget exactly
    assert normalized_volume(trace.certificate) == 4 == 2**QUADRANT.dim
    assert trace.all_passed


def test_half_coefficient_quadrant():
    trace = prove(HALF)
    assert trace.report.index == 2
    assert trace.report.mld == F(3, 2)
    assert trace.threshold == 3
    assert section_length(trace) == F(1, 2)
    assert trace.shrink_factor == F(1, 2)
    assert trace.gamma == F(1, 3)
    assert trace.all_passed


def test_du_val_surface_point():
    trace = prove(DU_VAL_A1)
    assert trace.report.index == 1 and trace.report.mld == 1
    assert trace.threshold == 1
    assert trace.gamma == F(1, 2)
    assert normalized_volume(trace.certificate) == 2
    assert trace.all_passed


def test_prove_rejects_coefficient_one_even_when_klt():
    # a coefficient of 1 zeroes the functional on its ray, so the
    # cross-section is unbounded in that direction even though the
    # discrepancy minimum itself is positive
    pair = ToricLogPair(
        3,
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        standard_coefficients([1, F(1, 2), 0]),
    )
    with pytest.raises(NotKlt):
        prove(pair)


def test_three_dimensional_pair():
    pair = ToricLogPair(
        3,
        ((1, 0, 0), (0, 1, 0), (1, 2, 3)),
        standard_coefficients([0, F(1, 2), F(2, 3)]),
    )
    trace = prove(pair)
    # psi = (1, 1/2, -5/9), so the index is lcm(1, 2, 9) = 18
    assert trace.report.index == 18
    assert trace.threshold == trace.report.mld * 18
    assert 0 < trace.gamma <= F(1, 2)
    assert trace.all_passed
    assert trace.bound.constant == 6 / trace.gamma**2


def test_prove_rejects_non_klt():
    with pytest.raises(NotKlt):
        prove(ToricLogPair(2, ((1, 0), (0, 1)), standard_coefficients([1, 1])))


def test_prove_rejects_dimension_one():
    with pytest.raises(DimensionTooSmall):
        prove(ToricLogPair(1, ((1,),), standard_coefficients([F(4, 5)])))


def test_prove_rejects_one_dimensional_positive_part():
    pair = ToricLogPair(2, ((1, 0), (0, 1)), standard_coefficients([1, 0]))
    with pytest.raises(NotKlt):
        prove(pair)


def test_build_box_frozen_coordinates():
    box, ray_vertices = build_box(THIRD, (2, 3), 3, (-1, 1), kernel_sublattice((2, 3), 2))
    assert box.vertices == ((F(-2, 3),), (F(-1, 3),))
    # in ray order, not vertex order
    assert ray_vertices == ((F(-1, 3),), (F(-2, 3),))


def test_build_box_input_validation():
    with pytest.raises(InvalidParameters):
        build_box(QUADRANT, (1, 1), 1, (1, 1), kernel_sublattice((1, 1), 2))  # base has value 2
    with pytest.raises(InvalidParameters):
        # functional value on (1, 0) is 2, but the coefficient says 1
        build_box(QUADRANT, (2, 1), 1, (0, 1), kernel_sublattice((2, 1), 2))
    with pytest.raises(NotKlt):
        # the functional is negative on the downward ray
        build_box(
            ToricLogPair(2, ((1, 0), (0, -1)), standard_coefficients([0, 0])),
            (1, 1),
            1,
            (1, 0),
            kernel_sublattice((1, 1), 2),
        )
    with pytest.raises(NotKlt):
        build_box(
            ToricLogPair(2, ((1, 0), (0, 1)), standard_coefficients([1, 0])),
            (0, 1),
            1,
            (0, 1),
            kernel_sublattice((0, 1), 2),
        )
    with pytest.raises(InvalidParameters):
        # (1, 1) is listed as a ray but is not extreme in the quadrant
        redundant = ToricLogPair(
            2,
            ((1, 0), (0, 1), (1, 1)),
            standard_coefficients([F(1, 2), F(1, 2), 0]),
        )
        build_box(redundant, (1, 1), 2, (1, 0), kernel_sublattice((1, 1), 2))


def test_verify_bullets_frozen_pass():
    box = convex_hull([(F(1, 3),), (F(2, 3),)])
    threshold, orders, denominators = verify_bullets(box, (3, 3), 3, 2, 3, walk(box, 2))
    assert threshold.passed and orders.passed and denominators.passed


def test_verify_bullets_detects_wrong_threshold():
    box = convex_hull([(F(1, 3),), (F(2, 3),)])
    threshold, _, _ = verify_bullets(box, (3, 3), 3, 4, 3, walk(box, 4))
    assert not threshold.passed
    assert "dilate 2" in threshold.detail
    # every box, a segment too, is searched in one pyramid walk before the
    # dilates are tried one by one
    square = convex_hull([(F(a, 3), F(b, 3)) for a in (1, 2) for b in (1, 2)])
    threshold, _, _ = verify_bullets(square, (3,) * 4, 3, 3, 3, walk(square, 3))
    assert threshold.detail == "interior lattice point at dilate 2 < 3"
    threshold, _, _ = verify_bullets(square, (3,) * 4, 3, 2, 3, walk(square, 2))
    assert threshold.passed


def test_verify_bullets_detects_wrong_levels_and_denominators():
    box = convex_hull([(F(1, 3),), (F(2, 3),)])
    _, orders, _ = verify_bullets(box, (2, 3), 3, 2, 3, walk(box, 2))
    assert not orders.passed
    _, _, denominators = verify_bullets(box, (3, 3), 3, 2, 1, walk(box, 2))
    assert not denominators.passed


# A 6D pair with index n = 444 and threshold j = 445.
SIX_D_444 = ToricLogPair(
    6,
    (
        (2, 0, 1, -1, 0, 0),
        (-2, 1, 2, 1, -2, 1),
        (2, -1, 0, -2, -2, 0),
        (0, -1, 2, -1, 2, 2),
        (0, 2, 0, 2, -1, 2),
        (2, 2, 2, 0, 2, 1),
    ),
    standard_coefficients([0, F(2, 3), F(1, 2), F(2, 3), 0, 0]),
)


def test_verify_bullets_searches_the_dilates_in_one_walk():
    """The dilates 1 … j−1 of a 6D cross-section with j = 445 are searched by
    one walk of a pyramid, not by 444 walks."""
    pair = SIX_D_444
    report = compute_mld(pair)
    n, j = report.index, int(report.mld * report.index)
    assert (n, j) == (444, 445)
    box, ray_vertices = build_box(
        pair, report.w, n, base_point(report.w), kernel_sublattice(report.w, pair.dim)
    )
    level = {v: n // c.level for v, c in zip(ray_vertices, pair.coefficients)}
    start = time.perf_counter()
    checks = verify_bullets(
        box, [level[v] for v in box.vertices], n, j, report.mld_denominator, walk(box, j)
    )
    assert time.perf_counter() - start < 2
    assert all(c.passed for c in checks)
    assert checks[0].detail == "first interior lattice point at dilate 445"


def test_shrink_default_center_is_lex_least():
    t, shrunk, z = shrink_to_unique(segment(0, 4), 1, walk(segment(0, 4)))
    assert z == (1,)
    assert t == F(1, 3)
    assert shrunk.vertices == ((F(2, 3),), (F(2),))


def test_shrink_with_denominator():
    t, shrunk, z = shrink_to_unique(segment(0, 2), 2, walk(segment(0, 2)))
    assert z == (1,)
    assert t == F(1, 2)
    assert shrunk.vertices == ((F(1, 2),), (F(3, 2),))


def test_shrink_noop_when_already_unique():
    t, shrunk, z = shrink_to_unique(segment(0, 2), 1, walk(segment(0, 2)))
    assert t == 1 and z == (1,)
    assert shrunk.vertices == segment(0, 2).vertices


def test_shrink_rejects_bad_center_and_scale():
    with pytest.raises(NoInteriorPoint):
        # no interior lattice point to shrink to
        shrink_to_unique(segment(0, 1), 1, walk(segment(0, 1)))
    with pytest.raises(InvalidParameters):
        shrink_to_unique(segment(0, 4), 0, walk(segment(0, 4)))


def test_minkowski_certificate_frozen():
    S = segment(0, 2)
    core, body, volume, checks = minkowski_certificate(S, (1,), 2, F(1, 2), difference_body(S))
    assert core.vertices == ((F(0),), (F(2),))
    assert normalized_volume(body) == volume == 4
    assert body.vertices == ((F(0), F(0)), (F(2), F(0)), (F(2), F(2)), (F(4), F(2)))
    assert all(c.passed for c in checks)


def test_minkowski_certificate_flags_non_unique_body():
    # [0, 4] still holds three interior lattice points, so both the interior
    # uniqueness and the empty-pyramid checks must fail
    S = segment(0, 4)
    _, _, _, checks = minkowski_certificate(S, (2,), 2, F(1, 2), difference_body(S))
    by_name = {c.name: c.passed for c in checks}
    assert not by_name["certificate-unique-interior"]
    assert not by_name["pyramid-interior-empty"]


def test_minkowski_certificate_input_validation():
    S = segment(0, 2)
    with pytest.raises(InvalidParameters):
        minkowski_certificate(S, (1,), 0, F(1, 2), difference_body(S))
    with pytest.raises(InvalidParameters):
        minkowski_certificate(S, (1,), 2, F(3, 5), difference_body(S))


def test_chain_verify_frozen_quadrant_numbers():
    S = segment(0, 2)
    D = difference_body(S)
    checks = chain_verify(1, 2, 1, F(1, 2), S, D, D)
    assert [c.name for c in checks] == list(CHECK_NAMES[-5:])
    assert all(c.passed for c in checks)


def test_chain_verify_detects_inconsistencies():
    S = segment(0, 2)
    D = difference_body(S)
    by_name = {c.name: c for c in chain_verify(1, 2, 1, F(1, 3), S, D, D)}
    assert not by_name["chain-cross-section"].passed  # gamma does not match core
    by_name = {c.name: c for c in chain_verify(1000, 2, 1, F(1, 2), S, D, D)}
    assert not by_name["chain-index"].passed


def test_pyramid_volume_rule_pinned():
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    check = lemma_vo_check(2, square)
    assert check.passed
    assert normalized_volume(convex_hull([(0, 0, 0)] + [(2,) + v for v in square.vertices])) == F(2, 3)
    coarse = SublatticeBasis(2, ((2, 0), (0, 1)))
    assert lemma_vo_check(3, square, coarse).passed
    with pytest.raises(InvalidParameters):
        lemma_vo_check(0, square)


def test_pyramid_volume_rule_in_a_sublattice():
    """Measured in the index-2 sublattice L, the square [0, 2]^2 has volume
    2, and its pyramid of height 3 in ℤ×L volume 2 too; a rank-deficient L
    has no finite index."""
    big = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    halved = SublatticeBasis(2, ((2, 0), (0, 1)))
    check = lemma_vo_check(3, big, halved)
    assert check.passed and check.detail == "2 vs 2"
    with pytest.raises(InvalidParameters):
        lemma_vo_check(3, big, SublatticeBasis(2, ((1, 0),)))


def test_difference_floor_pinned():
    triangle = convex_hull([(0, 0), (1, 0), (0, 1)])
    check = lemma_lv_check(triangle)
    assert check.passed
    assert "vol 3" in check.detail
    # simplices get the exact orthant decomposition of the crosspolytope
    assert "4 orthant pieces sum exactly" in check.detail
    segment = convex_hull([(0,), (1,)])
    check = lemma_lv_check(segment)
    assert check.passed and "vol 2 vs floor 2" in check.detail
    with pytest.raises(NotLatticePolytope):
        lemma_lv_check(convex_hull([(F(1, 2), F(0)), (F(3, 2), F(0)), (F(0), F(1))]))


def test_check_failed_carries_name():
    err = CheckFailed("certificate-volume", "too big")
    assert "certificate-volume" in str(err)


def test_serialize_trace_shape_and_determinism():
    text = serialize_trace(prove(THIRD))
    assert text.splitlines()[0] == "trace-v1"
    lines = dict(
        line.split(": ", 1) for line in text.splitlines()[1:] if ": " in line
    )
    assert lines["dim"] == "2"
    assert lines["index"] == "3"
    assert lines["mld"] == "2/3"
    assert lines["threshold"] == "2"
    assert lines["gamma"] == "1/2"
    assert lines["result"] == "pass"
    assert all(f"check {name}" in text for name in CHECK_NAMES)
    assert text == serialize_trace(prove(THIRD))


def coefficient_values():
    return st.sampled_from([F(0), F(1, 2), F(2, 3), F(3, 4), F(4, 5), F(5, 6)])


@st.composite
def cyclic_pairs(draw):
    r = draw(st.integers(min_value=1, max_value=10))
    s = draw(st.integers(min_value=0, max_value=max(0, r - 1)))
    if r > 1 and gcd(r, s) != 1:
        s = 1  # (r, 0) would be a non-primitive ray
    b1 = draw(coefficient_values())
    b2 = draw(coefficient_values())
    return ToricLogPair(2, ((0, 1), (r, -s)), standard_coefficients([b1, b2]))


@settings(max_examples=60, deadline=None)
@given(cyclic_pairs())
def test_certificate_invariants_on_cyclic_quotients(pair):
    trace = prove(pair, strict=True)
    report = trace.report
    assert trace.all_passed
    assert trace.threshold == report.mld * report.index
    assert 0 < trace.gamma <= F(1, 2)
    assert 0 < trace.shrink_factor <= 1
    assert report.index <= trace.threshold * report.mld_denominator
    assert normalized_volume(trace.certificate) <= 2**pair.dim
    # the dilated section must contain the shrunk body
    assert all(trace.dilated.contains(v) for v in trace.shrunk.vertices)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=3),
)
def test_shrink_postcondition_on_segments(a, length, q):
    S = segment(a, a + length)
    t, shrunk, z = shrink_to_unique(S, q, walk(S))
    assert 0 < t <= 1
    assert S.contains(z, strict=True)
    assert all(S.contains(v) for v in shrunk.vertices)
    inside = [
        p
        for p in range(q * a, q * (a + length) + 1)
        if shrunk.contains((F(p, q),), strict=True)
    ]
    assert inside == [q * z[0]]


# (rays, coefficients, sha256 of the trace-v1 text), pinned from the re-hull
# implementation: seeded 5D and 6D cones whose volumes recurse deeper than
# any 4D row does.
HIGHER_DIM_PINS = [
    (
        ((-1, 2, -2, 0, -2), (1, 1, 1, 1, -1), (-2, 1, -2, 1, 1), (2, -2, 1, 0, -1), (1, -1, 0, -1, -1)),
        (0, F(2, 3), F(2, 3), 0, F(1, 2)),
        "c0bf2e8338a92318215cae8e498446aec3698c4fa98006d4198e1e6856a66def",
    ),
    (
        ((-2, -2, -2, 0, -1), (0, 0, 2, -1, 2), (-2, 2, -1, 1, 1), (2, 0, 2, 1, 2), (0, -2, -2, 0, 1)),
        (F(1, 2), F(1, 2), F(1, 2), F(2, 3), 0),
        "cc612cede68a3d3f9a41a86c7082ac8bcc7fd83ea2e0abe61d6b3562c1b5b407",
    ),
    (
        ((-1, 2, 2, -1, 0), (2, 1, 2, -2, 2), (-2, 1, 0, 2, -1), (-1, 1, 2, 2, 1), (1, -1, -1, -1, 2)),
        (F(1, 2), F(2, 3), 0, F(2, 3), 0),
        "c2f13db624769a4ea535849762725bc3a4a8e2bc96901b121561a2b8bab8d9c4",
    ),
    (
        ((-1, 0, -2, 1, 1), (-1, -2, -2, -2, 1), (2, 0, -2, -1, 2), (2, 0, 0, -1, -2), (0, -1, -2, 0, 0)),
        (0, 0, F(1, 2), F(1, 2), F(2, 3)),
        "cff5bd51e72aff63e93e3f0db58f2253a75f45e78f0783b7525513be8d41a77d",
    ),
    (
        (
            (0, -1, 1, -2, -2, 2),
            (-2, 0, 2, -2, 2, -1),
            (-2, -2, 1, 1, -2, -1),
            (-2, 2, 1, -2, 2, -2),
            (-1, 2, -2, 2, 2, 1),
            (-2, -1, -2, 2, -1, 0),
        ),
        (F(1, 2), 0, F(2, 3), 0, F(2, 3), F(1, 2)),
        "e0dcd181d4d6ca6b89eaee3de123b5e38d60d1a48366ccd7c300151787b01540",
    ),
]


@pytest.mark.parametrize("rays, values, digest", HIGHER_DIM_PINS)
def test_higher_dimensional_traces_pinned(rays, values, digest):
    trace = prove(ToricLogPair(len(rays), rays, standard_coefficients(values)))
    assert hashlib.sha256(serialize_trace(trace).encode()).hexdigest() == digest


def test_prove_six_dim_index_444_is_fast_and_pinned():
    """Every walk decides its frame at the scale it walks: when the shrink
    search's contractions of the 6D dilated section inherited the section's
    decision to walk in place (taken at scale 1/n, where its vertex boxes
    hold almost no lattice points), this proof took about 15 s.  The trace
    is pinned from that implementation."""
    start = time.perf_counter()
    trace = prove(SIX_D_444)
    assert time.perf_counter() - start < 2
    digest = "dc532921450b677056c3042b6cc3efda96f3ba391ae319448fd8d8033c72995c"
    assert hashlib.sha256(serialize_trace(trace).encode()).hexdigest() == digest


def test_prove_builds_the_kernel_once(monkeypatch):
    """``prove`` takes one Smith normal form of the functional's row for the
    kernel lattice and hands it to ``build_box``."""
    kernel, calls = proof.kernel_sublattice, []
    monkeypatch.setattr(
        proof, "kernel_sublattice", lambda *args: calls.append(args) or kernel(*args)
    )
    assert prove(THIRD).all_passed
    assert calls == [((2, 3), 2)]


@pytest.mark.parametrize("dim", [2, 4])
def test_prove_walks_the_threshold_dilate_once(monkeypatch, dim):
    """``prove`` enumerates the interior of ``j·box`` once and hands the
    points to both the threshold check and the shrink, on the first row
    of a seeded sweep (parent: two walks, one in each)."""
    spec = FamilySpec("random_cone", dims=(dim,), count=1, max_entry=3, L=3, seed=5)
    (_, pair), = _instances(spec)
    report = compute_mld(pair)
    first = prove(pair, report=report)
    j = first.threshold
    target = {tuple(j * x for x in v) for v in first.section.vertices}
    walk_points, walks = geometry._iter_points, []

    def spy(P, scale, strict, w=None):
        if strict and {tuple(scale * x for x in v) for v in P.vertices} == target:
            walks.append(scale)
        return walk_points(P, scale, strict, w)

    monkeypatch.setattr(geometry, "_iter_points", spy)
    trace = prove(pair, report=report)
    assert serialize_trace(trace) == serialize_trace(first)
    assert len(walks) == 1


def test_prove_hull_calls_are_bounded(monkeypatch):
    """The proof of a pinned 4D pair takes at most 15 convex hulls, all for
    the cone, its slab, the cross-section, the difference body and walk
    projections: pyramids, the bipyramid and volumes take none (re-hulling
    them took 47)."""
    hull, calls = geometry.convex_hull, []
    for module in (geometry, pairs, proof):
        monkeypatch.setattr(module, "convex_hull", lambda *args: calls.append(1) or hull(*args))
    pair = ToricLogPair(
        4,
        ((-1, 2, -2, 0), (-2, 1, 1, 1), (1, -1, -2, 1), (-2, 1, 1, 2)),
        standard_coefficients([F(2, 3), 0, F(1, 2), 0]),
    )
    assert prove(pair).all_passed
    assert len(calls) <= 15


def test_threshold_walk_of_a_wide_5d_section_is_fast():
    """Row d5i11 of the 5D sweep (seed 20261018, ``max_entry`` 6, L = 3):
    n = 18,138 and j = 5,625.  Its cross-section's vertex boxes hold about
    one lattice point at scale 1, so a frame decided there would walk
    ``j·box`` in raw coordinates, over ranges of 454 × 6,412 × 7 × 8 (about
    9 s).  Decided at scale j, the walk takes milliseconds."""
    spec = FamilySpec("random_cone", dims=(5,), count=12, max_entry=6, L=3, seed=20261018)
    pair = dict(_instances(spec))["d5i11"]
    report = compute_mld(pair)
    n, j = report.index, int(report.mld * report.index)
    assert (n, j) == (18138, 5625)
    box, _ = build_box(pair, report.w, n, base_point(report.w), kernel_sublattice(report.w, 5))
    start = time.perf_counter()
    assert geometry.any_lattice_point(box, scale=j, strict=True)
    assert not geometry.any_lattice_point(geometry.cone_over(1, box), scale=j, strict=True)
    assert time.perf_counter() - start < 1


@pytest.fixture(scope="module")
def sections():
    """``(box, levels, n, j, q)`` for the klt rows with every coefficient
    below 1 of cyclic r <= 20 (L = 3) and of a seeded 3D corpus."""
    specs = [
        FamilySpec("cyclic2d", max_r=20, L=3),
        FamilySpec("random_cone", dims=(3,), count=60, max_entry=4, L=3, seed=5),
    ]
    out = []
    for spec in specs:
        for _, pair in _instances(spec):
            report = compute_mld(pair)
            if not report.klt or any(c.level is None for c in pair.coefficients):
                continue
            n = report.index
            box, verts = build_box(
                pair, report.w, n, base_point(report.w), kernel_sublattice(report.w, pair.dim)
            )
            level = {v: n // c.level for v, c in zip(verts, pair.coefficients)}
            levels = tuple(level[v] for v in box.vertices)
            out.append((box, levels, n, int(report.mld * n), report.mld_denominator))
    return out


def brute_shrink_factor(S, q):
    """Oracle: the least gauge ``max_u ⟨u, p − z⟩ / (c − ⟨u, z⟩)`` over every
    (1/q)-point ``p ≠ z`` inside ``S`` (1 when there is none), ``z`` the
    lex-least interior lattice point, on the ``Fraction`` facets."""
    z = geometry.enumerate_points(S, strict=True)[0]
    facets = [(u, F(c, S.den) - sum(x * w for x, w in zip(u, z))) for u, c in S.int_facets]

    def gauge(p):
        return max(sum(x * (F(y, q) - w) for x, y, w in zip(u, p, z)) / s for u, s in facets)

    qz = tuple(q * x for x in z)
    points = geometry.enumerate_points(S, scale=q, strict=True)
    return min((gauge(p) for p in points if p != qz), default=F(1)), z


def test_shrink_factor_is_the_brute_force_least_gauge(sections):
    assert len(sections) > 1000
    for box, _, _, j, q in sections:
        S = geometry.scale_about(box, j, (0,) * box.dim)
        t, _, z = shrink_to_unique(S, q, walk(S))
        assert (t, z) == brute_shrink_factor(S, q)


def test_pyramid_search_matches_the_dilates_one_by_one(sections):
    """The one pyramid walk of ``verify_bullets`` agrees with a loop over the
    dilates 1 … J−1 at the threshold J = j (none) and past it (J = j + 1,
    2j: dilate j has one), and the threshold check passes at j only."""
    for box, levels, n, j, q in sections:
        pyramid = geometry.cone_over(1, box)
        for J in (j, j + 1, 2 * j):
            loop = any(geometry.any_lattice_point(box, scale=i, strict=True) for i in range(1, J))
            assert geometry.any_lattice_point(pyramid, scale=J, strict=True) == loop == (J > j)
        assert verify_bullets(box, levels, n, j, q, walk(box, j))[0].passed
        if j > 1:
            assert not verify_bullets(box, levels, n, j - 1, q, walk(box, j - 1))[0].passed
