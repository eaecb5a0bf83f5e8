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
from toricmld.lattice import SublatticeBasis, as_int_vector, base_point, kernel_sublattice
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


SMOOTH_3D = ToricLogPair(
    3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), standard_coefficients([0, F(1, 2), F(2, 3)])
)


def smooth_3d_box_args():
    report = compute_mld(SMOOTH_3D)
    w = report.w
    return SMOOTH_3D, w, report.index, base_point(w), kernel_sublattice(w, 3)


def test_build_box_rejects_a_redundant_cone_facet(monkeypatch):
    """The section's facets must be exactly the cone's facets: a valid cone
    inequality that is no facet, the sum of two facet normals, is caught
    (the parent's row-by-row check accepted it)."""
    args = smooth_3d_box_args()
    assert build_box(*args)[0].dim == 2
    normals = pairs.cone_facets(SMOOTH_3D)
    redundant = tuple(a + b for a, b in zip(normals[0], normals[1]))
    monkeypatch.setattr(proof, "cone_facets", lambda pair: normals + (redundant,))
    with pytest.raises(CheckFailed) as err:
        build_box(*args)
    assert err.value.name == "box-halfspaces"


def test_build_box_rejects_a_missing_cone_facet(monkeypatch):
    args = smooth_3d_box_args()
    normals = pairs.cone_facets(SMOOTH_3D)
    monkeypatch.setattr(proof, "cone_facets", lambda pair: normals[1:])
    with pytest.raises(CheckFailed) as err:
        build_box(*args)
    assert err.value.name == "box-halfspaces"


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
    assert orders.detail == "vertex (1/3) has order 3, level 2"
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


def sylvester_germ(d):
    """The smooth germ on e_1 … e_d with levels s_1, …, s_(d−1), s_d − 1,
    where s = 2, 3, 7, 43, … (s_(k+1) = s_k² − s_k + 1), and ``s_d``."""
    s = [2]
    while len(s) < d:
        s.append(s[-1] ** 2 - s[-1] + 1)
    levels = s[:-1] + [s[-1] - 1]
    rays = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    return ToricLogPair(d, rays, standard_coefficients([F(l - 1, l) for l in levels])), s[-1]


def test_verify_bullets_names_the_first_dilate_past_a_wrong_threshold():
    """With j one above the threshold of the 6D Sylvester section (n =
    3,263,442) the pyramid walk finds a point, and one minimisation of the
    height names the first dilate (a loop over the dilates did not finish)."""
    pair, _ = sylvester_germ(6)
    report = compute_mld(pair)
    n, j = report.index, int(report.mld * report.index)
    box, ray_vertices = build_box(pair, report.w, n, base_point(report.w), kernel_sublattice(report.w, 6))
    level = {v: n // c.level for v, c in zip(ray_vertices, pair.coefficients)}
    start = time.perf_counter()
    threshold, _, _ = verify_bullets(box, [level[v] for v in box.vertices], n, j + 1, 1, ())
    assert time.perf_counter() - start < 2
    assert not threshold.passed
    assert threshold.detail == "interior lattice point at dilate 3263442 < 3263443"


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
    core, body, volume, checks = minkowski_certificate((1,), 2, F(1, 2), F(1), difference_body(S), F(4))
    assert core.vertices == ((F(0),), (F(2),))
    assert normalized_volume(body) == volume == 4
    assert body.vertices == ((F(0), F(0)), (F(2), F(0)), (F(2), F(2)), (F(4), F(2)))
    assert [c.name for c in checks] == list(CHECK_NAMES[5:9])
    assert all(c.passed for c in checks)
    # the core is one image of the dilate's difference body: [0, 4] shrunk
    # by 1/2 about 2 has difference body [-2, 2], whose half about 2 is [1, 3]
    diff = difference_body(segment(0, 4))
    core, _, volume, checks = minkowski_certificate((2,), 1, F(1, 2), F(1, 2), diff, F(8))
    assert core.vertices == ((F(1),), (F(3),))
    assert volume == 2 and all(c.passed for c in checks)


def test_minkowski_certificate_flags_non_unique_body():
    # [0, 4] still holds three interior lattice points, so the interior
    # uniqueness check must fail
    S = segment(0, 4)
    _, _, _, checks = minkowski_certificate((2,), 2, F(1, 2), F(1), difference_body(S), F(8))
    by_name = {c.name: c.passed for c in checks}
    assert not by_name["certificate-unique-interior"]


def test_minkowski_certificate_input_validation():
    D = difference_body(segment(0, 2))
    # j below 1, gamma past 1/2, a shrink factor of 0 or past 1
    for j, gamma, shrink in ((0, F(1, 2), F(1)), (2, F(3, 5), F(1)), (2, F(1, 2), F(0)), (2, F(1, 2), F(3, 2))):
        with pytest.raises(InvalidParameters):
            minkowski_certificate((1,), j, gamma, shrink, D, F(4))


def test_chain_verify_frozen_quadrant_numbers():
    S = segment(0, 2)
    D = difference_body(S)
    checks = chain_verify(1, 2, 1, F(1, 2), S, D, F(1), F(4))
    assert [c.name for c in checks] == list(CHECK_NAMES[-5:])
    assert all(c.passed for c in checks)


def test_chain_verify_detects_inconsistencies():
    S = segment(0, 2)
    D = difference_body(S)
    by_name = {c.name: c for c in chain_verify(1, 2, 1, F(1, 3), S, D, F(1), F(4))}
    assert not by_name["chain-cross-section"].passed  # gamma does not match core
    by_name = {c.name: c for c in chain_verify(1, 2, 1, F(1, 2), S, D, F(1, 2), F(4))}
    assert not by_name["chain-cross-section"].passed  # nor does the shrink factor
    by_name = {c.name: c for c in chain_verify(1000, 2, 1, F(1, 2), S, D, F(1), F(4))}
    assert not by_name["chain-index"].passed


NUDGE = 1 + F(1, 10**6)


def edit_argument(i, edit):
    """Wrap a function so that its positional argument ``i`` is edited."""
    return lambda f: lambda *args: f(*args[:i], edit(args[i]), *args[i + 1 :])


# Per volume-bearing check: the ``proof`` name patched and the wrapper of
# the original that edits one input.  On the smooth quadrant the body fills
# Minkowski's budget, so a 10⁻⁶ nudge crosses the bound.
VOLUME_MUTATIONS = [
    pytest.param(
        "certificate-volume",
        "normalized_volume",
        lambda f: lambda P: f(P) * NUDGE if P.dim == 2 else f(P),
        id="certificate-volume-measured",
    ),
    pytest.param(
        "certificate-bipyramid",
        "bipyramid",
        lambda f: lambda h, Q, z: geometry.scale_about(f(h, Q, z), 1 / NUDGE, (h,) + tuple(z)),
        id="certificate-bipyramid-body-shrunk",
    ),
    pytest.param(
        "chain-minkowski",
        "chain_verify",
        edit_argument(7, lambda v: v * NUDGE),
        id="chain-minkowski-volume",
    ),
    pytest.param(
        "chain-cross-section",
        "chain_verify",
        edit_argument(5, lambda P: geometry.scale_about(P, NUDGE, (0,) * P.dim)),
        id="chain-cross-section-diff-dilated",
    ),
    pytest.param(
        "chain-cross-section",
        "chain_verify",
        edit_argument(4, lambda P: geometry.scale_about(P, NUDGE, (0,) * P.dim)),
        id="chain-cross-section-core",
    ),
    pytest.param(  # the measured volume 4, halved and nudged below the floor 2
        "chain-difference",
        "chain_verify",
        edit_argument(7, lambda v: v / 2 / NUDGE),
        id="chain-difference-volume",
    ),
]


@pytest.mark.parametrize("name, target, wrap", VOLUME_MUTATIONS)
def test_every_volume_check_can_fail(monkeypatch, name, target, wrap):
    """Each check that reads a volume, measured or derived, fails under an
    edit of one of its inputs: in the trace, and as the first failure a
    strict proof raises."""
    assert prove(QUADRANT).all_passed
    monkeypatch.setattr(proof, target, wrap(getattr(proof, target)))
    trace = prove(QUADRANT, strict=False)
    assert name in [c.name for c in trace.checks if not c.passed]
    with pytest.raises(CheckFailed) as err:
        prove(QUADRANT, strict=True)
    assert err.value.name == name


# A 3D pair shrunk by t = 1/12: its shrunk difference body falls below the
# floor, so chain-dilation caps j at 4056, below Minkowski's cap of 9984.
THIN_SHRINK_3D = ToricLogPair(
    3, ((2, -3, 0), (1, -2, 1), (2, 3, 1)), standard_coefficients([F(2, 3), F(2, 3), F(1, 2)])
)

# Per remaining check: the pair, every check the edit fails in trace order
# (a strict proof raises the first), the ``proof`` name patched and the
# wrapper of the original that edits one input.  ``gamma-range`` has no row:
# the input check of ``minkowski_certificate`` raises before it can read FAIL.
CHECK_MUTATIONS = [
    pytest.param(
        THIRD,
        ("vertex-denominators",),
        "verify_bullets",
        edit_argument(2, lambda n: n + 1),
        id="vertex-denominators-index",
    ),
    pytest.param(
        THIRD,
        ("vertex-orders",),
        "verify_bullets",
        edit_argument(1, lambda levels: tuple(m + 1 for m in levels)),
        id="vertex-orders-levels",
    ),
    pytest.param(
        THIRD,
        ("dilation-threshold", "pyramid-interior-empty"),
        "verify_bullets",
        edit_argument(5, lambda interior: ()),
        id="dilation-threshold-no-interior-point",
    ),
    pytest.param(  # the shrink's (1/q)-walks find nothing, z included
        THIRD,
        ("shrink-uniqueness",),
        "enumerate_points",
        lambda f: lambda P, **kw: () if kw.get("scale", 1) > 1 else f(P, **kw),
        id="shrink-uniqueness-no-q-points",
    ),
    pytest.param(
        THIRD,
        ("certificate-symmetry",),
        "translate",
        lambda f: lambda P, w: f(P, tuple(x + F(1, 10**6) for x in w)),
        id="certificate-symmetry-core-moved",
    ),
    pytest.param(
        THIRD,
        ("certificate-unique-interior",),
        "enumerate_points",
        lambda f: lambda P, **kw: f(P, **kw) + (((0, 0),) if P.dim == 2 else ()),
        id="certificate-unique-interior-extra-point",
    ),
    pytest.param(  # the threshold walk of dilate j + 1 finds dilate j's point
        THIRD,
        ("dilation-threshold", "pyramid-interior-empty"),
        "verify_bullets",
        edit_argument(3, lambda j: j + 1),
        id="pyramid-interior-empty-threshold-walk",
    ),
    pytest.param(
        THIRD,
        ("pyramid-interior-empty",),
        "_contains_rows",
        edit_argument(1, lambda P: geometry.translate(P, (1,) * P.dim)),
        id="pyramid-interior-empty-containment",
    ),
    pytest.param(
        THIN_SHRINK_3D,
        ("chain-dilation", "chain-index"),
        "chain_verify",
        edit_argument(1, lambda j: 5000),
        id="chain-dilation-threshold",
    ),
    pytest.param(
        THIRD,
        ("chain-index",),
        "chain_verify",
        edit_argument(0, lambda n: 1000 * n),
        id="chain-index-index",
    ),
]


@pytest.mark.parametrize("pair, failing, target, wrap", CHECK_MUTATIONS)
def test_every_check_can_fail(monkeypatch, pair, failing, target, wrap):
    """Each check that no volume drives fails under an edit of one input:
    in the trace exactly the checks listed do, and a strict proof raises
    the first of them."""
    assert prove(pair).all_passed
    monkeypatch.setattr(proof, target, wrap(getattr(proof, target)))
    trace = prove(pair, strict=False)
    assert tuple(c.name for c in trace.checks if not c.passed) == failing
    with pytest.raises(CheckFailed) as err:
        prove(pair, strict=True)
    assert err.value.name == failing[0]


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
    with pytest.raises(NotLatticePolytope, match=r"vertex \(1/2,0\) is not"):
        lemma_lv_check(convex_hull([(F(1, 2), F(0)), (F(3, 2), F(0)), (F(0), F(1))]))


UNIT_SQUARE = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
TWO = segment(0, 2)
INEXACT = (0.5, True, "1/2")

# Each call takes an inexact value where the API wants an int (a ``bool`` is
# not one) or a Fraction, and the values to try there.
EXACT_INPUTS = [
    pytest.param(lambda x: convex_hull([(0, 0), (1, 0), (0, 1)], x), INEXACT + (0, -1), id="convex_hull-den"),
    pytest.param(lambda x: convex_hull([(x, 0), (1, 0), (0, 1)]), INEXACT, id="convex_hull-point"),
    pytest.param(lambda x: geometry.translate(UNIT_SQUARE, (x, 0)), INEXACT, id="translate"),
    pytest.param(lambda x: geometry.scale_about(UNIT_SQUARE, x, (0, 0)), INEXACT, id="scale_about-factor"),
    pytest.param(lambda x: geometry.scale_about(UNIT_SQUARE, 2, (x, 0)), INEXACT, id="scale_about-centre"),
    pytest.param(lambda x: geometry.cone_over(x, UNIT_SQUARE), INEXACT, id="cone_over"),
    pytest.param(lambda x: geometry.bipyramid(x, UNIT_SQUARE, (F(1, 2),) * 2), INEXACT, id="bipyramid-height"),
    pytest.param(lambda x: geometry.bipyramid(1, UNIT_SQUARE, (x, F(1, 2))), INEXACT, id="bipyramid-centre"),
    pytest.param(lambda x: geometry.max_gamma(UNIT_SQUARE, (x, F(1, 2))), INEXACT, id="max_gamma"),
    pytest.param(lambda x: UNIT_SQUARE.contains((x, 0)), INEXACT, id="contains"),
    pytest.param(lambda x: geometry.minimize(UNIT_SQUARE, (x, 1)), INEXACT, id="minimize"),
    pytest.param(lambda x: geometry.enumerate_points(UNIT_SQUARE, scale=x), INEXACT, id="enumerate_points-scale"),
    pytest.param(lambda x: as_int_vector((x, 2)), (1.0, True, "1"), id="as_int_vector"),
    pytest.param(lambda x: pairs.bound_check(compute_mld(SMOOTH_3D), x), INEXACT, id="bound_check-gamma"),
    pytest.param(
        lambda x: minkowski_certificate((1,), 2, x, F(1), difference_body(TWO), F(4)), INEXACT, id="minkowski-gamma"
    ),
    pytest.param(
        lambda x: minkowski_certificate((1,), x, F(1, 2), F(1), difference_body(TWO), F(4)), INEXACT, id="minkowski-j"
    ),
    pytest.param(
        lambda x: minkowski_certificate((1,), 2, F(1, 2), x, difference_body(TWO), F(4)),
        INEXACT,
        id="minkowski-shrink",
    ),
    pytest.param(
        lambda x: minkowski_certificate((1,), 2, F(1, 2), F(1), difference_body(TWO), x),
        INEXACT,
        id="minkowski-volume",
    ),
    pytest.param(
        lambda x: chain_verify(1, 2, 1, x, TWO, difference_body(TWO), F(1), F(4)), INEXACT, id="chain_verify-gamma"
    ),
    pytest.param(
        lambda x: chain_verify(1, 2, 1, F(1, 2), TWO, difference_body(TWO), x, F(4)), INEXACT, id="chain_verify-shrink"
    ),
    pytest.param(
        lambda x: chain_verify(1, 2, 1, F(1, 2), TWO, difference_body(TWO), F(1), x), INEXACT, id="chain_verify-volume"
    ),
    pytest.param(
        lambda x: build_box(QUADRANT, (1, 1), x, (1, 0), kernel_sublattice((1, 1), 2)), INEXACT, id="build_box-n"
    ),
    pytest.param(lambda x: shrink_to_unique(TWO, x, walk(TWO)), INEXACT, id="shrink_to_unique-q"),
    pytest.param(lambda x: lemma_vo_check(x, UNIT_SQUARE), INEXACT, id="lemma_vo_check-height"),
]


@pytest.mark.parametrize("call, values", EXACT_INPUTS)
def test_inexact_numbers_are_rejected_at_the_api_boundary(call, values):
    """Floats would be rounded, strings parsed and True read as 1; each
    must raise InvalidParameters instead of a result or a bare TypeError."""
    for x in values:
        with pytest.raises(InvalidParameters):
            call(x)


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
    # the dilated section must contain the shrunk body, built as prove builds them
    t = trace.shrink_factor
    dilated = geometry.scale_about(trace.section, trace.threshold, (0,) * (pair.dim - 1))
    shrunk = geometry.scale_about(dilated, t, trace.center) if t < 1 else dilated
    assert all(dilated.contains(v) for v in shrunk.vertices)


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


# (d, sha256 of the trace-v1 text, time bound in seconds): the Sylvester
# germs, which attain the largest n/q^d known in each dimension.  Their
# threshold dilates are up to about 3.3·10^6 (7D) and 1.1·10^13 (8D) lattice
# points wide in one coordinate.
SYLVESTER_PINS = [
    (2, "e2c1fb6cbeae008aa22cab89929f83d996497507576fa6bd89754d33bb017512", 5),
    (3, "f6b04f9e516e4b4236d9630518615883d83484792b34a3641d11e520397a9a62", 5),
    (4, "1e4711eceefbcab8bb26db7195c28e8d8419fe0620da96ea610dcdf0b9593280", 5),
    (5, "b2457c8b2445a2527411fc16d27ed3226d8c303595045867e8a32f17aed11ac6", 5),
    (6, "835193b7c7ff88446a8f7ad96572914a1178246d8c79da8953f85cf313759359", 5),
    (7, "6860acfbab030064e44cb459de2b59ebf188544f86d967c446f65cb02ff4930f", 5),
    (8, "d5a8fecc2700ecd36144d155c42db17a38432a8e442b425676389ed18da2e815", 20),
]


@pytest.mark.parametrize("d, digest, seconds", SYLVESTER_PINS, ids=[f"d{d}" for d, *_ in SYLVESTER_PINS])
def test_sylvester_germs_are_proved_and_pinned(d, digest, seconds):
    """n = s_d − 1 with mld 1 and q = 1, proved strictly.  The walk frame is
    decided on the leading box, every coordinate but the last: on whole
    boxes the 7D threshold dilate and its frame tied, and its walk ran the
    3,263,443-wide coordinate under four others without finishing."""
    pair, s_d = sylvester_germ(d)
    start = time.perf_counter()
    trace = prove(pair, strict=True)
    assert time.perf_counter() - start < seconds
    report = trace.report
    assert (report.index, report.mld, report.mld_denominator) == (s_d - 1, 1, 1)
    assert trace.all_passed
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


# The pair of the hull bound above.
PINNED_4D = ToricLogPair(
    4,
    ((-1, 2, -2, 0), (-2, 1, 1, 1), (1, -1, -2, 1), (-2, 1, 1, 2)),
    standard_coefficients([F(2, 3), 0, F(1, 2), 0]),
)


def test_prove_walks_one_pyramid(monkeypatch):
    """The pinned 4D pair's proof builds three checked bodies (the pyramid
    of the threshold walk, the difference body and the bipyramid), walks
    six times, takes four LLL bases and makes seven affine images, the
    invariants included: the pyramid over the shrunk body is read from the
    threshold walk, not built, and the core is one image of the difference
    body (a homothety of it on the way would make eight)."""
    calls = {name: 0 for name in ("_checked", "_iter_points", "_lll", "_affine_image")}
    for name in calls:
        original = getattr(geometry, name)

        def spy(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(geometry, name, spy)
    assert prove(PINNED_4D).all_passed
    assert calls == {"_checked": 3, "_iter_points": 6, "_lll": 4, "_affine_image": 7}


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
