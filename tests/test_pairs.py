"""Pair validation, discrepancy functionals, indices, and minimal values."""

import hashlib
import random
import time
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricmld import pairs as tp
from toricmld.families import (
    FamilySpec,
    _instances,
    cyclic_quotient_cone,
    random_simplicial_cone,
)
from toricmld.errors import (
    DimensionMismatch,
    InvalidParameters,
    LengthMismatch,
    MissingGamma,
    NonPrimitiveRay,
    NonStandardCoefficient,
    NotFullDimensional,
    NotKlt,
    NotLogQGorenstein,
    NotStronglyConvex,
    RedundantRay,
)
from toricmld.geometry import convex_hull
from toricmld.lattice import dot, int_inverse, matrix_rank, smith_normal_form
from toricmld.proof import fmt_rat, prove

from oracles import sail_mld


def make_pair(dim, rays, values):
    return tp.ToricLogPair(dim, tuple(rays), tp.standard_coefficients(values))


# Hand-checked instances used throughout: (pair, index, mld, witness)
QUADRANT_PLAIN = make_pair(2, [(1, 0), (0, 1)], [0, 0])
QUADRANT_ONE_AXIS = make_pair(2, [(1, 0), (0, 1)], [1, 0])
QUADRANT_HALF = make_pair(2, [(1, 0), (0, 1)], [Fraction(1, 2), 0])
THIRD_THIRD = make_pair(2, [(0, 1), (3, -1)], [0, 0])  # 1/3(1,1) quotient
LINE_FIFTH = make_pair(1, [(1,)], [Fraction(4, 5)])
ALL_ONES = make_pair(2, [(1, 0), (0, 1)], [1, 1])


# --- coefficients -------------------------------------------------------------


def test_coefficient_values():
    assert tp.BoundaryCoefficient(1).value == 0
    assert tp.BoundaryCoefficient(2).value == Fraction(1, 2)
    assert tp.BoundaryCoefficient(5).value == Fraction(4, 5)
    assert tp.BoundaryCoefficient(None).value == 1


def test_coefficient_from_value_roundtrip():
    for b in [0, Fraction(1, 2), Fraction(2, 3), Fraction(6, 7), 1]:
        assert tp.BoundaryCoefficient.from_value(b).value == b


@pytest.mark.parametrize(
    "bad", [Fraction(1, 3), Fraction(3, 5), Fraction(3, 2), -1, Fraction(-1, 2)]
)
def test_coefficient_rejects_non_standard_values(bad):
    with pytest.raises(NonStandardCoefficient):
        tp.BoundaryCoefficient.from_value(bad)


def test_coefficient_rejects_bad_levels():
    with pytest.raises(NonStandardCoefficient):
        tp.BoundaryCoefficient(0)
    with pytest.raises(NonStandardCoefficient):
        tp.BoundaryCoefficient(-3)


@pytest.mark.parametrize("level", [True, 2.0, Fraction(2)])
def test_coefficient_rejects_non_integer_levels(level):
    with pytest.raises(InvalidParameters):
        tp.BoundaryCoefficient(level)


@pytest.mark.parametrize("value", [True, False, 0.5, 0.0, "1/2"])
def test_coefficient_from_value_takes_only_int_and_fraction(value):
    """``Fraction(b)`` alone would make ``True``, ``False`` and ``0.5`` the
    coefficients 1, 0 and 1/2."""
    with pytest.raises(InvalidParameters):
        tp.BoundaryCoefficient.from_value(value)
    with pytest.raises(InvalidParameters):
        tp.standard_coefficients([0, value])


def _fraction_rule(b):
    """The level ``from_value`` gave by ``Fraction`` arithmetic before it
    decided on the numerator and denominator (``None`` for the value 1)."""
    b = Fraction(b)
    if b == 1:
        return None
    gap = 1 - b
    if gap.numerator != 1 or b < 0:
        raise NonStandardCoefficient(f"{b} is not of the form (l-1)/l or 1")
    return gap.denominator


def test_coefficient_from_value_matches_the_fraction_rule():
    values = list(range(-3, 4)) + [
        Fraction(p, q) for p in range(-12, 13) for q in range(1, 13)
    ]
    levels = set()
    for b in values:
        try:
            level = _fraction_rule(b)
        except NonStandardCoefficient as err:
            with pytest.raises(NonStandardCoefficient) as got:
                tp.BoundaryCoefficient.from_value(b)
            assert str(got.value) == str(err), b
        else:
            assert tp.BoundaryCoefficient.from_value(b).level == level, b
            levels.add(level)
    assert levels == {None, *range(1, 13)}


@pytest.mark.parametrize("dim", [2.0, True, "2", None])
def test_validate_rejects_non_integer_dimension(dim):
    """Unchecked, ``2.0`` ends in a ``TypeError`` and ``True`` validates as
    dimension 1."""
    rays = ((1,),) if dim is True else ((0, 1), (3, -1))
    pair = tp.ToricLogPair(dim, rays, tp.standard_coefficients([0] * len(rays)))
    with pytest.raises(InvalidParameters):
        tp.validate_pair(pair)


@pytest.mark.parametrize("entry", [0.9, Fraction(1, 2), True])
def test_pair_rejects_non_integer_rays(entry):
    """A cast would silently make ``(0.9, 1)`` the ray ``(0, 1)``."""
    with pytest.raises(InvalidParameters):
        make_pair(2, [(entry, 1), (1, 0)], [0, 0])


# --- validation ----------------------------------------------------------------


def test_validate_accepts_good_pairs():
    for pair in (QUADRANT_PLAIN, QUADRANT_HALF, THIRD_THIRD, LINE_FIFTH, ALL_ONES):
        assert tp.validate_pair(pair) is pair


def test_validate_accepts_non_simplicial_cone():
    pair = make_pair(3, [(0, 0, 1), (1, 0, 2), (0, 1, 1), (1, 1, 1)], [0, 0, 0, 0])
    assert tp.validate_pair(pair) is pair


@pytest.mark.parametrize(
    "dim, rays, values, err",
    [
        (0, [], [], InvalidParameters),
        (2, [(1, 0, 0), (0, 1)], [0, 0], DimensionMismatch),
        (2, [(1, 0), (0, 1)], [0], LengthMismatch),
        (2, [(2, 0), (0, 1)], [0, 0], NonPrimitiveRay),
        (2, [(0, 0), (0, 1)], [0, 0], NonPrimitiveRay),
        (2, [(1, 0), (-1, 0)], [0, 0], NotFullDimensional),
        (2, [(1, 0), (-1, 0), (0, 1)], [0, 0, 0], NotStronglyConvex),
        (2, [(1, 0), (0, 1), (1, 1)], [0, 0, 0], RedundantRay),
        (2, [(1, 0), (0, 1), (1, 0)], [0, 0, 0], RedundantRay),
        (3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 3)], [0] * 4, RedundantRay),
    ],
)
def test_validate_rejects_bad_pairs(dim, rays, values, err):
    with pytest.raises(err):
        tp.validate_pair(make_pair(dim, rays, values))


@pytest.mark.parametrize("values", [[0], [0, 0, 0]])
def test_unvalidated_coefficient_count_must_match_the_rays(values):
    """Every entry point that solves psi rejects an unvalidated pair with
    too few or too many coefficients as ``validate_pair`` does; extra
    coefficients are not dropped into an answer."""
    pair = make_pair(2, [(1, 0), (0, 1)], values)
    message = f"2 rays but {len(values)} coefficients"
    for solve in (tp.solve_psi, tp.compute_mld, tp.mld_oracle, prove):
        with pytest.raises(LengthMismatch, match=message):
            solve(pair)


def _rank_rule(dim, rays):
    """Error class and message of the geometric checks ``validate_pair``
    made with rank eliminations before its cone record: the rays span, no
    ray repeats, the origin is a vertex of ``conv({0} ∪ rays)``, and the
    facet normals tight on each ray have rank ``dim − 1``."""
    if matrix_rank(rays) < dim:
        return NotFullDimensional, "rays do not span the ambient space"
    if len(set(rays)) != len(rays):
        return RedundantRay, "a ray is listed twice"
    hull = convex_hull([(0,) * dim, *rays])
    if (0,) * dim not in hull.rows:
        return NotStronglyConvex, "the cone contains a line"
    normals = [u for u, c in hull.int_facets if c == 0]
    for e in rays:
        if matrix_rank([u for u in normals if dot(u, e) == 0]) != dim - 1:
            return RedundantRay, f"ray {e} is not an extreme ray of the cone"
    return None, None


def _oracle_rays(rng, d, kind):
    """Primitive rays of a seeded cone in dimension ``d``: pointed (all
    with positive last entry, often with non-extreme rays), with a sum of
    two rays added, with a ray repeated, with a ray's negative added, or
    inside the hyperplane of zero first entry."""
    rays, count = [], d + rng.randrange(4)
    while len(rays) < count:
        v = [rng.randint(-3, 3) for _ in range(d - 1)] + [rng.randint(1, 3)]
        if kind == "flat":
            v[0] = 0
        g = gcd(*v)
        rays.append(tuple(x // g for x in v))
    if kind == "sum":
        v = [a + b for a, b in zip(*rng.sample(rays, 2))]
        rays.append(tuple(x // gcd(*v) for x in v))
    elif kind == "repeat":
        rays.append(rng.choice(rays))
    elif kind == "line":
        rays.append(tuple(-x for x in rng.choice(rays)))
    rng.shuffle(rays)
    return rays


def test_validate_extremality_matches_the_rank_rule():
    rng = random.Random(20261018)
    seen = {}
    for d in (2, 3, 4, 5):
        for i in range(50):
            kind = ("pointed", "sum", "repeat", "line", "flat")[i % 5]
            rays = _oracle_rays(rng, d, kind)
            want = _rank_rule(d, rays)
            try:
                tp.validate_pair(make_pair(d, rays, [0] * len(rays)))
                got = None, None
            except (NotFullDimensional, NotStronglyConvex, RedundantRay) as err:
                got = type(err), str(err)
            assert got == want, (d, rays)
            seen[want[0]] = seen.get(want[0], 0) + 1
    assert min(seen.get(c, 0) for c in (None, NotFullDimensional, NotStronglyConvex)) >= 20
    assert seen[RedundantRay] >= 40, seen


def test_non_spanning_cone_is_recorded_once():
    """A cone whose rays do not span is recorded, not raised inside the
    cache: three validations make one record miss and raise alike."""
    tp._cone_record.cache_clear()
    pair = make_pair(2, [(1, 0), (-1, 0)], [0, 0])
    for _ in range(3):
        with pytest.raises(NotFullDimensional, match="^rays do not span the ambient space$"):
            tp.validate_pair(pair)
    info = tp._cone_record.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_validate_rejects_raw_coefficient_values():
    pair = tp.ToricLogPair(2, ((1, 0), (0, 1)), (Fraction(1, 2), 0))
    with pytest.raises(NonStandardCoefficient):
        tp.validate_pair(pair)


def test_cone_facets_of_quadrant():
    assert tp.cone_facets(QUADRANT_PLAIN) == ((-1, 0), (0, -1))


# --- solve_psi / the index -------------------------------------------------------


def test_solve_psi_known_values():
    # (w, n): psi = w/n over the index
    assert tp.solve_psi(QUADRANT_PLAIN) == ((1, 1), 1)
    assert tp.solve_psi(QUADRANT_ONE_AXIS) == ((0, 1), 1)
    assert tp.solve_psi(QUADRANT_HALF) == ((1, 2), 2)
    assert tp.solve_psi(THIRD_THIRD) == ((2, 3), 3)
    assert tp.solve_psi(ALL_ONES) == ((0, 0), 1)


def test_solve_psi_value_group_known_cases():
    """The values of ``psi = w/n`` on ℤ^d form ``(gcd(w)/n)·ℤ``; the report
    has ``gcd(w) = 1`` exactly when it is ``(1/n)·ℤ``."""
    cases = [
        (THIRD_THIRD, (2, 3), 3, True),
        (make_pair(2, [(1, 0), (0, 1)], [Fraction(1, 2), Fraction(2, 3)]), (3, 2), 6, True),
        (make_pair(3, [(1, 0, 0), (0, 1, 0), (1, 2, 5)], [0, 0, 0]), (5, 5, -2), 5, True),
        (ALL_ONES, (0, 0), 1, False),
    ]
    for pair, w, n, unit in cases:
        assert tp.solve_psi(pair) == (w, n)
        rep = tp.compute_mld(pair)
        assert (rep.w, rep.index, gcd(*rep.w) == 1) == (w, n, unit)
        assert rep.psi == tuple(Fraction(x, n) for x in w)


def _fraction_solve(M, b):
    """Oracle: Gauss–Jordan over ``Fraction`` for a nonsingular system."""
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(M, b)]
    k = len(a)
    for c in range(k):
        piv = next(i for i in range(c, k) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(k):
            if i != c and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[c])]
    return tuple(row[-1] for row in a)


@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.integers(min_value=0, max_value=10**6),
            st.lists(st.sampled_from([0, Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), 1]),
                     min_size=d, max_size=d),
        )
    )
)
@settings(deadline=None, max_examples=60)
def test_solve_psi_is_psi_in_lowest_terms(data):
    """``(w, n)`` is the rational solution in lowest terms: ``w/n`` equals a
    ``Fraction`` solve of the ray equations, ``n`` is the lcm of its
    denominators (the index) and ``gcd(n, w) = 1``."""
    d, seed, values = data
    pair = make_pair(d, random_simplicial_cone(d, 3, seed).rays, values)
    psi = _fraction_solve(pair.rays, [1 - c.value for c in pair.coefficients])
    w, n = tp.solve_psi(pair)
    assert tuple(Fraction(x, n) for x in w) == psi
    assert n == lcm(*(x.denominator for x in psi))
    assert gcd(n, *w) == 1


def test_solve_psi_detects_inconsistent_systems():
    # simplicial part forces psi = (0, 0, 1), which the last ray contradicts;
    # this ray set is not a valid cone description (the last ray is interior)
    # but solve_psi works on the raw data
    inconsistent = make_pair(
        3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 3)], [0, 0, 0, 0]
    )
    with pytest.raises(NotLogQGorenstein):
        tp.solve_psi(inconsistent)
    # a genuinely valid non-simplicial cone that is not log Q-Gorenstein
    valid_cone = make_pair(
        3, [(0, 0, 1), (1, 0, 2), (0, 1, 1), (1, 1, 1)], [0, 0, 0, 0]
    )
    tp.validate_pair(valid_cone)
    with pytest.raises(NotLogQGorenstein):
        tp.solve_psi(valid_cone)


def test_compute_index_known_values():
    assert tp.compute_mld(QUADRANT_PLAIN).index == 1
    assert tp.compute_mld(QUADRANT_HALF).index == 2
    assert tp.compute_mld(THIRD_THIRD).index == 3
    assert tp.compute_mld(LINE_FIFTH).index == 5
    assert tp.compute_mld(ALL_ONES).index == 1


# --- compute_mld -------------------------------------------------------------------


def test_mld_of_smooth_quadrant():
    rep = tp.compute_mld(QUADRANT_PLAIN)
    assert (rep.index, rep.mld, rep.mld_denominator) == (1, 2, 1)
    assert rep.witness == (1, 1)
    assert rep.klt and gcd(*rep.w) == 1


def test_mld_of_cyclic_third():
    rep = tp.compute_mld(THIRD_THIRD)
    assert (rep.index, rep.mld, rep.mld_denominator) == (3, Fraction(2, 3), 3)
    assert rep.witness == (1, 0)
    assert rep.klt and gcd(*rep.w) == 1


def test_mld_with_one_coefficient_reduces_to_a_quotient():
    rep = tp.compute_mld(QUADRANT_ONE_AXIS)
    assert (rep.index, rep.mld, rep.mld_denominator) == (1, 1, 1)
    assert rep.witness == (1, 1)
    assert rep.klt


def test_mld_with_half_coefficient():
    rep = tp.compute_mld(QUADRANT_HALF)
    assert (rep.index, rep.mld, rep.mld_denominator) == (2, Fraction(3, 2), 2)
    assert rep.witness == (1, 1)


def test_mld_in_dimension_one():
    rep = tp.compute_mld(LINE_FIFTH)
    assert (rep.index, rep.mld, rep.mld_denominator) == (5, Fraction(1, 5), 5)
    assert rep.witness == (1,)


def test_mld_of_all_ones_boundary_is_zero():
    rep = tp.compute_mld(ALL_ONES)
    assert (rep.index, rep.mld, rep.mld_denominator) == (1, 0, 1)
    assert not rep.klt and gcd(*rep.w) != 1
    assert rep.witness == (1, 1)


def test_du_val_type_a_cones():
    for k in range(1, 6):
        rep = tp.compute_mld(make_pair(2, [(0, 1), (k + 1, -k)], [0, 0]))
        assert (rep.index, rep.mld, rep.mld_denominator) == (1, 1, 1)


def test_mld_of_a_cyclic_quotient_of_huge_order():
    rep = tp.compute_mld(make_pair(2, [(0, 1), (1000000007, -3)], [0, 0]))
    assert (rep.index, rep.mld, rep.witness) == (
        1000000007, Fraction(4, 1000000007), (1, 0)
    )


def _seeded_cyclic(seed, lo, hi, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.randrange(lo, hi)
        s = rng.randrange(1, r)
        if gcd(r, s) == 1:
            out.append((r, s))
    return out


def test_large_cyclic_quotients_pinned_digest():
    """Index, mld and the lex-least witness of 16 seeded 1/r(1,s) with
    10^4 <= r < 10^5, pinned as bytes."""
    text = ""
    for r, s in _seeded_cyclic(20261018, 10**4, 10**5, 16):
        rep = tp.compute_mld(cyclic_quotient_cone(r, s))
        text += f"{rep.index}|{fmt_rat(rep.mld)}|{rep.witness}\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8cf7cfa490623b0cbf843fe3a9eb55a46d605374d8c5a08dc70d743352ba6355"
    )


def test_mld_matches_the_sail_of_large_cyclic_quotients():
    for r, s in _seeded_cyclic(5, 10**5, 10**6, 40) + [(3, 1), (7, 3), (10**5 + 3, 2)]:
        assert tp.compute_mld(cyclic_quotient_cone(r, s)).mld == sail_mld(r, s), (r, s)


def test_skewed_cyclic_quotients_of_huge_order_are_fast():
    """1/r(1, r-2) and 1/r(1, r-1) at r = 10^9 + 7: every column improves
    the record, so a walk in the caller's frame is linear in r."""
    r = 10**9 + 7
    for s in (r - 2, r - 1):
        start = time.perf_counter()
        mld = tp.compute_mld(cyclic_quotient_cone(r, s)).mld
        assert time.perf_counter() - start < 1, s
        assert mld == sail_mld(r, s), s


def test_skewed_pair_with_huge_levels_is_fast():
    """The rays (3, 2), (3, 2^70) with l = 3 or 10^30 on one ray and b = 0
    or 1 on the other.  U = ((-2, 3), (1, -1)) maps them to (0, 1) and
    (r, -s), r = 3·2^70 - 6 and s = 2^70 - 3, so the sail of 1/r(1, s)
    gives the mld."""
    rays = ((3, 2), (3, 2**70))
    r, s = 3 * 2**70 - 6, 2**70 - 3
    assert [(dot((-2, 3), e), dot((1, -1), e)) for e in rays] == [(0, 1), (r, -s)]
    for l in (3, 10**30):
        for b in (0, 1):
            for values in ((Fraction(l - 1, l), b), (b, Fraction(l - 1, l))):
                start = time.perf_counter()
                mld = tp.compute_mld(make_pair(2, rays, values)).mld
                assert time.perf_counter() - start < 1, (l, values)
                assert mld == sail_mld(r, s, values), (l, values)


def _age_mld(pair):
    """Geometry-free oracle for a simplicial cone, the Reid-Tai age with
    boundary weights: the least sum_i (1 - b_i)<lambda_i(g)> over the
    cosets g of Z^d / R Z^d, where R has the rays as columns, lambda(g) =
    R^-1 g are the barycentric coordinates, <x> is the fractional part and
    <0> := 1.  With U R V = D from smith_normal_form, R Z^d = U^-1 D Z^d,
    so the points U^-1 x with 0 <= x_i < D_ii represent the cosets."""
    R = list(zip(*pair.rays))
    D, U, _ = smith_normal_form(R)
    Ui, u = int_inverse(U)  # u = det U = ±1, so U^-1 = u·Ui
    adj, det_r = int_inverse(R)
    weights = [Fraction(1, c.level) if c.level else 0 for c in pair.coefficients]
    best = None
    for x in product(*(range(D[i][i]) for i in range(pair.dim))):
        g = [u * dot(row, x) for row in Ui]
        age = sum(
            wt * (Fraction(dot(row, g), det_r) % 1 or 1) for wt, row in zip(weights, adj)
        )
        best = age if best is None else min(best, age)
    return best


def test_mld_matches_the_age_formula():
    """compute_mld against the age oracle, which uses no hull and no walk:
    on seeded 2D-4D simplicial cones, and on 1/r(1, s) with r <= 10^4 (s
    random, r - 2 or r - 1) moved by a seeded unimodular map."""
    rng = random.Random(20261018)
    levels = [1, 2, 3, 4, None]
    cases = []
    for i in range(45):
        d = 2 + i % 3
        cases.append((d, random_simplicial_cone(d, 3, rng.randrange(10**6)).rays))
    for r in (rng.randrange(10, 10**4) for _ in range(12)):
        s = rng.choice([x for x in (rng.randrange(1, r), r - 2, r - 1) if gcd(r, x) == 1])
        U = random_unimodular(rng, 2)
        cases.append((2, [tuple(dot(row, e) for row in U) for e in ((0, 1), (r, -s))]))
    for d, rays in cases:
        coeffs = tuple(tp.BoundaryCoefficient(rng.choice(levels)) for _ in range(d))
        pair = tp.validate_pair(tp.ToricLogPair(d, tuple(rays), coeffs))
        assert tp.compute_mld(pair).mld == _age_mld(pair), (rays, coeffs)


def _quotient_3d(r, a, b):
    """1/r(1, a, b) as the cone on (r, -a, -b), e_2, e_3 with boundary 0:
    e_1 is (1/r)(1, a, b) in ray coordinates and generates Z^3 modulo the
    rays."""
    return tp.validate_pair(make_pair(3, [(r, -a, -b), (0, 1, 0), (0, 0, 1)], [0, 0, 0]))


def test_terminal_quotients_of_type_one_minus_one_have_mld_one_plus_one_over_r():
    """Kawamata (1996): 1/r(1, -1, a) with gcd(a, r) = 1 has mld 1 + 1/r;
    all 489 germs with 2 <= r <= 40."""
    start = time.perf_counter()
    count = 0
    for r in range(2, 41):
        for a in range(1, r):
            if gcd(a, r) == 1:
                assert tp.compute_mld(_quotient_3d(r, -1, a)).mld == 1 + Fraction(1, r), (r, a)
                count += 1
    assert count == 489
    assert time.perf_counter() - start < 15


@pytest.mark.parametrize(
    "a, b, mld, witness",
    [
        (2, 3, Fraction(6, 10**9 + 7), (1, 0, 0)),
        (-1, 2, 1 + Fraction(1, 10**9 + 7), None),
        (-1, 123456789, 1 + Fraction(1, 10**9 + 7), None),
        (5, -5, 1 + Fraction(1, 10**9 + 7), None),
    ],
)
def test_3d_quotients_of_huge_order_are_fast(a, b, mld, witness):
    """1/r(1, a, b) at r = 10^9 + 7: 1/r(1, 2, 3) has mld 6/r at e_1, and
    the terminal germs with a weight pair summing to 0 mod r have mld 1 +
    1/r (Kawamata 1996; Morrison and Stevens 1984).  The mld and a strict
    proof take well under a second each."""
    r = 10**9 + 7
    start = time.perf_counter()
    pair = _quotient_3d(r, a, b)
    rep = tp.compute_mld(pair)
    prove(pair, strict=True, report=rep)
    assert time.perf_counter() - start < 1, (a, b)
    assert (rep.index, rep.mld) == (r, mld)
    if witness is not None:
        assert rep.witness == witness


def test_slab_is_the_hull_of_its_points(monkeypatch):
    """The slab ``compute_mld`` minimises over, built from the cone record
    from 3D on (from the facets through the zero face, mapped by the lift,
    when a coefficient is 1), is the hull of 0 and the scaled rays field by
    field, on seeded 2D–5D corpora with b = 1 in the grid.  An unvalidated
    pair with a ray that is not extreme is left to the hull."""
    from toricmld.families import FamilySpec, _instances

    spec = FamilySpec(
        kind="random_cone", dims=(2, 3, 4, 5), count=25, max_entry=4, L=3, include_one=True, seed=9
    )
    half = Fraction(1, 2)
    redundant = make_pair(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)], [half, half, 0, 0])
    hulled, slabs = [], 0

    def counted(*args):
        hulled.append(len(args[0][0]))
        return convex_hull(*args)

    for _, pair in list(_instances(spec)) + [("redundant", redundant)]:
        try:
            w, _ = tp.solve_psi(pair)
        except NotLogQGorenstein:
            continue
        if not any(w):
            continue
        zero = [e for e in pair.rays if dot(w, e) == 0]
        normals = tp.cone_facets(pair)
        rays, wq, facets = pair.rays, w, normals
        if zero:
            quotient, lift = tp.quotient_pair(pair, w)
            rays, wq = quotient.rays, tuple(dot(w, row) for row in lift)
            facets = [
                tuple(dot(u, r) for r in lift) for u in normals if not any(dot(u, e) for e in zero)
            ]
        slabs += 1
        level = dot(wq, tp._interior_sum(rays))
        vals = [dot(wq, p) for p in rays]
        den = lcm(*vals)
        points = [(0,) * len(wq)] + [
            tuple((level + 1) * (den // v) * x for x in p) for p, v in zip(rays, vals)
        ]
        monkeypatch.setattr(tp, "convex_hull", counted)
        S = tp._slab(rays, wq, facets)
        monkeypatch.setattr(tp, "convex_hull", convex_hull)
        H = convex_hull(points, den)
        assert (S.dim, S.den, S.rows, S.int_facets) == (H.dim, H.den, H.rows, H.int_facets)
    assert [d for d in hulled if d > 2] == [3]  # the redundant pair alone
    assert slabs - len(hulled) > 50
    assert tp.compute_mld(redundant).mld == 2


def test_isolated_3d_quotients_are_terminal_by_the_terminal_lemma():
    """Morrison and Stevens (1984): an isolated 1/r(1, a, b) has mld > 1
    exactly when 1 + a, 1 + b or a + b is 0 mod r; all 4,681 germs with
    2 <= r <= 40 and 1 <= a <= b < r."""
    start = time.perf_counter()
    count = 0
    for r in range(2, 41):
        for a in range(1, r):
            for b in range(a, r):
                if gcd(a, r) == gcd(b, r) == 1:
                    terminal = any(x % r == 0 for x in (1 + a, 1 + b, a + b))
                    assert (tp.compute_mld(_quotient_3d(r, a, b)).mld > 1) == terminal, (r, a, b)
                    count += 1
    assert count == 4681
    assert time.perf_counter() - start < 15


def test_quotient_pair_keeps_the_index_and_the_mld():
    """The pair modulo its coefficient-1 face, on every klt row with a
    coefficient 1 of two seeded simplicial corpora (dims 3–5 and 6D): it
    validates, its functional is ``w·lift`` over the same index ``n``, its
    mld is the row's, and ``prove(strict=True)`` passes on it in every
    quotient dimension d' ≥ 2; at d' = 1, ``n = q``.  On the cone over the
    unit square with b = (1, 1/2, 1/2, 0) the image (1, 1) of the last ray
    is not extreme in the quotient, which keeps ((0, 1), (1, 0)) alone."""
    specs = (
        FamilySpec(kind="random_cone", dims=(3, 4, 5), count=40, max_entry=3, L=3,
                   include_one=True, seed=2),
        FamilySpec(kind="random_cone", dims=(6,), count=20, max_entry=2, L=3,
                   include_one=True, seed=11),
    )
    start = time.perf_counter()
    by_dim = {}
    for spec in specs:
        for key, pair in _instances(spec):
            if all(c.level is not None for c in pair.coefficients):
                continue
            report = tp.compute_mld(pair)
            if not report.klt:
                continue
            quotient, lift = tp.quotient_pair(pair, report.w)
            assert tp.validate_pair(quotient) is quotient, key
            assert all(c.level is not None for c in quotient.coefficients), key
            w_lift = tuple(dot(report.w, row) for row in lift)
            assert tp.solve_psi(quotient) == (w_lift, report.index), key
            assert tp.compute_mld(quotient).mld == report.mld, key
            if quotient.dim >= 2:
                assert prove(quotient, strict=True).all_passed, key
            else:
                assert report.index == report.mld_denominator, key
            by_dim[quotient.dim] = by_dim.get(quotient.dim, 0) + 1
    assert sorted(by_dim) == [1, 2, 3, 4, 5]
    assert sum(by_dim.values()) == 91 and by_dim[1] == 7
    square = make_pair(
        3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], [1, Fraction(1, 2), Fraction(1, 2), 0]
    )
    report = tp.compute_mld(square)
    quotient, lift = tp.quotient_pair(square, report.w)
    assert quotient.rays == ((0, 1), (1, 0))
    assert [c.level for c in quotient.coefficients] == [2, 2]
    assert tp.validate_pair(quotient) is quotient
    q_report = tp.compute_mld(quotient)
    assert (report.index, report.mld) == (q_report.index, q_report.mld) == (2, 1)
    assert tp.mld_oracle(square) == (report.mld, report.witness) == (1, (1, 1, 2))
    assert time.perf_counter() - start < 15


# --- the oracle --------------------------------------------------------------------


def test_oracle_agrees_on_hand_checked_pairs():
    for pair in (QUADRANT_PLAIN, QUADRANT_ONE_AXIS, QUADRANT_HALF,
                 THIRD_THIRD, LINE_FIFTH):
        rep = tp.compute_mld(pair)
        val, wit = tp.mld_oracle(pair)
        assert val == rep.mld
        assert all(dot(u, wit) < 0 for u in tp.cone_facets(pair))
        w, n = tp.solve_psi(pair)
        assert Fraction(dot(w, wit), n) == val


def test_oracle_refuses_non_klt_pairs():
    with pytest.raises(NotKlt):
        tp.mld_oracle(ALL_ONES)


@given(
    # 1/r(1, s) with 0 <= s < r coprime, drawn directly rather than filtered
    st.integers(min_value=1, max_value=12).flatmap(
        lambda r: st.tuples(
            st.just(r), st.sampled_from([s for s in range(r) if gcd(r, s) == 1])
        )
    ),
    st.sampled_from([0, Fraction(1, 2), Fraction(2, 3), 1]),
    st.sampled_from([0, Fraction(1, 2), Fraction(2, 3), 1]),
)
@settings(deadline=None, max_examples=80)
def test_two_dim_invariants_and_oracle_agreement(rs, b1, b2):
    r, s = rs
    assume((b1, b2) != (1, 1))
    pair = tp.validate_pair(make_pair(2, [(0, 1), (r, -s)], [b1, b2]))
    rep = tp.compute_mld(pair)
    assert rep.klt and rep.mld > 0
    assert rep.index % rep.mld_denominator == 0
    assert gcd(*rep.w) == 1
    assert all(dot(u, rep.witness) < 0 for u in tp.cone_facets(pair))
    assert dot(rep.psi, rep.witness) == rep.mld
    val, _ = tp.mld_oracle(pair)
    assert val == rep.mld
    # sharp two-dimensional index bound
    assert rep.index <= 2 * rep.mld_denominator**2


def random_unimodular(rng, d, bound=5):
    """A permutation matrix times random elementary row operations, none
    pushing an entry past ``bound``."""
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    rng.shuffle(U)
    for _ in range(3 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        row = [x + c * y for x, y in zip(U[i], U[j])]
        if max(map(abs, row)) <= bound:
            U[i] = row
    return U


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 3, 4]))
@settings(deadline=None, max_examples=100)
def test_invariants_respect_lattice_automorphisms_and_ray_order(seed, d):
    """(n, a, q) do not change when the rays are permuted or mapped by a
    matrix in GL(d, ℤ); a permutation keeps the witness, and U maps it to
    an interior point of the new cone with the same value."""
    rng = random.Random(seed)
    rays = random_simplicial_cone(d, 3, seed).rays
    values = [Fraction(l - 1, l) for l in (rng.randint(1, 3) for _ in range(d))]
    rep = tp.compute_mld(make_pair(d, rays, values))
    invariants = (rep.index, rep.mld, rep.mld_denominator)
    perm = rng.sample(range(d), d)
    permuted = tp.compute_mld(make_pair(d, [rays[i] for i in perm], [values[i] for i in perm]))
    assert (permuted.index, permuted.mld, permuted.mld_denominator) == invariants
    assert permuted.witness == rep.witness
    U = random_unimodular(rng, d)
    moved_pair = make_pair(d, [tuple(dot(r, e) for r in U) for e in rays], values)
    moved = tp.compute_mld(moved_pair)
    assert (moved.index, moved.mld, moved.mld_denominator) == invariants
    image = tuple(dot(r, rep.witness) for r in U)
    assert dot(moved.psi, image) == rep.mld
    assert all(dot(u, image) < 0 for u in tp.cone_facets(moved_pair))


# --- bound_check ----------------------------------------------------------------------


def test_bound_check_low_dimensions():
    v1 = tp.bound_check(tp.compute_mld(LINE_FIFTH))
    assert v1.passed and v1.constant == 1 and v1.limit == 5
    assert Fraction(v1.index, v1.mld_denominator**v1.dim) == 1
    v2 = tp.bound_check(tp.compute_mld(THIRD_THIRD))
    assert v2.passed and v2.constant == 2 and v2.limit == 18
    assert Fraction(v2.index, v2.mld_denominator**v2.dim) == Fraction(1, 3)


def test_bound_check_needs_gamma_in_higher_dimension():
    rep = tp.compute_mld(
        make_pair(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [0, 0, 0])
    )
    with pytest.raises(MissingGamma):
        tp.bound_check(rep)
    v = tp.bound_check(rep, gamma=Fraction(1, 2))
    assert v.constant == 24 and v.passed
    with pytest.raises(InvalidParameters):
        tp.bound_check(rep, gamma=Fraction(2, 3))
