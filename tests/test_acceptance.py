"""Release acceptance suite.

One test per release criterion, run at full stated scale; each prints a
single verdict line (visible with ``pytest -s``, and mirrored by the
per-test PASSED/FAILED line under ``pytest -v``).  The two large instance
corpora — the full 2D cyclic-quotient sweep r <= 60 with the depth-5
coefficient grid plus coefficient 1, and 500 seeded random 3D cones — are
session fixtures shared by the criteria that consume them.
"""

import time
from fractions import Fraction as F
from math import factorial, gcd

import pytest

from toricmld.families import (
    FamilySpec,
    lemma_lv_suite,
    lemma_vo_suite,
    sweep,
)
from toricmld.geometry import convex_hull, normalized_volume
from toricmld.lattice import det
from toricmld.pairs import (
    ToricLogPair,
    bound_check,
    compute_mld,
    mld_oracle,
    standard_coefficients,
)
from toricmld.proof import lemma_lv_check, lemma_vo_check, prove

SEED = 20260814

CONES_2D = sum(1 for r in range(1, 61) for s in range(r) if gcd(r, s) == 1)
GRID_SIZE = 36  # depth-5 grid {0,1/2,2/3,3/4,4/5} plus 1, two rays
GRID_BELOW_ONE = 25


def verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def shokurov_equality(row) -> bool:
    """Shokurov's bound, for toric germs Ambro 1999: mld <= d, with
    equality exactly when the cone is smooth (d rays, |det| = 1) and every
    coefficient is 0.  Asserts it and returns whether equality holds."""
    pair, mld = row.pair, row.report.mld
    assert mld <= pair.dim, row.key
    equal = all(c.level == 1 for c in pair.coefficients) and (
        len(pair.rays) == pair.dim and abs(det(pair.rays)) == 1
    )
    assert (mld == pair.dim) == equal, row.key
    return equal


@pytest.fixture(scope="session")
def cyclic_sweep():
    t0 = time.monotonic()
    report = sweep(FamilySpec(kind="cyclic2d", max_r=60, L=5, include_one=True))
    return report, time.monotonic() - t0


@pytest.fixture(scope="session")
def random3d_sweep():
    return sweep(
        FamilySpec(
            kind="random_cone", dims=(3,), count=500, max_entry=5, L=3, seed=SEED
        )
    )


def test_criterion_1_dimension_one_constant_is_one():
    t0 = time.monotonic()
    for l in range(1, 1001):
        pair = ToricLogPair(1, ((1,),), standard_coefficients([F(l - 1, l)]))
        rep = compute_mld(pair)
        assert (rep.index, rep.mld, rep.mld_denominator) == (l, F(1, l), l)
        v = bound_check(rep)
        assert v.passed and v.index == v.limit  # n <= 1*q, with equality
    elapsed = time.monotonic() - t0
    verdict(
        1,
        "c_1 = 1 with equality on l = 1..1000",
        elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_dimension_two_constant_is_two(cyclic_sweep):
    report, elapsed = cyclic_sweep
    assert len(report.rows) == CONES_2D * GRID_SIZE
    assert not any(row.error for row in report.rows)
    equalities = 0
    for row in report.rows:
        rep = row.report
        assert rep.index <= 2 * rep.mld_denominator**2
        equalities += shokurov_equality(row)
    ok = report.counterexamples == () and elapsed < 300
    verdict(
        2,
        "c_2 = 2 over all cyclic quotients r <= 60, grids L <= 5 plus b = 1",
        ok,
        f"{len(report.rows)} instances, max n/q^2 = {report.max_ratio}, "
        f"mld = 2 on {equalities}, {elapsed:.0f}s",
    )


def test_criterion_3_oracle_equivalence(cyclic_sweep, random3d_sweep):
    report, _ = cyclic_sweep
    checked = 0
    for row in report.rows:
        if row.report.klt:
            value, _ = mld_oracle(row.pair)
            assert value == row.report.mld, row.key
            checked += 1
    assert checked == 35 * CONES_2D  # only the all-ones grid point is not klt
    equalities = 0
    for row in random3d_sweep.rows:
        assert row.report.klt
        value, _ = mld_oracle(row.pair)
        assert value == row.report.mld, row.key
        equalities += shokurov_equality(row)
    verdict(
        3,
        "compute_mld agrees with the enumeration oracle",
        True,
        f"{checked} 2D + {len(random3d_sweep.rows)} 3D instances, exact; "
        f"mld = 3 on {equalities} 3D",
    )


def test_criterion_4_known_invariants_reproduced():
    third = compute_mld(
        ToricLogPair(2, ((0, 1), (3, -1)), standard_coefficients([0, 0]))
    )
    assert (third.index, third.mld, third.mld_denominator) == (3, F(2, 3), 3)
    for k in range(1, 11):
        rep = compute_mld(
            ToricLogPair(2, ((0, 1), (k + 1, -k)), standard_coefficients([0, 0]))
        )
        assert (rep.index, rep.mld, rep.mld_denominator) == (1, F(1), 1), k
    for d in range(1, 5):
        rays = tuple(
            tuple(1 if i == j else 0 for j in range(d)) for i in range(d)
        )
        rep = compute_mld(ToricLogPair(d, rays, standard_coefficients([0] * d)))
        assert (rep.index, rep.mld, rep.mld_denominator) == (1, F(d), 1), d
    verdict(4, "1/3(1,1), A_k chain, smooth cones", True)


def test_criterion_5_proof_chain_zero_failures(cyclic_sweep, random3d_sweep):
    report, _ = cyclic_sweep
    with_trace = [row for row in report.rows if row.trace is not None]
    # the pipeline covers exactly the klt instances with all coefficients
    # below 1 (the rest carry no bounded cross-section)
    assert len(with_trace) == GRID_BELOW_ONE * CONES_2D
    rows_3d = list(random3d_sweep.rows)
    assert all(row.trace is not None for row in rows_3d)
    required = {
        "dilation-threshold",
        "vertex-orders",
        "vertex-denominators",
        "certificate-unique-interior",
        "certificate-volume",
        "chain-minkowski",
        "chain-cross-section",
        "chain-difference",
        "chain-dilation",
        "chain-index",
    }
    for row in with_trace + rows_3d:
        trace = row.trace
        named = {c.name: c.passed for c in trace.checks}
        assert required <= set(named), row.key
        assert all(named.values()), row.key
        assert trace.all_passed and trace.bound.passed, row.key
        d = row.pair.dim
        q = row.report.mld_denominator
        gamma = trace.gamma
        assert trace.threshold <= factorial(d) * q ** (d - 1) / gamma ** (d - 1)
        assert row.report.index <= factorial(d) * q**d / gamma ** (d - 1)
    verdict(
        5,
        "all certificate checks hold on every pipeline-eligible instance",
        True,
        f"{len(with_trace)} 2D + {len(rows_3d)} 3D traces, zero failures",
    )


def test_criterion_6_pyramid_volume_rule():
    t0 = time.monotonic()
    total = 0
    for d in (2, 3, 4):
        for height, base, sub in lemma_vo_suite(d, 200, SEED):
            assert lemma_vo_check(height, base, sub).passed
            total += 1
    elapsed = time.monotonic() - t0
    verdict(
        6,
        "pyramid volume rule exact on random triples",
        elapsed < 60,
        f"{total} triples (including non-standard sublattices), {elapsed:.1f}s",
    )


def test_criterion_7_difference_body_floor():
    segment = convex_hull([(0,), (1,)])
    check = lemma_lv_check(segment)
    assert check.passed and "vol 2 vs floor 2" in check.detail  # equality
    triangle = convex_hull([(0, 0), (1, 0), (0, 1)])
    check = lemma_lv_check(triangle)
    assert check.passed and "vol 3" in check.detail  # hexagon of area 3 >= 2
    simplices = 0
    for d in (2, 3):
        for Q in lemma_lv_suite(d, 500, SEED):
            check = lemma_lv_check(Q)
            assert check.passed
            if len(Q.vertices) == d + 1:
                simplices += 1
                assert "orthant pieces sum exactly" in check.detail
    assert simplices > 0
    verdict(
        7,
        "vol(Q-Q) >= 2^d/d! on 500 random polytopes per dimension",
        True,
        f"pinned equality and triangle cases, {simplices} simplex decompositions",
    )


def test_criterion_8_minkowski_preconditions(cyclic_sweep, random3d_sweep):
    report, _ = cyclic_sweep
    traces = [row.trace for row in report.rows if row.trace is not None]
    traces += [row.trace for row in random3d_sweep.rows]
    for trace in traces:
        names = [c.name for c in trace.checks]
        sym = names.index("certificate-symmetry")
        unique = names.index("certificate-unique-interior")
        volume = names.index("certificate-volume")
        assert sym < volume and unique < volume
        assert trace.checks[sym].passed and trace.checks[unique].passed
    quadrant = prove(
        ToricLogPair(2, ((1, 0), (0, 1)), standard_coefficients([0, 0]))
    )
    assert normalized_volume(quadrant.certificate) == 4 == 2**2
    verdict(
        8,
        "symmetry and uniqueness verified by enumeration before the bound",
        True,
        f"{len(traces)} bodies, smooth d=2 attains vol(P) = 4",
    )


def test_criterion_9_seeded_sweeps_are_byte_identical():
    spec = FamilySpec(
        kind="random_cone", dims=(2, 3), count=30, max_entry=5, L=2, seed=SEED
    )
    first = sweep(spec).to_csv().encode()
    second = sweep(spec).to_csv().encode()
    assert first == second
    cyclic = FamilySpec(kind="cyclic2d", max_r=12, L=2, include_one=True)
    assert sweep(cyclic).to_csv().encode() == sweep(cyclic).to_csv().encode()
    verdict(9, "repeated seeded sweeps produce identical CSV bytes", True)
