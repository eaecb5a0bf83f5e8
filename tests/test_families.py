"""Instance-suite and sweep tests.

CSV rows are frozen from hand-checked instances (the 1/3(1,1) row carries
n=3, a=2/3, q=3, j=2, gamma=1/2, n/q^2 = 1/3).  Determinism is asserted
byte-for-byte; generators are also run under hypothesis to confirm every
draw validates.
"""

import hashlib
import time
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from toricmld import proof
from toricmld.errors import CheckFailed, ExhaustedResampling, InvalidParameters
from toricmld.families import (
    CSV_COLUMNS,
    FamilySpec,
    _instances,
    coefficient_grid,
    cyclic_quotient_cone,
    lemma_lv_suite,
    lemma_vo_suite,
    minkowski_suite,
    random_simplicial_cone,
    sweep,
)
from toricmld.geometry import difference_body, normalized_volume, scale_about
from toricmld.pairs import (
    ToricLogPair,
    compute_mld,
    mld_oracle,
    standard_coefficients,
    validate_pair,
)

NON_Q_GORENSTEIN = ToricLogPair(
    3,
    ((0, 0, 1), (1, 0, 2), (0, 1, 1), (1, 1, 1)),
    standard_coefficients([0, 0, 0, 0]),
)


def test_cyclic_quotient_cone_examples():
    assert cyclic_quotient_cone(1, 0).rays == ((0, 1), (1, 0))
    third = cyclic_quotient_cone(3, 1)
    rep = compute_mld(third)
    assert rep.psi == (F(2, 3), F(1)) and rep.index == 3
    a1 = compute_mld(cyclic_quotient_cone(2, 1))
    assert a1.psi == (F(1), F(1)) and a1.index == 1 and a1.mld == 1


def test_cyclic_quotient_cone_accepts_coefficients():
    pair = cyclic_quotient_cone(3, 1, [F(1, 2), 0])
    assert [c.value for c in pair.coefficients] == [F(1, 2), F(0)]


def test_cyclic_quotient_cone_rejects_bad_parameters():
    for r, s in [(0, 0), (3, 3), (3, -1), (4, 2), (6, 3)]:
        with pytest.raises(InvalidParameters):
            cyclic_quotient_cone(r, s)
    with pytest.raises(InvalidParameters):
        cyclic_quotient_cone(F(3, 1), 1)


def test_coefficient_grid_pinned():
    assert coefficient_grid(2, 1) == ((F(0), F(0)),)
    assert coefficient_grid(1, 2, include_one=True) == ((F(0),), (F(1, 2),), (F(1),))
    grid = coefficient_grid(2, 3)
    assert len(grid) == 9
    assert grid == tuple(sorted(grid))  # lexicographic
    assert grid[0] == (F(0), F(0)) and grid[-1] == (F(2, 3), F(2, 3))
    with pytest.raises(InvalidParameters):
        coefficient_grid(0, 2)


def test_random_cone_is_valid_and_deterministic():
    pair = random_simplicial_cone(2, 5, 42)
    assert validate_pair(pair) is pair
    assert pair.rays == random_simplicial_cone(2, 5, 42).rays
    tiny = random_simplicial_cone(3, 1, 7)
    assert all(abs(x) <= 1 for ray in tiny.rays for x in ray)
    with pytest.raises(InvalidParameters):
        random_simplicial_cone(1, 5, 42)
    with pytest.raises(InvalidParameters):
        random_simplicial_cone(3, 0, 42)


def test_random_cone_sweep_in_five_and_six_dimensions():
    """Dimensions above 4 run the whole pipeline: seeded 5D and 6D cones
    (coefficients below 1) each get a passing trace, with no error rows and
    no counterexamples.  The dilated sections are simplices, so each
    difference body the proof measures has the Rogers–Shephard volume
    C(2k, k)·vol (Rogers & Shephard 1957, the equality case)."""
    for d, count in ((5, 60), (6, 30)):
        spec = FamilySpec(
            kind="random_cone", dims=(d,), count=count, max_entry=2, L=3, seed=20261018
        )
        report = sweep(spec)
        assert len(report.rows) == count
        assert [r.key for r in report.rows if r.error] == []
        assert all(r.trace is not None for r in report.rows)
        assert report.counterexamples == ()
        for r in report.rows:
            S = scale_about(r.trace.section, r.trace.threshold, (0,) * (d - 1))
            assert len(S.rows) == d
            vol = normalized_volume(S)
            assert normalized_volume(difference_body(S)) == comb(2 * d - 2, d - 1) * vol


def test_random_cone_sweep_in_seven_dimensions_pinned_digest():
    """Four seeded 7D cones get a passing trace each and reproduce pinned
    sweep JSON and trace-v1 bytes, so that a change to the certificate's
    volumes or facet checks cannot alter them."""
    start = time.perf_counter()
    report = sweep(
        FamilySpec(kind="random_cone", dims=(7,), count=4, max_entry=2, L=3, seed=20261018)
    )
    assert [r.error for r in report.rows] == [""] * 4
    text = report.to_json() + "".join(proof.serialize_trace(r.trace) for r in report.rows)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9b74623504dc60f8ca19511cddb407dda5a76fff1907756651106e1e93ae0242"
    )
    assert time.perf_counter() - start < 15


def test_random_cone_sweep_in_nine_dimensions_pinned_digest():
    """One seeded 9D cone (n = 128520, mld 1075/1512) gets a passing trace
    and reproduces pinned sweep JSON and trace-v1 bytes: the scale at which
    the walks' projection levels and the difference body's facets count."""
    start = time.perf_counter()
    report = sweep(
        FamilySpec(kind="random_cone", dims=(9,), count=1, max_entry=2, L=3, seed=20261018)
    )
    (row,) = report.rows
    assert row.error == "" and row.trace.all_passed
    assert (row.report.index, row.report.mld) == (128520, F(1075, 1512))
    text = report.to_json() + proof.serialize_trace(row.trace)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a5727e879ee7a8a7dc38e56d18741aa35d3168e95fee4c408f14deb6ecfc6a47"
    )
    assert time.perf_counter() - start < 30


def test_random_cone_resampling_budget(monkeypatch):
    import toricmld.families as fam

    monkeypatch.setattr(fam, "_RESAMPLE_BUDGET", 0)
    with pytest.raises(ExhaustedResampling):
        random_simplicial_cone(3, 5, 42)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 3]))
def test_random_cones_always_validate(seed, d):
    pair = random_simplicial_cone(d, 4, seed)
    assert validate_pair(pair) is pair
    assert len(pair.rays) == d


def test_one_dim_family_ratio_is_exactly_one():
    # b = (l-1)/l for l = 1..10 on the 1D cone
    pairs = tuple(
        ToricLogPair(1, ((1,),), standard_coefficients([F(l - 1, l)]))
        for l in range(1, 11)
    )
    report = sweep(FamilySpec(kind="explicit_list", pairs=pairs))
    assert len(report.rows) == 10
    assert report.max_ratio == 1
    assert report.counterexamples == ()
    assert [r.key for r in report.rows] == [f"x{i}" for i in range(10)]
    assert all(r.report.index == l for l, r in enumerate(report.rows, start=1))


def test_cyclic_sweep_small_b_zero_all_pass():
    report = sweep(FamilySpec(kind="cyclic2d", max_r=10, L=1))
    # one row per coprime (r, s): sum of Euler phi over r <= 10
    assert len(report.rows) == 32
    assert report.counterexamples == ()
    assert report.max_ratio <= 2
    assert all(r.trace is not None and r.trace.all_passed for r in report.rows)


def test_sweep_csv_frozen_rows():
    report = sweep(FamilySpec(kind="cyclic2d", max_r=3, L=1))
    lines = report.to_csv().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "r1s0c0,2,0 1;1 0,0;0,1,2,1,2,1/2,1,1"
    assert lines[3] == "r3s1c0,2,0 1;3 -1,0;0,3,2/3,3,2,1/2,1/3,1"
    assert lines[4] == "r3s2c0,2,0 1;3 -2,0;0,1,1,1,1,1/3,1,1"


def test_sweep_rows_with_coefficient_one_have_no_trace():
    pair = ToricLogPair(2, ((1, 0), (0, 1)), standard_coefficients([1, 0]))
    report = sweep(FamilySpec(kind="explicit_list", pairs=(pair,)))
    (row,) = report.rows
    # klt in the mld sense, but outside the certificate pipeline's scope;
    # the index bound is still checked arithmetically
    assert row.report.klt and row.trace is None
    assert row.bound.passed and row.passed
    assert report.to_csv().splitlines()[1] == "x0,2,1 0;0 1,1;0,1,1,1,,,1,1"


def test_sweep_captures_errors_per_row():
    bad_ray = ToricLogPair(2, ((2, 0), (0, 1)), standard_coefficients([0, 0]))
    report = sweep(
        FamilySpec(kind="explicit_list", pairs=(NON_Q_GORENSTEIN, bad_ray))
    )
    first, second = report.rows
    assert first.error == "NotLogQGorenstein" and first.passed is None
    assert second.error == "NonPrimitiveRay"
    assert report.counterexamples == ()
    csv = report.to_csv()
    assert "error:NotLogQGorenstein" in csv and "error:NonPrimitiveRay" in csv


def test_sweep_row_outcomes_pinned():
    """One row per outcome of the row runner: a validation error, a pair no
    functional fits (neither keeps a report), the pairs ``prove`` declines
    (not klt, dimension 1, a coefficient 1) with the ``bound_check``
    verdict or its ``MissingGamma`` (these keep the report, not a trace),
    and two proved rows."""
    cases = [
        (2, [(2, 0), (0, 1)], [0, 0]),
        (3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [F(1, 2), 0, 0, 0]),
        (2, [(1, 0), (0, 1)], [1, 1]),
        (1, [(1,)], [0]),
        (2, [(1, 0), (0, 1)], [1, 0]),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [1, 0, 0]),
        (2, [(0, 1), (3, -1)], [0, 0]),
        (3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)], [0, F(1, 2), 0]),
    ]
    pairs = tuple(ToricLogPair(d, tuple(rays), standard_coefficients(b)) for d, rays, b in cases)
    report = sweep(FamilySpec(kind="explicit_list", pairs=pairs))
    assert [(r.report is not None, r.trace is not None) for r in report.rows] == (
        [(False, False)] * 2 + [(True, False)] * 4 + [(True, True)] * 2
    )
    assert [r.passed for r in report.rows] == [None, None, True, True, True, None, True, True]
    assert report.counterexamples == ()
    assert report.to_csv() == (
        "key,d,rays,coeffs,n,a,q,j,gamma,n_over_qd,pass\n"
        "x0,2,2 0;0 1,0;0,,,,,,,error:NonPrimitiveRay\n"
        "x1,3,1 0 1;0 1 1;-1 0 1;0 -1 1,1/2;0;0;0,,,,,,,error:NotLogQGorenstein\n"
        "x2,2,1 0;0 1,1;1,1,0,1,,,1,1\n"
        "x3,1,1,0,1,1,1,,,1,1\n"
        "x4,2,1 0;0 1,1;0,1,1,1,,,1,1\n"
        "x5,3,1 0 0;0 1 0;0 0 1,1;0;0,1,2,1,,,1,error:MissingGamma\n"
        "x6,2,0 1;3 -1,0;0,3,2/3,3,2,1/2,1/3,1\n"
        "x7,3,1 0 0;0 1 0;1 1 2,0;1/2;0,4,5/4,4,5,1/5,1/16,1\n"
    )


def test_sweep_records_failed_proof_check_as_error_row(monkeypatch):
    def fail(*args, **kwargs):
        raise CheckFailed("shrink-uniqueness", "forced")

    monkeypatch.setattr(proof, "shrink_to_unique", fail)
    third = cyclic_quotient_cone(3, 1)
    report = sweep(FamilySpec(kind="explicit_list", pairs=(third, third)))
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.error == "CheckFailed" and row.passed is None
        assert row.report == compute_mld(third) and row.trace is None
    assert report.counterexamples == ()
    assert report.to_csv().splitlines()[1] == (
        "x0,2,0 1;3 -1,0;0,3,2/3,3,,,1/3,error:CheckFailed"
    )


def test_empty_explicit_list_gives_empty_report():
    report = sweep(FamilySpec(kind="explicit_list"))
    assert report.rows == ()
    assert report.max_ratio is None and report.min_gamma is None
    assert report.to_csv() == ",".join(CSV_COLUMNS) + "\n"


def test_sweep_rejects_bad_specs():
    with pytest.raises(InvalidParameters):
        sweep(FamilySpec(kind="nonsense"))
    with pytest.raises(InvalidParameters):
        sweep(FamilySpec(kind="lemma_polytopes", dims=(2,), count=5, seed=1))
    with pytest.raises(InvalidParameters):
        sweep(FamilySpec(kind="random_cone", dims=(3,), count=5))  # no seed
    with pytest.raises(InvalidParameters):
        sweep(FamilySpec(kind="random_cone", dims=(1,), count=5, seed=1))
    with pytest.raises(InvalidParameters):
        sweep(FamilySpec(kind="random_cone", dims=(), count=5, seed=1))
    with pytest.raises(InvalidParameters):
        sweep(FamilySpec(kind="random_cone", dims=(3, 3), count=2, seed=1))
    with pytest.raises(InvalidParameters):
        sweep(FamilySpec(kind="cyclic2d", max_r=0))
    with pytest.raises(InvalidParameters):
        sweep(FamilySpec(kind="cyclic2d", max_r=5, L=0))


def test_random_sweep_deterministic_and_shaped():
    spec = FamilySpec(kind="random_cone", dims=(2, 3), count=5, max_entry=4, L=2, seed=3)
    first = sweep(spec)
    second = sweep(spec)
    assert first.to_csv() == second.to_csv()
    assert first.to_json() == second.to_json()
    assert len(first.rows) == 10
    assert [r.key for r in first.rows][:5] == [f"d2i{i}" for i in range(5)]
    assert first.counterexamples == ()


def test_random_4d_sweep_matches_oracle_and_pinned_digest():
    """4D rows agree with the zonotope oracle, pass the strict pipeline, and
    reproduce pinned CSV and trace-v1 bytes, so that a change of lattice-point
    enumeration algorithm cannot alter them."""
    report = sweep(
        FamilySpec(kind="random_cone", dims=(4,), count=6, max_entry=2, L=3, seed=1)
    )
    for row in report.rows:
        assert row.report.mld == mld_oracle(row.pair)[0], row.key
        strict = proof.prove(row.pair, strict=True)
        assert proof.serialize_trace(strict) == proof.serialize_trace(row.trace)
    text = report.to_csv() + "".join(
        proof.serialize_trace(r.trace) for r in report.rows
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c03c8b025bdb2871ac3bd8bef1ca10b55b2055356fb4948b0e90ced6c8332a33"
    )


def test_random_4d_sweep_max_entry_5_pinned_digest():
    """The CLI's default 4D sweep (`toricmld sweep --family random_cone
    --dims 4 --count 10 --seed 20260814`, entries up to 5) agrees with the
    zonotope oracle and reproduces pinned CSV and trace-v1 bytes, so that a
    change of walk frame cannot alter them."""
    report = sweep(
        FamilySpec(kind="random_cone", dims=(4,), count=10, max_entry=5, L=1, seed=20260814)
    )
    assert [r.error for r in report.rows] == [""] * 10
    for row in report.rows:
        assert row.report.mld == mld_oracle(row.pair)[0], row.key
    text = report.to_csv() + "".join(
        proof.serialize_trace(r.trace) for r in report.rows
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a1c687f85eb41c20e26a6ce3ab394986093aad1810f079f304127a0d3554d02e"
    )


def test_cyclic_2d_sweep_pinned_digest():
    """2D rows, with and without a coefficient equal to 1, reproduce pinned
    CSV and trace-v1 bytes, so that a change of polytope arithmetic cannot
    alter them."""
    report = sweep(FamilySpec(kind="cyclic2d", max_r=12, L=3, include_one=True))
    traces = [r.trace for r in report.rows if r.trace is not None]
    assert (len(report.rows), len(traces)) == (736, 414)
    text = report.to_csv() + "".join(proof.serialize_trace(t) for t in traces)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "11103663b67e223e81ade44ccae930c3316ae059f6669ab853c0f7165ae99602"
    )


def test_random_sweep_with_coefficient_one_pinned_digest():
    """3D–5D rows with coefficients equal to 1 reproduce pinned sweep JSON
    bytes and ``(index, mld, witness)`` of every report, so that a change
    of the quotient by the zero rays, or of the witness lifted from it,
    cannot alter them."""
    report = sweep(
        FamilySpec(
            kind="random_cone", dims=(3, 4, 5), count=10, max_entry=3, L=3,
            include_one=True, seed=2,
        )
    )
    assert all(r.report is not None for r in report.rows)
    text = "".join(
        f"{r.key}|{r.report.index}|{proof.fmt_rat(r.report.mld)}|{r.report.witness}\n"
        for r in report.rows
    )
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "046a48adc108be1f7b8e184c3a4c1c1444f5e6efc9fb097a8e6796b71744bf2c"
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "934193d7fd8b743c4a3cb2f9e47f0aaef56b20afbb0de031bc3d1ce8976e1651"
    )


def test_coefficient_one_witnesses_pinned_digest():
    """``key|n|mld|q|witness`` of every row with a coefficient 1 of the
    cyclic r <= 30 sweep (L = 5) and of the random d = 3–5, seed 2 sweep
    reproduce a pinned digest.  The witness of such a row is lifted from
    its quotient pair, and neither the CSV nor any trace shows it."""
    specs = (
        FamilySpec(kind="cyclic2d", max_r=30, L=5, include_one=True),
        FamilySpec(
            kind="random_cone", dims=(3, 4, 5), count=10, max_entry=3, L=3,
            include_one=True, seed=2,
        ),
    )
    lines = []
    for spec in specs:
        for key, pair in _instances(spec):
            if any(c.level is None for c in pair.coefficients):
                rep = compute_mld(pair)
                lines.append(
                    f"{key}|{rep.index}|{proof.fmt_rat(rep.mld)}|{rep.mld_denominator}"
                    f"|{proof.fmt_row(rep.witness)}\n"
                )
    assert len(lines) == 3076
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "e0c82bdba2a9f43e5390d9c1ec82adc80d77a318f338ea646d52d80afd5960dc"
    )


def test_sweep_json_carries_aggregates():
    import json

    report = sweep(FamilySpec(kind="cyclic2d", max_r=3, L=1))
    doc = json.loads(report.to_json())
    assert doc["aggregates"]["max_n_over_qd"] == "1"
    assert doc["aggregates"]["min_gamma"] == "1/3"
    assert doc["aggregates"]["counterexamples"] == []
    assert doc["columns"] == list(CSV_COLUMNS)
    assert doc["rows"][2]["key"] == "r3s1c0" and doc["rows"][2]["a"] == "2/3"


@pytest.mark.parametrize(
    "call",
    [
        lambda: coefficient_grid(2, 2.5),
        lambda: coefficient_grid(True, 2),
        lambda: random_simplicial_cone(2.0, 2, 1),
        lambda: random_simplicial_cone(2, 2.5, 1),
        lambda: lemma_lv_suite(2.0, 1, 1),
        lambda: lemma_vo_suite(2, 1.0, 1),
        lambda: minkowski_suite(2, 1.5, 1),
        lambda: sweep(FamilySpec(kind="cyclic2d", max_r=3.0)),
        lambda: sweep(FamilySpec(kind="cyclic2d", max_r=3, L=2.0)),
        lambda: sweep(FamilySpec(kind="random_cone", dims=(2,), count=1.0, seed=1)),
        lambda: sweep(FamilySpec(kind="random_cone", dims=(2.0,), count=1, seed=1)),
        lambda: sweep(
            FamilySpec(kind="random_cone", dims=(2,), count=1, max_entry=2.5, seed=1)
        ),
        lambda: sweep(FamilySpec(kind="explicit_list", pairs=((1, 2),))),
    ],
    ids=[
        "grid-L-float", "grid-k-bool", "cone-d-float", "cone-entry-float",
        "lv-dim-float", "vo-count-float", "minkowski-count-float",
        "spec-max_r-float", "spec-L-float", "spec-count-float", "spec-dims-float",
        "spec-max_entry-float", "spec-pairs-not-pairs",
    ],
)
def test_families_reject_non_integer_parameters(call):
    """Each call ended in a builtin ``TypeError``, ``ValueError`` or
    ``AttributeError`` (or, for ``True``, passed as 1) before its
    parameters were type-checked."""
    with pytest.raises(InvalidParameters):
        call()


def test_cyclic_sweep_hulls_each_cone_once(monkeypatch):
    """The cone record is built once per cone: every coefficient choice of
    a cone, and its validation, solve and certificate, read the cached
    record, so a second per-cone hull or rank pass would show as a miss.
    The record keeps the inverse of the chosen rays, so the pairs layer
    inverts once per cone, not once per row."""
    from math import gcd

    import toricmld.pairs as pairs
    from toricmld.lattice import pivot_inverse
    from toricmld.pairs import _cone_record

    inversions = []

    def counted(M):
        inversions.append(M)
        return pivot_inverse(M)

    monkeypatch.setattr(pairs, "pivot_inverse", counted, raising=False)
    _cone_record.cache_clear()
    report = sweep(FamilySpec(kind="cyclic2d", max_r=12, L=2, include_one=True))
    cones = sum(1 for r in range(1, 13) for s in range(r) if gcd(r, s) == 1)
    assert len(report.rows) == 9 * cones
    assert _cone_record.cache_info().misses == cones
    assert len(inversions) == cones


def test_lemma_lv_suite_polytopes_are_lattice_and_full_dim():
    suite = lemma_lv_suite(3, 8, 5)
    assert len(suite) == 8
    assert suite == lemma_lv_suite(3, 8, 5)
    for Q in suite:
        assert Q.dim == 3
        assert all(x.denominator == 1 for v in Q.vertices for x in v)
    with pytest.raises(InvalidParameters):
        lemma_lv_suite(2, 0, 5)


def test_lemma_vo_suite_mixes_sublattices():
    suite = lemma_vo_suite(2, 6, 7)
    assert len(suite) == 6
    assert suite == lemma_vo_suite(2, 6, 7)
    assert [sub is not None for _, _, sub in suite] == [
        False, False, True, False, False, True,
    ]
    for height, base, sub in suite:
        assert 1 <= height <= 6 and base.dim == 2


def test_minkowski_suite_stays_in_pipeline_scope():
    suite = minkowski_suite(2, 5, 9)
    assert suite == minkowski_suite(2, 5, 9)
    for pair in suite:
        assert all(c.value < 1 for c in pair.coefficients)
        assert validate_pair(pair) is pair
    with pytest.raises(InvalidParameters):
        minkowski_suite(1, 5, 9)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=7))
def test_cyclic_instances_all_validate(r, s):
    from math import gcd

    if s >= r or gcd(r, s) != 1:
        with pytest.raises(InvalidParameters):
            cyclic_quotient_cone(r, s)
    else:
        assert validate_pair(cyclic_quotient_cone(r, s))
