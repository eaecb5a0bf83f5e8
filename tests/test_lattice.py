"""Exact lattice linear algebra: normal forms, kernels, base points."""

from fractions import Fraction
from importlib import import_module
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricmld import lattice as lat
from toricmld.errors import (
    DimensionMismatch,
    InvalidParameters,
    ValueGroupMismatch,
    ZeroFunctional,
)

small_ints = st.integers(min_value=-6, max_value=6)


def int_matrix(rows, cols, entries=small_ints):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def laplace_det(M):
    """Reference determinant by first-row expansion (independent oracle)."""
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j, entry in enumerate(M[0]):
        if entry == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * entry * laplace_det(minor)
    return total


# --- vectors and gcd utilities ----------------------------------------------


def test_dot_and_vector_arithmetic():
    assert lat.dot((1, 2, 3), (4, 5, 6)) == 32
    assert lat.vec_add((1, 2), (3, -1)) == (4, 1)
    assert lat.vec_sub((1, 2), (3, -1)) == (-2, 3)
    assert lat.vec_scale(Fraction(1, 2), (4, 6)) == (2, 3)
    with pytest.raises(DimensionMismatch):
        lat.dot((1,), (1, 2))


def test_xgcd_identity_on_examples():
    for a, b in [(12, 18), (-12, 18), (0, 5), (5, 0), (0, 0), (7, -3)]:
        g, x, y = lat.xgcd(a, b)
        assert g == gcd(a, b)
        assert a * x + b * y == g


@given(small_ints, small_ints)
def test_xgcd_identity(a, b):
    g, x, y = lat.xgcd(a, b)
    assert g == gcd(a, b) >= 0
    assert a * x + b * y == g


def test_content_and_primitive():
    assert lat.content((4, 6)) == 2
    assert lat.content((0, 0)) == 0
    assert lat.primitive_vector((4, 6)) == (2, 3)
    assert lat.primitive_vector((0, -3)) == (0, -1)
    with pytest.raises(InvalidParameters):
        lat.primitive_vector((0, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: lat.smith_normal_form(((Fraction(1, 2), 1),)),
        lambda: lat.kernel_basis(((Fraction(1, 2), 1),), 2),
        lambda: lat.SublatticeBasis(2, ((Fraction(3, 2), 1),)),
        lambda: lat.SublatticeBasis(2, ((True, 1),)),
        lambda: lat.content((Fraction(1, 2), 1)),
        lambda: lat.primitive_vector((Fraction(3, 2), 3)),
        lambda: lat.primitive_vector((2.0, 4)),
    ],
    ids=[
        "smith_normal_form", "kernel_basis", "SublatticeBasis", "SublatticeBasis-bool",
        "content", "primitive_vector", "primitive_vector-float",
    ],
)
def test_non_integer_entries_are_rejected(call):
    """A cast to ``int`` would truncate silently: ``kernel_basis`` would
    give ``((1, 0),)`` for the row ``(1/2, 1)``, whose kernel is spanned by
    ``(2, −1)``."""
    with pytest.raises(InvalidParameters):
        call()


def test_as_int_vector():
    assert lat.as_int_vector((Fraction(4, 2), 3)) == (2, 3)
    with pytest.raises(InvalidParameters):
        lat.as_int_vector((Fraction(1, 2),))


# --- determinants, rank, inverses -------------------------------------------


def test_det_known_values():
    assert lat.det([[2, 4], [1, 3]]) == 2
    assert lat.det([[0, 1], [1, 0]]) == -1
    assert lat.det([[1, 2], [2, 4]]) == 0
    assert lat.det([]) == 1
    with pytest.raises(InvalidParameters):
        lat.det([[1, 2]])
    with pytest.raises(InvalidParameters):
        lat.det([[Fraction(1, 2)]])  # integer entries only


@given(int_matrix(3, 3))
def test_det_matches_laplace_expansion(M):
    assert lat.det(M) == laplace_det(M)


def test_matrix_rank():
    assert lat.matrix_rank([[1, 2], [2, 4]]) == 1
    assert lat.matrix_rank([[1, 0], [0, 1]]) == 2
    assert lat.matrix_rank([[0, 0]]) == 0
    assert lat.matrix_rank([]) == 0
    with pytest.raises(InvalidParameters):
        lat.matrix_rank([[1, Fraction(2)]])  # integer entries only


@pytest.mark.skipif(find_spec("sympy") is None, reason="sympy is not installed")
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
            min_size=1,
            max_size=6,
        )
    )
)
@settings(deadline=None)
def test_matrix_rank_matches_sympy(M):
    """Fraction-free elimination against an independent rank (test-only)."""
    import sympy

    assert lat.matrix_rank(M) == sympy.Matrix(M).rank()


@given(int_matrix(3, 3))
def test_inverse_multiplies_to_identity(M):
    assume(laplace_det(M) != 0)
    B, D = lat.int_inverse(M)
    assert abs(D) == abs(laplace_det(M))
    prod = [
        [sum(M[i][k] * B[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    assert prod == [[D * (i == j) for j in range(3)] for i in range(3)]


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(InvalidParameters):
        lat.int_inverse([[1, 2], [2, 4]])


@given(int_matrix(3, 3), st.lists(small_ints, min_size=3, max_size=3))
def test_solve_satisfies_the_system(M, b):
    assume(laplace_det(M) != 0)
    x, D = lat.solve(M, b)
    assert abs(D) == abs(laplace_det(M))
    assert [lat.dot(row, x) for row in M] == [D * y for y in b]


@given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), max_size=6))
def test_pivot_inverse_chooses_greedily_and_inverts_the_choice(M):
    """On the transpose, a row of ``M`` is a pivot exactly when it raises
    the rank of the rows taken before it (oracle: ``matrix_rank``); ``B``
    inverts the pivot block up to ``D``, and ``|D|`` is the block's
    ``|det|`` when it is square."""
    expected: list[int] = []
    for i, row in enumerate(M):
        if lat.matrix_rank([M[j] for j in expected] + [row]) > len(expected):
            expected.append(i)
    T = [list(col) for col in zip(*M)]
    pivots, B, D = lat.pivot_inverse(T)
    assert pivots == expected
    block = [[row[c] for c in pivots] for row in T]
    r = len(pivots)
    assert [
        [sum(B[i][k] * block[k][j] for k in range(len(T))) for j in range(r)]
        for i in range(r)
    ] == [[D * (i == j) for j in range(r)] for i in range(r)]
    if r == len(T):
        assert abs(D) == abs(laplace_det(block))


def test_kernel_lattice_is_eliminated_once(monkeypatch):
    """A sublattice basis is validated and solved by one elimination: the
    kernel lattice of a functional, asked for coordinates twice, runs
    the Bareiss kernel once."""
    calls = []
    bareiss = lat._bareiss

    def counted(a, full=False):
        calls.append(full)
        return bareiss(a, full)

    monkeypatch.setattr(lat, "_bareiss", counted)
    K = lat.kernel_sublattice((3, 5, 7), 3)
    for coords in ((1, 0), (2, -3)):
        assert K.to_coords(K.from_coords(coords)) == coords
    assert len(calls) == 1


# --- Smith normal form ------------------------------------------------------


def _mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def _saturated(rows):
    """Oracle: a lattice basis is saturated iff every Smith invariant
    factor is 1."""
    D, _, _ = lat.smith_normal_form(rows)
    return all(D[i][i] == 1 for i in range(len(rows)))


def test_smith_normal_form_known_values():
    D, U, V = lat.smith_normal_form([[2, 4], [1, 3]])
    assert D == ((1, 0), (0, 2))
    D, U, V = lat.smith_normal_form([[2, 0], [0, 3]])
    assert D == ((1, 0), (0, 6))


@given(int_matrix(3, 3))
def test_smith_normal_form_properties(M):
    D, U, V = lat.smith_normal_form(M)
    assert abs(lat.det(U)) == 1
    assert abs(lat.det(V)) == 1
    assert _mat_mul(_mat_mul(U, M), V) == D
    diag = [D[i][i] for i in range(3)]
    for i in range(3):
        for j in range(3):
            if i != j:
                assert D[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)


@pytest.mark.skipif(find_spec("sympy") is None, reason="sympy is not installed")
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=1,
            max_size=4,
        )
    )
)
@settings(deadline=None)
def test_smith_normal_form_matches_sympy(M):
    """``U·M·V == D`` with ``U``, ``V`` unimodular, and the invariant factors
    equal sympy's (an independent implementation; test-only)."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    D, U, V = lat.smith_normal_form(M)
    assert _mat_mul(_mat_mul(U, M), V) == D
    assert abs(lat.det(U)) == 1 and abs(lat.det(V)) == 1
    diag = tuple(D[i][i] for i in range(min(len(M), len(M[0]))))
    assert diag == tuple(abs(x) for x in invariant_factors(Matrix(M), domain=ZZ))


# --- kernels and saturation ---------------------------------------------------


def in_lattice(basis, point):
    """Membership of ``point`` in ``basis``, through its coordinates."""
    try:
        basis.to_coords(point)
    except InvalidParameters:
        return False
    return True


def test_kernel_basis_of_single_functional():
    rows = lat.kernel_basis(((2, 3),), 2)
    assert len(rows) == 1
    assert lat.dot(rows[0], (2, 3)) == 0
    basis = lat.SublatticeBasis(2, rows)
    assert in_lattice(basis, (3, -2))
    assert _saturated(rows)


def test_kernel_basis_edge_cases():
    assert lat.kernel_basis((), 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(lat.kernel_basis(((0, 0),), 2)) == 2
    assert lat.kernel_basis(((1, 0), (0, 1)), 2) == ()


@given(st.lists(small_ints, min_size=3, max_size=3))
def test_kernel_is_saturated_and_complete(w):
    assume(any(w))
    rows = lat.kernel_basis((tuple(w),), 3)
    assert len(rows) == 2
    basis = lat.SublatticeBasis(3, rows)
    assert _saturated(rows)
    # every small integer solution is an integer combination of the basis
    for x0 in range(-2, 3):
        for x1 in range(-2, 3):
            for x2 in range(-2, 3):
                x = (x0, x1, x2)
                if lat.dot(w, x) == 0:
                    assert in_lattice(basis, x)


def test_saturate():
    sat = lat.SublatticeBasis(2, lat.saturate(((2, 0), (0, 2)), 2))
    assert sat.rank == 2
    assert in_lattice(sat, (1, 0))
    sat1 = lat.SublatticeBasis(2, lat.saturate(((2, 4),), 2))
    assert sat1.rank == 1
    assert in_lattice(sat1, (1, 2))
    assert lat.saturate((), 2) == ()


# --- SublatticeBasis ----------------------------------------------------------


def test_sublattice_coordinates_roundtrip():
    basis = lat.SublatticeBasis(3, ((1, 0, 2), (0, 1, -1)))
    point = basis.from_coords((3, -2))
    assert point == (3, -2, 8)
    assert basis.to_coords(point) == (3, -2)
    with pytest.raises(InvalidParameters):
        basis.to_coords((0, 0, 1))
    with pytest.raises(InvalidParameters):
        # in the span, but half a basis row
        lat.SublatticeBasis(2, ((2, 0),)).to_coords((1, 0))
    assert not in_lattice(basis, (0, 0, 1))
    assert in_lattice(basis, (1, 1, 1))


def test_sublattice_rejects_dependent_rows():
    with pytest.raises(InvalidParameters):
        lat.SublatticeBasis(2, ((1, 2), (2, 4)))
    with pytest.raises(DimensionMismatch):
        lat.SublatticeBasis(2, ((1, 2, 3),))


@given(int_matrix(2, 3), st.lists(small_ints, min_size=2, max_size=2))
def test_sublattice_roundtrip_property(rows, coords):
    assume(lat.matrix_rank(rows) == 2)
    basis = lat.SublatticeBasis(3, tuple(tuple(r) for r in rows))
    point = basis.from_coords(tuple(coords))
    assert basis.to_coords(point) == tuple(coords)
    assert in_lattice(basis, point)


def test_kernel_sublattice():
    basis = lat.kernel_sublattice((2, 3), 2)
    assert basis.rank == 1
    assert tuple(map(abs, basis.rows[0])) == (3, 2)
    assert lat.kernel_sublattice((0, 0), 2).rank == 2


# --- base points ---------------------------------------------------------------


def test_base_point_attains_the_unit_value():
    # the numerators of (2/3, 1), (1/2, 1/3) and (3/5, 4/7, 1) over their index
    for w in [(2, 3), (3, 2), (21, 20, 35)]:
        e = lat.base_point(w)
        assert all(isinstance(c, int) for c in e)
        assert lat.dot(w, e) == 1


def test_base_point_requires_unit_generator():
    with pytest.raises(ValueGroupMismatch):
        lat.base_point((2, 6))  # (2/3, 2) over 3: values (2/3)·ℤ
    with pytest.raises(ValueGroupMismatch):
        lat.base_point((2, 4))
    with pytest.raises(ZeroFunctional):
        lat.base_point((0, 0))


@given(st.lists(small_ints, min_size=1, max_size=4))
@settings(deadline=None)
def test_base_point_property(w):
    """The values of ``w`` on ℤ^d are ``gcd(w)·ℤ``: ``w/g`` attains 1, and
    ``w`` itself attains 1 only when ``g = 1``."""
    assume(any(w))
    g = gcd(*w)
    assert lat.dot(w, lat.base_point([x // g for x in w])) == g
    if g == 1:
        assert lat.dot(w, lat.base_point(w)) == 1
    else:
        with pytest.raises(ValueGroupMismatch):
            lat.base_point(w)


# --- quotient lattices --------------------------------------------------------


def _apply(proj, point):
    return tuple(lat.dot(row, point) for row in proj)


def _is_section(proj, lift):
    """``proj·lift = I``: the lift is a section of the projection."""
    k = len(proj)
    return len(lift) == k and all(
        lat.dot(proj[i], lift[j]) == (i == j) for i in range(k) for j in range(k)
    )


def test_quotient_by_rank_one_sublattice():
    proj, lift = lat.quotient_lattice(((2, 1),), 2)
    assert len(proj) == 1 and _is_section(proj, lift)
    assert _apply(proj, (2, 1)) == (0,)
    for x0 in range(-3, 4):
        for x1 in range(-3, 4):
            killed = _apply(proj, (x0, x1)) == (0,)
            assert killed == ((x0, x1) in {(2 * t, t) for t in range(-3, 4)})


def test_quotient_saturates_its_rows():
    """The span of ``(2, 0)`` has the quotient of ``(1, 0)``: no torsion."""
    proj, lift = lat.quotient_lattice(((2, 0),), 2)
    assert (proj, lift) == lat.quotient_lattice(((1, 0),), 2)
    assert _apply(proj, (1, 0)) == (0,) and _is_section(proj, lift)


def test_quotient_edge_ranks():
    proj, lift = lat.quotient_lattice((), 2)
    assert _is_section(proj, lift) and len(proj) == 2
    assert _apply(proj, (3, 4)) == (3, 4)
    assert lat.quotient_lattice(((1, 0), (0, 1)), 2) == ((), ())
    with pytest.raises(DimensionMismatch):
        lat.quotient_lattice(((1, 0, 0),), 2)


@given(st.lists(small_ints, min_size=3, max_size=3))
def test_quotient_section_property(w):
    assume(any(w))
    rows = lat.kernel_basis((tuple(w),), 3)
    proj, lift = lat.quotient_lattice(rows, 3)
    assert len(proj) == 1 and _is_section(proj, lift)
    for row in rows:
        assert _apply(proj, row) == (0,)


# --- functions the benchmark tracer wraps -------------------------------------


def test_every_traced_function_exists():
    """``bench/tracer.py`` wraps ``toricmld.<layer>.<name>`` for each entry of
    its ``TRACED``; a renamed or deleted one would break ``--trace 1``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = spec_from_file_location("bench_tracer", path)
    tracer = module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.TRACED.items():
        module = import_module(f"toricmld.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"toricmld.{layer}.{name}"
