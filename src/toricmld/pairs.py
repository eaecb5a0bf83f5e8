"""Affine toric log pairs and their exact invariants.

A pair is a full-dimensional strongly convex rational cone, given by its
primitive extreme rays, together with one *standard* boundary coefficient
per ray: a value of the form ``(l−1)/l`` for an integer level ``l ≥ 1``, or
exactly ``1``.  From the rays and coefficients one solves for the rational
functional that takes ``1 − coefficient`` on each ray, kept as an integer
vector ``w`` over the Gorenstein index ``n``; its minimum over the interior
lattice points of the cone is the minimal log discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import (
    DimensionMismatch,
    InvalidParameters,
    LengthMismatch,
    MissingGamma,
    NoInteriorPoint,
    NonPrimitiveRay,
    NonStandardCoefficient,
    NotFullDimensional,
    NotKlt,
    NotLogQGorenstein,
    NotStronglyConvex,
    RedundantRay,
)
from .geometry import RatPolytope, _checked, convex_hull, enumerate_points, minimize
from .lattice import (
    IntMatrix,
    IntVector,
    RatVector,
    _int_rows,
    content,
    dot,
    pivot_inverse,
    quotient_lattice,
    vec_add,
    vec_scale,
)


@dataclass(frozen=True)
class BoundaryCoefficient:
    """A standard coefficient: ``(level−1)/level`` for ``level ≥ 1``, or the
    value 1 encoded as ``level=None``."""

    level: int | None

    def __post_init__(self):
        if self.level is None:
            return
        if type(self.level) is not int:
            raise InvalidParameters(f"coefficient level {self.level!r} is not an integer")
        if self.level < 1:
            raise NonStandardCoefficient(f"invalid coefficient level {self.level!r}")

    @property
    def value(self) -> Fraction:
        if self.level is None:
            return Fraction(1)
        return Fraction(self.level - 1, self.level)

    @classmethod
    def from_value(cls, b) -> "BoundaryCoefficient":
        """The coefficient of value ``b``, an ``int`` or a ``Fraction``;
        anything else, a ``bool`` or a ``float`` included, raises
        :class:`InvalidParameters`.  Decided on ``b = p/q`` in lowest
        terms: the value 1 when ``p == q``, level ``q`` when ``q − p == 1``
        (so ``p ≥ 0``, as ``q ≥ 1``), otherwise
        :class:`NonStandardCoefficient`."""
        if type(b) is int:
            p, q = b, 1
        elif isinstance(b, Fraction):
            p, q = b.numerator, b.denominator
        else:
            raise InvalidParameters(f"coefficient {b!r} is not an int or a Fraction")
        if p == q:
            return cls(None)
        if q - p != 1:
            shown = p if q == 1 else f"{p}/{q}"
            raise NonStandardCoefficient(f"{shown} is not of the form (l-1)/l or 1")
        return cls(q)


def standard_coefficients(values: Sequence) -> tuple[BoundaryCoefficient, ...]:
    return tuple(BoundaryCoefficient.from_value(v) for v in values)


@dataclass(frozen=True)
class ToricLogPair:
    """A cone (by primitive extreme rays) with one coefficient per ray.

    Construction does not validate the geometry; call :func:`validate_pair`
    on anything that was not produced by this package.
    """

    dim: int
    rays: IntMatrix
    coefficients: tuple[BoundaryCoefficient, ...]

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(map(tuple, _int_rows(self.rays))))
        object.__setattr__(self, "coefficients", tuple(self.coefficients))


def _check_lengths(pair: ToricLogPair) -> None:
    if len(pair.rays) != len(pair.coefficients):
        raise LengthMismatch(
            f"{len(pair.rays)} rays but {len(pair.coefficients)} coefficients"
        )


def validate_pair(pair: ToricLogPair) -> ToricLogPair:
    """Check the pair data and return it unchanged.

    Raises (in this order of precedence): :class:`DimensionMismatch` for
    ray-shape problems, :class:`LengthMismatch` for a ray/coefficient count
    difference, :class:`NonPrimitiveRay`, :class:`NotFullDimensional`,
    :class:`NotStronglyConvex`, and :class:`RedundantRay` for duplicated or
    non-extreme rays (a duplicate is reported before a line in the cone).
    A dimension that is not an ``int`` (a ``bool`` included) raises
    :class:`InvalidParameters`.

    The geometry is read from the cone's cached :class:`_ConeRecord`, and
    extremality from its masks by :func:`_extreme`.
    """
    d = pair.dim
    if type(d) is not int:
        raise InvalidParameters(f"ambient dimension {d!r} is not an integer")
    if d < 1:
        raise InvalidParameters("ambient dimension must be at least 1")
    for e in pair.rays:
        if len(e) != d:
            raise DimensionMismatch(f"ray {e} does not have length {d}")
    _check_lengths(pair)
    for c in pair.coefficients:
        if not isinstance(c, BoundaryCoefficient):
            raise NonStandardCoefficient(f"coefficient {c!r} is not standard")
    for e in pair.rays:
        if content(e) != 1:
            raise NonPrimitiveRay(f"ray {e} is not primitive")
    cone = _spanning_record(pair)
    if len(set(pair.rays)) != len(pair.rays):
        raise RedundantRay("a ray is listed twice")
    if not cone.normals:
        raise NotStronglyConvex("the cone contains a line")
    for e, extreme in zip(pair.rays, _extreme(cone.masks)):
        if not extreme:
            raise RedundantRay(f"ray {e} is not an extreme ray of the cone")
    return pair


def _extreme(masks: Sequence[int]) -> list[bool]:
    """Per distinct primitive generator of a pointed cone, by its mask of
    tight facet normals: whether it is extreme, i.e. no other mask contains
    its own (those on its minimal face generate that face; Ziegler 1995)."""
    return [sum(n & m == m for n in masks) == 1 for m in masks]


@dataclass(frozen=True)
class _ConeRecord:
    """What the pairs layer knows of a cone from its one hull: whether its
    generators span the space, its outer facet normals (through the origin)
    and, per generator, the bitmask of the normals tight on it (bit ``k``
    for ``normals[k]``).  Normals and masks are empty when the generators
    do not span or the cone contains a line; :func:`_extreme` reads
    extremality from the masks.  :func:`validate_pair` builds the
    record after its primitivity check and reads it in this order of
    precedence: spanning, then repeated rays, then a line in the cone, then
    extremality."""

    generators: IntMatrix
    dim: int
    spans: bool
    normals: tuple[IntVector, ...]
    masks: tuple[int, ...]

    @cached_property
    def solver(self) -> tuple[list[int], IntMatrix, int]:
        """The indices of the first independent generators of a spanning
        cone and ``(B, D)`` with ``B·Gᵀ = D·I`` for the generators ``G`` at
        those indices: the cone's one elimination, taken on first use, as
        validation does not need it."""
        return pivot_inverse(tuple(zip(*self.generators)))


@lru_cache(maxsize=4096)
def _cone_record(generators: Sequence[Sequence[int]], dim: int) -> _ConeRecord:
    """The record of the cone spanned by the generators, from the hull of
    ``{0} ∪ generators``: the generators span the space exactly when that
    hull is full-dimensional (a cone that does not span is recorded so, not
    raised inside the cache), the cone is pointed exactly when the origin
    is a vertex of the hull, and its facets are then the hull's facets
    through the origin.  Cached: sweeps validate, solve and certify the
    same cone once per coefficient choice, and this is the only per-cone
    cache."""
    try:
        hull = convex_hull([(0,) * dim, *generators])
    except NotFullDimensional:
        return _ConeRecord(generators, dim, False, (), ())
    if (0,) * dim not in hull.rows:
        return _ConeRecord(generators, dim, True, (), ())
    normals = tuple(u for u, c in hull.int_facets if c == 0)
    masks = tuple(
        sum(1 << k for k, u in enumerate(normals) if dot(u, e) == 0)
        for e in generators
    )
    return _ConeRecord(generators, dim, True, normals, masks)


def _spanning_record(pair: ToricLogPair) -> _ConeRecord:
    """The pair's cone record; :class:`NotFullDimensional` unless its rays span."""
    cone = _cone_record(pair.rays, pair.dim)
    if not cone.spans:
        raise NotFullDimensional("rays do not span the ambient space")
    return cone


def cone_facets(pair: ToricLogPair) -> tuple[IntVector, ...]:
    """Facet normals ``u`` of the pair's cone, as ``⟨u, x⟩ ≤ 0`` inequalities."""
    cone = _spanning_record(pair)
    if not cone.normals:
        raise NotStronglyConvex("the cone contains a line")
    return cone.normals


def solve_psi(pair: ToricLogPair) -> tuple[IntVector, int]:
    """The rational functional taking ``1 − coefficient`` on every ray, as
    ``(w, n)``: the integer vector ``w`` over the least common denominator
    ``n ≥ 1`` of its entries (``n`` is the Gorenstein index; ``w = 0`` and
    ``n = 1`` for the zero functional).

    Solved fraction-free on the first independent rays, with the integer
    targets ``lcm(l)/l_i``, through the inverse kept in the cone record,
    and then verified on the rest; an inconsistent system raises
    :class:`NotLogQGorenstein`, and a coefficient count other than the ray
    count :class:`LengthMismatch`, as in :func:`validate_pair`.
    """
    _check_lengths(pair)
    cone = _spanning_record(pair)
    levels = [c.level for c in pair.coefficients]
    m = math.lcm(*(l for l in levels if l is not None))
    targets = [0 if l is None else m // l for l in levels]
    basis, B, D = cone.solver
    chosen = [targets[i] for i in basis]
    v = tuple(dot(chosen, col) for col in zip(*B))
    # psi = chosen·B/(D·m); divide out the common factor, sign included
    g = math.gcd(D * m, *v) * (1 if D > 0 else -1)
    w, n = tuple(x // g for x in v), D * m // g
    for e, t in zip(pair.rays, targets):
        if dot(w, e) * m != t * n:
            raise NotLogQGorenstein(
                "no rational functional matches all prescribed ray values"
            )
    return w, n


def quotient_pair(pair: ToricLogPair, w: IntVector) -> tuple[ToricLogPair, IntMatrix]:
    """The pair modulo the saturated span of the rays where ``w`` vanishes,
    and the lift of :func:`~toricmld.lattice.quotient_lattice` (``w·lift``
    is the functional there).  Each other ray maps to ``k·p`` with ``p``
    primitive, and ``p`` gets the level ``k·l`` of the ray's level ``l``:
    ψ forces it, ``ψ(p) = 1/(k·l)``, so one image per direction is kept.
    When there are more images than the quotient's dimension, those that
    are not extreme rays of the quotient cone, read from its cone record as
    in :func:`validate_pair`, are dropped."""
    to_q, lift = quotient_lattice([e for e in pair.rays if dot(w, e) == 0], pair.dim)
    levels: dict[IntVector, BoundaryCoefficient] = {}
    for e, c in zip(pair.rays, pair.coefficients):
        if dot(w, e):
            image = tuple(dot(r, e) for r in to_q)
            k = content(image)
            levels.setdefault(tuple(x // k for x in image), BoundaryCoefficient(k * c.level))
    rays = tuple(levels)
    if len(rays) > len(lift):
        extreme = _extreme(_cone_record(rays, len(lift)).masks)
        rays = tuple(p for p, x in zip(rays, extreme) if x)
    return ToricLogPair(len(lift), rays, [levels[p] for p in rays]), lift


@dataclass(frozen=True)
class LogCanonicalReport:
    """Invariants of a pair: the discrepancy functional ``psi = w/index``,
    Gorenstein index, minimal log discrepancy with an attaining interior
    lattice point, and the denominator of the minimum.  ``psi`` is a
    :class:`~fractions.Fraction` view of ``w`` over the index."""

    dim: int
    w: IntVector
    index: int
    mld: Fraction
    mld_denominator: int
    witness: IntVector
    klt: bool

    @cached_property
    def psi(self) -> RatVector:
        return tuple(Fraction(x, self.index) for x in self.w)


def _interior_sum(rays: Sequence[IntVector]) -> IntVector:
    return tuple(sum(col) for col in zip(*rays))


def _slab(rays: IntMatrix, w: IntVector, normals: Sequence[IntVector]) -> RatPolytope:
    """``conv(0, rays scaled to value level + 1)``, ``level`` the value of
    the sum of the rays under ``w``, positive on each of them: the cone cut
    by ``⟨w, x⟩ ≤ level + 1``, whose facet normals through 0 are
    ``normals``.  From 3D on its facets are those and the cut, and each
    spans a hyperplane: a cone facet with 0 and the rays on it, the cut
    with every ray.  Up to 2D, where that costs more than a hull, and when
    a ray is not extreme (:func:`_extreme`, so the pair was not validated),
    it is hulled."""
    level = dot(w, _interior_sum(rays))
    vals = [dot(w, p) for p in rays]
    den = math.lcm(*vals)
    points = [(0,) * len(w)] + [vec_scale((level + 1) * (den // v), p) for p, v in zip(rays, vals)]
    if len(w) <= 2:
        return convex_hull(points, den)
    masks = [sum(1 << k for k, u in enumerate(normals) if not dot(u, p)) for p in rays]
    if not all(_extreme(masks)):
        return convex_hull(points, den)
    order = sorted(range(len(points)), key=points.__getitem__)
    bit = [0] * len(points)
    for k, i in enumerate(order):
        bit[i] = 1 << k
    g = content(w)
    facets = [(u, 0) for u in normals] + [(tuple(x // g for x in w), (level + 1) * den // g)]
    tight = [
        bit[0] | sum(b for b, m in zip(bit[1:], masks) if m >> k & 1) for k in range(len(normals))
    ]
    tight.append(sum(bit[1:]))
    return _checked(len(w), den, [points[i] for i in order], facets, frozenset(tight))


def compute_mld(pair: ToricLogPair) -> LogCanonicalReport:
    """Minimal log discrepancy data of the pair.

    For the all-ones boundary the minimum is 0 (attained in the limit along
    the cone's interior; the reported witness is the sum of the rays) and
    the pair is not klt.  Otherwise the minimum is taken on the pair's own
    rays under ``w`` when no coefficient is 1, and else on the rays of its
    :func:`quotient_pair` under ``w·lift``, which is positive there; that
    minimizer is lifted back into the cone's interior by adding multiples
    of the sum of the coefficient-1 rays.

    The sum of the rays is an interior lattice point of some value
    ``level``.  The slab ``conv(0, rays scaled to value level + 1)`` has as
    its interior lattice points exactly the cone's interior lattice points
    of value at most ``level``, and :func:`~toricmld.geometry.minimize`
    finds the least value over them, the mld times ``n``, with the
    lex-least minimizer.  The slab's facets come from the cone record
    (:func:`_slab`): in the quotient, a facet through the zero face is
    ``u·lift`` for its normal ``u``, primitive as ``u`` is, and the facets
    of the quotient cone are exactly those.
    """
    w, n = solve_psi(pair)
    d = pair.dim
    if not any(w):
        return LogCanonicalReport(d, w, n, Fraction(0), 1, _interior_sum(pair.rays), False)
    zero_rays = [e for e in pair.rays if dot(w, e) == 0]
    # read by the slab from 3D on, and by the witness lift in any dimension
    normals = cone_facets(pair) if zero_rays or d > 2 else ()
    rays, wq, facets = pair.rays, w, normals
    if zero_rays:
        # the facets through the zero face, read in the quotient
        quotient, lift = quotient_pair(pair, w)
        rays, wq = quotient.rays, tuple(dot(w, row) for row in lift)
        facets = [
            tuple(dot(u, row) for row in lift)
            for u in normals
            if not any(dot(u, e) for e in zero_rays)
        ]
    value, witness = minimize(_slab(rays, wq, facets), wq, strict=True)
    mld = Fraction(value, n)
    if zero_rays:
        base = tuple(dot(witness, col) for col in zip(*lift))
        shift = _interior_sum(zero_rays)
        k = 0
        while True:
            witness = vec_add(base, vec_scale(k, shift))
            if all(dot(u, witness) < 0 for u in normals):
                break
            k = 1 if k == 0 else 2 * k
            if k > 1 << 62:  # pragma: no cover - the lift always stabilizes
                raise NoInteriorPoint("witness lift failed to enter the cone interior")
    return LogCanonicalReport(d, w, n, mld, mld.denominator, witness, True)


def mld_oracle(pair: ToricLogPair) -> tuple[Fraction, IntVector]:
    """Independent recomputation of the minimal log discrepancy.

    Any interior lattice point can be reduced, ray by ray, to one whose
    barycentric weight on each zero-value ray lies in (0, 1] and whose
    weight on each positive-value ray is at most level/value, without
    changing the functional's value.  The reduced points live in the
    Minkowski sum of the segments ``[0, (level/value)·ray]`` and
    ``[0, ray]``, so enumerating that zonotope finds the true minimum.
    """
    w, n = solve_psi(pair)
    if not any(w):
        raise NotKlt("the minimum is 0; the oracle needs a positive functional")
    if len(pair.rays) > 14:
        raise InvalidParameters("oracle zonotope would have too many segments")
    level = dot(w, _interior_sum(pair.rays))
    vals = [dot(w, e) for e in pair.rays]
    den = math.lcm(*(v for v in vals if v > 0))
    corners = [(0,) * pair.dim]
    for e, v in zip(pair.rays, vals):
        end = vec_scale(level * den // v if v > 0 else den, e)
        corners += [vec_add(c, end) for c in corners]
    zono = convex_hull(corners, den)
    normals = cone_facets(pair)
    best = None
    witness = None
    for p in enumerate_points(zono):
        if all(dot(u, p) < 0 for u in normals):
            val = dot(w, p)
            if best is None or val < best:
                best, witness = val, p
    if witness is None:
        raise NoInteriorPoint("no interior lattice point in the search region")
    return Fraction(best, n), witness


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of testing the index bound ``n ≤ c · q^d``."""

    index: int
    mld_denominator: int
    dim: int
    constant: Fraction
    limit: Fraction
    passed: bool


def bound_check(report: LogCanonicalReport, gamma: Fraction | None = None) -> BoundVerdict:
    """Check ``index ≤ c · q^dim`` with the dimension-appropriate constant.

    In dimensions 1 and 2 the constant is the sharp 1 resp. 2.  In higher
    dimensions the per-instance constant ``d!/γ^{d−1}`` needs the certified
    shrink factor γ of the instance (:class:`MissingGamma` otherwise), a
    ``Fraction``.
    """
    if gamma is not None and not isinstance(gamma, Fraction):
        raise InvalidParameters(f"gamma must be a Fraction, got {gamma!r}")
    d = report.dim
    if d == 1:
        c = Fraction(1)
    elif d == 2:
        c = Fraction(2)
    else:
        if gamma is None:
            raise MissingGamma(f"dimension {d} needs an explicit gamma")
        if not 0 < gamma <= Fraction(1, 2):
            raise InvalidParameters("gamma must lie in (0, 1/2]")
        c = Fraction(math.factorial(d)) / gamma ** (d - 1)
    limit = c * report.mld_denominator**d
    return BoundVerdict(
        report.index, report.mld_denominator, d, c, limit, report.index <= limit
    )
