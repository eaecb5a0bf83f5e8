"""Certificate pipeline bounding the Gorenstein index by the denominator
of the minimal log discrepancy.

For a klt pair whose coefficients are all below 1 the discrepancy functional
is positive on the cone away from the origin, so the cross-section at value
1/n is a bounded polytope living in the corank-one kernel lattice.  Dilating
that cross-section to the first interior lattice point, shrinking around it
until it is the only (1/q)-lattice point inside, and coning over a centrally
symmetric core yields a symmetric body whose only interior lattice point is
its center.  Minkowski's first theorem caps the volume of that body, and
unwinding the volume bookkeeping gives the exact bound
``n ≤ d!·q^d / γ^{d-1}`` with γ the inscription factor of the shrunk body.
Every step is verified by exact rational arithmetic; the verdicts are
collected in a :class:`ProofTrace`.

Pairs with a coefficient equal to 1 are rejected (:class:`NotKlt`) even when
their minimal log discrepancy is positive: the cross-section is unbounded in
the direction of a value-zero ray, so the construction does not apply.  In
dimension 1 the kernel has rank 0 (:class:`DimensionTooSmall`); the index
bound there is plain arithmetic, see
:func:`~toricmld.pairs.bound_check`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, gcd, lcm
from typing import Sequence

from .errors import (
    CheckFailed,
    DimensionTooSmall,
    InvalidParameters,
    NoInteriorPoint,
    NotKlt,
    NotLatticePolytope,
)
from .geometry import (
    RatPolytope,
    any_lattice_point,
    bipyramid,
    cone_over,
    convex_hull,
    difference_body,
    enumerate_points,
    max_gamma,
    minimize,
    normalized_volume,
    scale_about,
    translate,
)
from .lattice import (
    IntVector,
    RatVector,
    SublatticeBasis,
    as_int_vector,
    base_point,
    content,
    det,
    dot,
    kernel_sublattice,
    pivot_inverse,
    vec_scale,
    vec_sub,
)
from .pairs import (
    BoundVerdict,
    LogCanonicalReport,
    ToricLogPair,
    bound_check,
    compute_mld,
    cone_facets,
)

__all__ = [
    "CheckResult",
    "ProofTrace",
    "build_box",
    "verify_bullets",
    "shrink_to_unique",
    "minkowski_certificate",
    "chain_verify",
    "lemma_vo_check",
    "lemma_lv_check",
    "prove",
    "serialize_trace",
    "fmt_rat",
    "fmt_row",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification step."""

    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ProofTrace:
    """Everything the pipeline computed for one pair, checks included.

    Geometry lives in kernel coordinates: ``section`` is the cross-section
    of the cone at functional value ``1/index`` (one vertex per ray, in ray
    order in ``ray_vertices``), whose ``threshold``-fold dilate is shrunk
    by ``shrink_factor`` around ``center``, and ``certificate`` the
    symmetric body in ℤ×kernel whose normalized volume
    ``certificate_volume`` drives the bound.
    """

    pair: ToricLogPair
    report: LogCanonicalReport
    base: IntVector
    kernel: SublatticeBasis
    section: RatPolytope
    ray_vertices: tuple[RatVector, ...]
    vertex_levels: tuple[int, ...]
    threshold: int
    center: IntVector
    shrink_factor: Fraction
    gamma: Fraction
    certificate: RatPolytope
    certificate_volume: Fraction
    checks: tuple[CheckResult, ...]
    bound: BoundVerdict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks) and self.bound.passed


def build_box(
    pair: ToricLogPair, w: Sequence[int], n: int, base: Sequence[int], kernel: SublatticeBasis
) -> tuple[RatPolytope, tuple[RatVector, ...]]:
    """Cross-section of the cone at functional value 1/n, in the coordinates
    of ``kernel``, the kernel lattice of the functional ``psi = w/n``
    (:func:`~toricmld.lattice.kernel_sublattice` of ``w``).

    Requires every coefficient below 1 (so the functional is positive on
    every ray and the section is bounded) and dimension at least 2.  The
    vertices are the rays scaled to value 1/n and re-based at ``base``, an
    integer point of value 1/n: the vertex of a ray of level ``⟨w, ray⟩``
    is ``c/level`` for the integer kernel coordinates ``c`` of ``ray −
    level·base``, and the hull is taken on these over the lcm of the
    levels.  The vertices are returned in ray order alongside the polytope.
    The coordinates are exact, as :meth:`SublatticeBasis.to_coords` checks
    that they map back to ``ray − level·base``, and the hull's facets must
    be exactly the cone's facets read in kernel coordinates (otherwise
    :class:`CheckFailed` ``box-halfspaces``).
    """
    d = pair.dim
    if d < 2:
        raise DimensionTooSmall("the certificate construction needs dimension >= 2")
    if any(c.level is None for c in pair.coefficients):
        raise NotKlt("a coefficient equal to 1 makes the cross-section unbounded")
    if type(n) is not int or n < 1 or dot(w, base) != 1:
        raise InvalidParameters("base point must have functional value 1/index")
    if kernel.rank != d - 1:
        raise InvalidParameters("functional must vanish on a corank-one lattice")
    levels, coords = [], []
    for ray, coeff in zip(pair.rays, pair.coefficients):
        level = dot(w, ray)
        if level <= 0:
            raise NotKlt("functional must be positive on every ray")
        if level * coeff.level != n:
            raise InvalidParameters("functional does not match the coefficients")
        levels.append(level)
        coords.append(kernel.to_coords(vec_sub(ray, vec_scale(level, base))))
    den = lcm(*levels)
    box = convex_hull([vec_scale(den // m, c) for m, c in zip(levels, coords)], den)
    vertices = [tuple(Fraction(x, m) for x in c) for m, c in zip(levels, coords)]
    if set(box.vertices) != set(vertices):
        raise InvalidParameters("rays must be exactly the extreme rays of the cone")
    # each cone facet ⟨u, x⟩ ≤ 0 reads ⟨u·K, c⟩ ≤ −⟨u, base⟩ in kernel
    # coordinates; no facet has u·K = 0 (u vanishes on a ray, where w does
    # not), and such a u would never match
    sliced = set()
    for u in cone_facets(pair):
        v = tuple(dot(u, row) for row in kernel.rows)
        m, c = content(v) or 1, -dot(u, base) * box.den
        sliced.add((tuple(x // m for x in v), c // m if c % m == 0 else None))
    if set(box.int_facets) != sliced:
        raise CheckFailed("box-halfspaces", "the section's facets are not the cone's facets")
    return box, tuple(vertices)


def verify_bullets(
    box: RatPolytope, levels: Sequence[int], n: int, j: int, q: int, interior: Sequence[IntVector]
) -> tuple[CheckResult, ...]:
    """The three structural facts tying the cross-section to the invariants;
    ``interior`` lists the interior lattice points of ``j·box``.

    * ``dilation-threshold``: ``j`` is the first dilate of the box whose
      interior contains a lattice point (so ``j/n`` really is the minimum):
      ``interior`` is not empty, and the dilates ``1 … j−1`` hold none.
      Those are searched in one walk, in every dimension:
      the interior of the pyramid ``j·conv({0} ∪ {1} × box)`` has the
      interior of ``i·box`` as its section at height ``0 < i < j``, so it
      holds a lattice point exactly when one of those dilates does, and only
      then is the least height of such a point taken, which names the first.
      Its verdict also decides ``pyramid-interior-empty``, which
      :func:`prove` reads together with a containment of the shrunk body.
    * ``vertex-orders``: each vertex first becomes integral at the dilate
      given by its generator's level ``n·⟨psi, ray⟩`` — i.e. the lcm of its
      coordinate denominators equals that level.
    * ``vertex-denominators``: the ``n``-fold dilate has integer vertices
      and the ``j``-fold dilate has vertices in the (1/q)-lattice.
    """
    if len(levels) != len(box.rows):
        raise InvalidParameters("one level per vertex is required")
    early = None
    pyramid = cone_over(1, box)
    if any_lattice_point(pyramid, scale=j, strict=True):
        # the least height of an interior point of j·pyramid names the dilate
        height = (1,) + (0,) * box.dim
        early, _ = minimize(scale_about(pyramid, j, (0,) * pyramid.dim), height, strict=True)
    if early is not None:
        detail = f"interior lattice point at dilate {early} < {j}"
    elif interior:
        detail = f"first interior lattice point at dilate {j}"
    else:
        detail = f"no interior lattice point at dilate {j}"
    threshold = CheckResult("dilation-threshold", early is None and bool(interior), detail)
    den = box.den
    bad_orders = []
    for i, (r, m) in enumerate(zip(box.rows, levels)):
        order = den // gcd(den, *r)
        if order != m:
            bad_orders.append(f"vertex {_fmt_vec(box.vertices[i])} has order {order}, level {m}")
    orders = CheckResult(
        "vertex-orders",
        not bad_orders,
        "; ".join(bad_orders) if bad_orders else f"orders match levels {tuple(levels)}",
    )
    integral = all(n * x % den == 0 and q * j * x % den == 0 for r in box.rows for x in r)
    denominators = CheckResult(
        "vertex-denominators",
        integral,
        f"{n}·box integral, {j}·box in (1/{q})-lattice"
        if integral
        else "vertex denominators exceed the expected dilates",
    )
    return threshold, orders, denominators


def shrink_to_unique(
    S: RatPolytope, q: int, interior: Sequence[IntVector]
) -> tuple[Fraction, RatPolytope, IntVector]:
    """Contract ``S`` toward its lexicographically least interior lattice
    point ``z`` until ``z`` is the only point of the (1/q)-lattice left in
    the interior; ``interior`` lists the interior lattice points of ``S``
    in lexicographic order, as :func:`enumerate_points` gives them.

    The factor is the gauge distance (in ``S − z`` units) from ``z`` to the
    nearest other (1/q)-point, capped at 1: the least gauge over the first
    contraction whose interior holds another (1/q)-point, in a doubling
    that starts at ``τ = min(1, 2·den/(q·max slack))``, slacks in row units.
    Every (1/q)-point ``p ≠ z`` has ``⟨u, q·p − q·z⟩ ≥ 1`` for some facet
    normal ``u``, so its gauge is at least ``den/(q·max slack)`` and the
    contraction by ``τ/2`` holds none; the first non-empty contraction, at
    a factor at most twice the answer, holds every point of least gauge.
    Returns ``(factor, shrunk, z)``; :func:`prove` walks ``shrunk`` to check
    that ``z`` is its only (1/q)-point (``shrink-uniqueness``).
    """
    if type(q) is not int or q < 1:
        raise InvalidParameters("denominator scale must be a positive integer")
    if not interior:
        raise NoInteriorPoint("body has no interior lattice point")
    z = interior[0]
    slacks = []  # per facet (u, c): (u, ⟨u, z⟩, slack) in row units
    for u, c in S.int_facets:
        uz = dot(u, z)
        slacks.append((u, uz, c - S.den * uz))  # positive: z is interior

    def gauge(w: IntVector) -> Fraction:
        # ⟨u, w/q − z⟩ over the slack c/den − ⟨u, z⟩
        return max(
            Fraction(S.den * (dot(u, w) - q * uz), q * s) for u, uz, s in slacks
        )

    qz = tuple(q * x for x in z)
    tau = min(Fraction(1), Fraction(2 * S.den, q * max(s for _, _, s in slacks)))
    while True:
        region = scale_about(S, tau, z)
        others = [p for p in enumerate_points(region, scale=q, strict=True) if p != qz]
        if others:
            t = min(gauge(p) for p in others)
            break
        if tau >= 1:
            t = Fraction(1)
            break
        tau = min(Fraction(1), 2 * tau)
    shrunk = scale_about(S, t, z) if t < 1 else S
    return t, shrunk, tuple(z)


def minkowski_certificate(
    z: Sequence[int],
    j: int,
    gamma: Fraction,
    shrink: Fraction,
    diff: RatPolytope,
    vol_diff: Fraction,
) -> tuple[RatPolytope, RatPolytope, Fraction, tuple[CheckResult, ...]]:
    """Build the symmetric certificate body and verify its properties.

    ``diff`` is the difference body ``S − S`` of the dilated section, of
    measured volume ``vol_diff``.  The shrunk body is ``z + shrink·(S −
    z)``, so its difference body is ``shrink·diff``, and the core ``K = z +
    gamma·shrink·diff``, one image of ``diff``, is centrally symmetric and
    inscribed in the shrunk body; the certificate is the bipyramid over
    ``{j}×K`` with apexes at the origin and at ``2·(j, z)``.  Returns ``(K,
    certificate, its normalized volume, checks)``.  Checks: vertexwise
    central symmetry, the center is the only interior lattice point, volume
    at most ``2^D`` (Minkowski's theorem, ``D`` the certificate dimension)
    and twice the half-cone's, ``j·(gamma·shrink)^{D-1}·vol_diff/D`` by the
    pyramid rule.
    """
    if type(j) is not int or j < 1:
        raise InvalidParameters("dilation threshold must be a positive integer")
    if not isinstance(gamma, Fraction) or not 0 < gamma <= Fraction(1, 2):
        raise InvalidParameters("inscription factor must be a Fraction in (0, 1/2]")
    if not isinstance(shrink, Fraction) or not 0 < shrink <= 1:
        raise InvalidParameters("shrink factor must be a Fraction in (0, 1]")
    if not isinstance(vol_diff, Fraction):
        raise InvalidParameters(f"volume must be a Fraction, got {vol_diff!r}")
    k = diff.dim
    z = as_int_vector(z)
    factor = gamma * shrink
    core = translate(scale_about(diff, factor, (0,) * k), z)
    center = (j,) + z
    body = bipyramid(j, core, z)
    D = k + 1
    # the mirror of a row r is 2·den·center − r
    mirror = tuple(2 * body.den * c for c in center)
    rset = set(body.rows)
    asym = [r for r in rset if tuple(m - x for m, x in zip(mirror, r)) not in rset]
    checks = [
        CheckResult(
            "certificate-symmetry",
            not asym,
            f"vertex {_fmt_vec(Fraction(x, body.den) for x in asym[0])} has no mirror"
            if asym
            else f"center {_fmt_vec(center)}",
        )
    ]
    interior = enumerate_points(body, strict=True)
    checks.append(
        CheckResult(
            "certificate-unique-interior",
            interior == (center,),
            "interior lattice points " + _fmt_vecs(interior),
        )
    )
    vol = normalized_volume(body)
    checks.append(
        CheckResult("certificate-volume", vol <= 2**D, f"volume {vol} vs 2^{D} = {2 ** D}")
    )
    half = j * factor**k * vol_diff / D  # the cone over {j}×K, not built
    detail = f"body {vol} vs twice the half-cone {2 * half}"
    checks.append(CheckResult("certificate-bipyramid", vol == 2 * half, detail))
    return core, body, vol, tuple(checks)


def _contains_rows(P: RatPolytope, Q: RatPolytope) -> bool:
    """Whether ``Q ⊆ P``: every integer row of ``Q`` meets every facet of ``P``."""
    return all(P.den * dot(u, r) <= c * Q.den for u, c in P.int_facets for r in Q.rows)


def chain_verify(
    n: int,
    j: int,
    q: int,
    gamma: Fraction,
    core: RatPolytope,
    diff_dilated: RatPolytope,
    shrink: Fraction,
    vol_dilated: Fraction,
) -> tuple[CheckResult, ...]:
    """Exact inequality chain from the certificate volume to the index bound.

    ``diff_dilated`` is the difference body of the dilated cross-section,
    of measured volume ``vol_dilated``; the shrunk body's is
    ``shrink·diff_dilated``.  The homothety law derives that volume and the
    core's from the one map ``chain-cross-section`` checks on the rows,
    ``core`` a translate of ``γ·shrink·diff_dilated``.  With ``D = core.dim
    + 1`` the certificate dimension:

    1. ``2·j·vol(core)/D ≤ 2^D``            (Minkowski cap, pyramid volumes)
    2. ``vol(core) = γ^{D-1}·vol(shrunk − shrunk)``
    3. ``vol(dilated − dilated) ≥ 2^{D-1}/((D-1)!·q^{D-1})``
    4. ``j ≤ D!·q^{D-1}/γ^{D-1}``
    5. ``n ≤ j·q ≤ D!·q^D/γ^{D-1}``
    """
    if not all(isinstance(x, Fraction) for x in (gamma, shrink, vol_dilated)):
        raise InvalidParameters("gamma, the shrink factor and the volume must be Fractions")
    k = core.dim
    D = k + 1
    vol_shrunk = shrink**k * vol_dilated
    vol_core = gamma**k * vol_shrunk
    cap = Fraction(2 * j, D) * vol_core
    c1 = CheckResult(
        "chain-minkowski", cap <= 2**D, f"2·{j}·{vol_core}/{D} = {cap} vs {2 ** D}"
    )
    mapped = len(_offsets(diff_dilated, core, gamma * shrink)) == 1
    detail = f"{vol_core} vs {gamma}^{k}·{vol_shrunk}"
    c2 = CheckResult("chain-cross-section", mapped, detail + ("" if mapped else ", rows unmapped"))
    floor = Fraction(2**k, factorial(k) * q**k)
    c3 = CheckResult(
        "chain-difference", vol_dilated >= floor, f"{vol_dilated} vs floor {floor}"
    )
    jcap = Fraction(factorial(D) * q**k) / gamma**k
    c4 = CheckResult("chain-dilation", j <= jcap, f"{j} vs {jcap}")
    ncap = Fraction(factorial(D) * q**D) / gamma**k
    c5 = CheckResult(
        "chain-index",
        n <= j * q and j * q <= ncap,
        f"{n} <= {j}·{q} = {j * q} vs {ncap}",
    )
    return c1, c2, c3, c4, c5


def _offsets(P: RatPolytope, Q: RatPolytope, a: Fraction) -> set[IntVector]:
    """The rows of ``Q`` less ``a`` times those of ``P``, over ``P.den·Q.den·
    a.denominator``, paired in the lex order that a positive homothety and a
    translation keep: one vector exactly when ``Q`` is a translate of ``a·P``."""
    if len(P.rows) != len(Q.rows) or P.dim != Q.dim:
        return set()
    f, g = P.den * a.denominator, Q.den * a.numerator
    return {tuple(f * y - g * x for x, y in zip(p, r)) for p, r in zip(P.rows, Q.rows)}


def lemma_vo_check(
    height: int, base: RatPolytope, sub: SublatticeBasis | None = None
) -> CheckResult:
    """Pyramid volume rule: coning a k-dimensional body placed at integer
    height h over the origin multiplies the normalized volume by h/(k+1).

    With ``sub`` the base volume is measured in a finite-index sublattice L
    and the cone in ℤ×L: both volumes are divided by the index ``|det
    sub|``, which is also the index of ℤ×L.
    """
    if type(height) is not int or height < 1:
        raise InvalidParameters("height must be a positive integer")
    k, index = base.dim, 1
    if sub is not None:
        if sub.ambient_dim != k or sub.rank != k:
            raise InvalidParameters("normalizing sublattice must have finite index in ℤ^dim")
        index = abs(det(sub.rows))
    lhs = normalized_volume(cone_over(height, base)) / index
    rhs = Fraction(height, k + 1) * normalized_volume(base) / index
    return CheckResult("pyramid-volume", lhs == rhs, f"{lhs} vs {rhs}")


def lemma_lv_check(Q: RatPolytope) -> CheckResult:
    """Difference-body floor for lattice polytopes: vol(Q − Q) ≥ 2^k/k!.

    Constructive check: differences of affinely independent vertices span a
    crosspolytope inside Q − Q of volume 2^k·|det|/k! with |det| ≥ 1.
    """
    k = Q.dim
    if Q.den != 1:
        v = next(v for v in Q.vertices if any(x.denominator != 1 for x in v))
        raise NotLatticePolytope(f"vertex {_fmt_vec(v)} is not a lattice point")
    diffs = [vec_sub(w, Q.rows[0]) for w in Q.rows[1:]]
    chosen, _, D = pivot_inverse(tuple(zip(*diffs)))  # |D| = |det| of the chosen
    if len(chosen) < k:
        raise InvalidParameters("polytope vertices do not span the space")
    spanning = [diffs[i] for i in chosen]
    index = abs(D)
    cross = convex_hull([vec_scale(s, v) for v in spanning for s in (1, -1)])
    diff = difference_body(Q)
    inscribed = all(diff.contains(v) for v in cross.rows)
    vol_cross = normalized_volume(cross)
    vol_diff = normalized_volume(diff)
    floor = Fraction(2**k, factorial(k))
    ok = (
        index >= 1
        and inscribed
        and vol_cross == floor * index
        and vol_diff >= vol_cross
        and vol_diff >= floor
    )
    detail = f"vol {vol_diff} vs floor {floor} via crosspolytope {vol_cross}"
    if ok and len(Q.rows) == k + 1:
        # for a simplex, additionally account for the crosspolytope as the
        # exact union of its 2^k orthant simplices, each of volume >= 1/k!
        zero = (0,) * k
        total = Fraction(0)
        for signs in product((1, -1), repeat=k):
            piece = convex_hull(
                [zero] + [vec_scale(s, v) for s, v in zip(signs, spanning)]
            )
            piece_vol = normalized_volume(piece)
            if piece_vol * factorial(k) < 1:
                ok = False
                detail += f"; orthant piece volume {piece_vol} below 1/{factorial(k)}"
                break
            total += piece_vol
        else:
            if total != vol_cross:
                ok = False
                detail += f"; orthant pieces sum to {total} != {vol_cross}"
            else:
                detail += f"; {2**k} orthant pieces sum exactly"
    return CheckResult("difference-volume-floor", ok, detail)


def prove(
    pair: ToricLogPair,
    strict: bool = True,
    report: LogCanonicalReport | None = None,
) -> ProofTrace:
    """Run the full certificate pipeline for a klt pair of dimension ≥ 2
    whose coefficients are all below 1.

    Builds the cross-section, enumerates the interior lattice points of its
    threshold dilate once for the structural facts and the shrink, shrinks
    to a unique (1/q)-point, assembles the symmetric certificate and the
    inequality chain from the one measured difference body of the dilate,
    and evaluates the final index bound.  ``shrink-uniqueness`` (a walk of
    the shrunk body at scale q) and ``pyramid-interior-empty`` (the
    threshold verdict and the shrunk body's containment in the dilate) are
    made here, where their inputs meet.  With ``strict`` the first failed
    verification raises :class:`CheckFailed`; otherwise failures are
    collected in the returned trace, except for the checks the pipeline
    cannot continue past (the cross-section's consistency and threshold
    integrality), which raise :class:`CheckFailed` either way.  Raises
    :class:`NotKlt` (vanishing discrepancy functional or a coefficient
    equal to 1) or :class:`DimensionTooSmall` for pairs outside the
    construction's scope.  A caller that already holds the pair's
    :class:`LogCanonicalReport` may pass it to skip recomputing them.
    """
    if report is None:
        report = compute_mld(pair)
    if not report.klt:
        raise NotKlt("the certificate requires a klt pair")
    if pair.dim < 2:
        raise DimensionTooSmall("the certificate construction needs dimension >= 2")
    if any(c.level is None for c in pair.coefficients):
        raise NotKlt("a coefficient equal to 1 makes the cross-section unbounded")
    w, n, d = report.w, report.index, pair.dim
    base = base_point(w)
    kernel = kernel_sublattice(w, d)
    section, ray_vertices = build_box(pair, w, n, base, kernel)
    by_vertex = {v: n // c.level for v, c in zip(ray_vertices, pair.coefficients)}
    levels = tuple(by_vertex[v] for v in section.vertices)
    threshold = report.mld * n
    if threshold.denominator != 1:
        # the minimum is a value of the functional, hence a multiple of 1/n
        raise CheckFailed("threshold-integrality", f"n·mld = {threshold}")
    j = int(threshold)
    q = report.mld_denominator
    dilated = scale_about(section, j, (0,) * (d - 1))
    interior = enumerate_points(dilated, strict=True)
    checks = list(verify_bullets(section, levels, n, j, q, interior))
    t, shrunk, center = shrink_to_unique(dilated, q, interior)
    unique = enumerate_points(shrunk, scale=q, strict=True) == (tuple(q * x for x in center),)
    detail = f"factor {fmt_rat(t)} about {_fmt_vec(center)}"
    detail += "" if unique else f", not the only (1/{q})-point inside"
    checks.append(CheckResult("shrink-uniqueness", unique, detail))
    gamma = max_gamma(shrunk, center)
    checks.append(CheckResult("gamma-range", 0 < gamma <= Fraction(1, 2), f"gamma = {gamma}"))
    diff = difference_body(dilated)
    vol_diff = normalized_volume(diff)
    core, body, volume, mk_checks = minkowski_certificate(center, j, gamma, t, diff, vol_diff)
    checks.extend(mk_checks)
    # shrunk ⊆ dilated puts conv(0, {j}×shrunk) inside j·conv(0, {1}×box),
    # whose interior below height j the threshold walk found empty
    below, inside = checks[0].passed, _contains_rows(dilated, shrunk)
    detail = "dilation-threshold failed" if not below else (
        "no interior lattice points below the threshold" if inside else "shrunk body leaves dilated"
    )
    checks.append(CheckResult("pyramid-interior-empty", below and inside, detail))
    checks.extend(chain_verify(n, j, q, gamma, core, diff, t, vol_diff))
    bound = bound_check(report, gamma)
    trace = ProofTrace(
        pair=pair,
        report=report,
        base=base,
        kernel=kernel,
        section=section,
        ray_vertices=ray_vertices,
        vertex_levels=levels,
        threshold=j,
        center=center,
        shrink_factor=t,
        gamma=gamma,
        certificate=body,
        certificate_volume=volume,
        checks=tuple(checks),
        bound=bound,
    )
    if strict:
        for c in trace.checks:
            if not c.passed:
                raise CheckFailed(c.name, c.detail)
        if not bound.passed:
            raise CheckFailed(
                "index-bound", f"index {bound.index} exceeds {bound.limit}"
            )
    return trace


def fmt_rat(x) -> str:
    """Exact text of a rational: ``p/q``, or ``p`` for an integer; ``None``
    (a missing value) gives the empty string."""
    return "" if x is None else str(Fraction(x))


def fmt_row(v: Sequence) -> str:
    """Exact text of a vector: its entries, space-separated."""
    return " ".join(fmt_rat(x) for x in v)


def _fmt_vec(v: Sequence) -> str:
    return "(" + ",".join(fmt_rat(x) for x in v) + ")"


def _fmt_vecs(vs: Sequence[Sequence]) -> str:
    return ";".join(_fmt_vec(v) for v in vs)


def serialize_trace(trace: ProofTrace) -> str:
    """Deterministic text rendering of a trace (format tag ``trace-v1``)."""
    pair, report = trace.pair, trace.report
    lines = [
        "trace-v1",
        f"dim: {pair.dim}",
        "rays: " + _fmt_vecs(pair.rays),
        "coefficients: " + ";".join(fmt_rat(c.value) for c in pair.coefficients),
        "psi: " + _fmt_vec(report.psi),
        f"index: {report.index}",
        "mld: " + fmt_rat(report.mld),
        f"mld-denominator: {report.mld_denominator}",
        "witness: " + _fmt_vec(report.witness),
        "base-point: " + _fmt_vec(trace.base),
        "kernel: " + _fmt_vecs(trace.kernel.rows),
        "section-vertices: " + _fmt_vecs(trace.section.vertices),
        "ray-vertices: " + _fmt_vecs(trace.ray_vertices),
        "vertex-levels: " + ";".join(str(m) for m in trace.vertex_levels),
        f"threshold: {trace.threshold}",
        "center: " + _fmt_vec(trace.center),
        "shrink-factor: " + fmt_rat(trace.shrink_factor),
        "gamma: " + fmt_rat(trace.gamma),
        "certificate-vertices: " + _fmt_vecs(trace.certificate.vertices),
        "certificate-volume: " + fmt_rat(trace.certificate_volume),
    ]
    for c in trace.checks:
        status = "pass" if c.passed else "FAIL"
        lines.append(f"check {c.name}: {status}" + (f" ({c.detail})" if c.detail else ""))
    b = trace.bound
    lines.append(
        f"bound: {b.index} <= {fmt_rat(b.limit)} (constant {fmt_rat(b.constant)},"
        f" denominator {b.mld_denominator})"
    )
    lines.append("result: " + ("pass" if trace.all_passed else "FAIL"))
    return "\n".join(lines) + "\n"
