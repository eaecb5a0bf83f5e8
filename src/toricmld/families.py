"""Deterministic instance suites and the sweep driver.

Generators: the 2D cyclic-quotient classification ``cone((0,1),(r,-s))``,
seeded random simplicial cones in any dimension d ≥ 2, standard-coefficient
grids, and seeded random lattice polytopes (with optional non-standard
sublattices) for the volume-lemma suites.  :func:`sweep` runs every
instance of a :class:`FamilySpec` through the invariant computation, the
certificate pipeline where it applies, and the index-bound verdict, and
collects the observed constants.  Identical specs (including seeds)
produce byte-identical reports; randomness is a pure function of
``(spec, instance index)``, never of iteration order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Iterator, Sequence

from .errors import (
    DimensionTooSmall,
    ExhaustedResampling,
    InvalidParameters,
    NotFullDimensional,
    NotKlt,
    ToricMldError,
)
from .geometry import RatPolytope, convex_hull
from .lattice import SublatticeBasis, content
from .pairs import (
    BoundVerdict,
    LogCanonicalReport,
    ToricLogPair,
    bound_check,
    compute_mld,
    standard_coefficients,
    validate_pair,
)
from .proof import ProofTrace, fmt_rat, fmt_row, prove

__all__ = [
    "FamilySpec",
    "SweepRow",
    "SweepReport",
    "cyclic_quotient_cone",
    "coefficient_grid",
    "random_simplicial_cone",
    "sweep",
    "lemma_vo_suite",
    "lemma_lv_suite",
    "minkowski_suite",
]

CSV_COLUMNS = ("key", "d", "rays", "coeffs", "n", "a", "q", "j", "gamma", "n_over_qd", "pass")

_KINDS = frozenset({"cyclic2d", "random_cone", "explicit_list"})

_RESAMPLE_BUDGET = 1000


@dataclass(frozen=True)
class FamilySpec:
    """Description of an instance suite.

    ``kind`` selects the generator; the remaining fields parametrize it.
    ``pairs`` carries the instances of an ``explicit_list`` directly.  A
    seed is mandatory for the random kinds and ignored by the exhaustive
    ones.
    """

    kind: str
    max_r: int = 0
    dims: tuple[int, ...] = ()
    max_entry: int = 5
    L: int = 1
    include_one: bool = False
    count: int = 0
    seed: int | None = None
    pairs: tuple[ToricLogPair, ...] = ()


@dataclass(frozen=True)
class SweepRow:
    """One instance's outcomes.  ``error`` holds the raising error class
    name when a stage failed; such rows keep whatever stages succeeded."""

    key: str
    pair: ToricLogPair
    report: LogCanonicalReport | None
    trace: ProofTrace | None
    bound: BoundVerdict | None
    error: str = ""

    @property
    def passed(self) -> bool | None:
        """True/False for evaluated rows, None when a stage errored."""
        if self.error:
            return None
        if self.trace is not None:
            return self.trace.all_passed  # the bound included
        return self.bound.passed


@dataclass(frozen=True)
class SweepReport:
    """All rows of a sweep plus the aggregate empirical constants."""

    rows: tuple[SweepRow, ...]
    max_ratio: Fraction | None
    min_gamma: Fraction | None
    counterexamples: tuple[str, ...]

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(",".join(_csv_fields(row)) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "columns": list(CSV_COLUMNS),
            "rows": [dict(zip(CSV_COLUMNS, _csv_fields(row))) for row in self.rows],
            "aggregates": {
                "max_n_over_qd": fmt_rat(self.max_ratio),
                "min_gamma": fmt_rat(self.min_gamma),
                "counterexamples": list(self.counterexamples),
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_fields(row: SweepRow) -> tuple[str, ...]:
    rep, trace = row.report, row.trace
    if row.error:
        verdict = f"error:{row.error}"
    else:
        verdict = "1" if row.passed else "0"
    return (
        row.key,
        str(row.pair.dim),
        ";".join(map(fmt_row, row.pair.rays)),
        ";".join(fmt_rat(c.value) for c in row.pair.coefficients),
        str(rep.index) if rep else "",
        fmt_rat(rep.mld) if rep else "",
        str(rep.mld_denominator) if rep else "",
        str(trace.threshold) if trace else "",
        fmt_rat(trace.gamma) if trace else "",
        fmt_rat(Fraction(rep.index, rep.mld_denominator**rep.dim)) if rep else "",
        verdict,
    )


def _need_int(**values) -> None:
    """Reject each value that is not an ``int``, a ``bool`` included: a
    float would end in a builtin ``TypeError`` or ``ValueError`` inside a
    generator, and ``True`` would pass as 1."""
    for name, v in values.items():
        if type(v) is not int:
            raise InvalidParameters(f"{name} must be an integer, got {v!r}")


def cyclic_quotient_cone(
    r: int, s: int, coefficients: Sequence = (0, 0)
) -> ToricLogPair:
    """The 2D germ 1/r(1,s) as ``cone((0,1),(r,-s))``, boundary 0 unless
    ``coefficients`` says otherwise.  Requires ``0 <= s < r`` coprime
    (``s = 0`` only for the smooth ``r = 1``)."""
    _need_int(r=r, s=s)
    if r < 1 or not 0 <= s < r:
        raise InvalidParameters(f"need 0 <= s < r with r >= 1, got r={r} s={s}")
    if gcd(r, s) != 1:
        raise InvalidParameters(f"r={r} and s={s} are not coprime")
    pair = ToricLogPair(2, ((0, 1), (r, -s)), standard_coefficients(coefficients))
    return validate_pair(pair)


def coefficient_grid(
    k: int, L: int, include_one: bool = False
) -> tuple[tuple[Fraction, ...], ...]:
    """All k-tuples over {0, 1/2, ..., (L-1)/L} (plus 1 when asked), in
    lexicographic order."""
    _need_int(k=k, L=L)
    if k < 1 or L < 1:
        raise InvalidParameters("need k >= 1 and L >= 1")
    values = [Fraction(l - 1, l) for l in range(1, L + 1)]
    if include_one:
        values.append(Fraction(1))
    return tuple(product(values, repeat=k))


def random_simplicial_cone(d: int, max_entry: int, seed) -> ToricLogPair:
    """A valid pair on ``d`` primitive rays with entries drawn uniformly
    from [-max_entry, max_entry], boundary 0.  Rejection-resamples draws
    that fail validation; deterministic for a given seed."""
    _need_int(d=d, max_entry=max_entry)
    if d < 2:
        raise InvalidParameters("dimension must be at least 2")
    if max_entry < 1:
        raise InvalidParameters("max_entry must be positive")
    rng = random.Random(seed)
    for _ in range(_RESAMPLE_BUDGET):
        rays = []
        for _ in range(d):
            v = tuple(rng.randint(-max_entry, max_entry) for _ in range(d))
            c = content(v)
            if c:
                rays.append(tuple(x // c for x in v))
        if len(set(rays)) != d:
            continue
        pair = ToricLogPair(d, tuple(rays), standard_coefficients([0] * d))
        try:
            return validate_pair(pair)
        except ToricMldError:
            continue
    raise ExhaustedResampling(
        f"no valid cone in {_RESAMPLE_BUDGET} draws (d={d}, max_entry={max_entry})"
    )


def _random_pair(d: int, max_entry: int, values: Sequence, key: str) -> ToricLogPair:
    """The random simplicial cone drawn under ``key`` with each coefficient
    drawn from ``values`` under ``key:b``."""
    pair = random_simplicial_cone(d, max_entry, key)
    rng = random.Random(f"{key}:b")
    coeffs = [rng.choice(values) for _ in range(d)]
    return replace(pair, coefficients=standard_coefficients(coeffs))


def _check_spec(spec: FamilySpec) -> None:
    if spec.kind not in _KINDS:
        raise InvalidParameters(f"unknown family kind {spec.kind!r}")
    if spec.kind == "random_cone" and spec.seed is None:
        raise InvalidParameters(f"kind {spec.kind!r} needs a seed")
    if spec.kind == "explicit_list":
        for pair in spec.pairs:
            if not isinstance(pair, ToricLogPair):
                raise InvalidParameters(
                    f"explicit_list entry {pair!r} is not a ToricLogPair"
                )
    if spec.kind == "cyclic2d":
        _need_int(max_r=spec.max_r, L=spec.L)
        if spec.max_r < 1:
            raise InvalidParameters("max_r must be positive")
        if spec.L < 1:
            raise InvalidParameters("L must be positive")
    if spec.kind == "random_cone":
        _need_int(count=spec.count, max_entry=spec.max_entry, L=spec.L)
        for d in spec.dims:
            _need_int(dimension=d)
        if spec.count < 1:
            raise InvalidParameters("count must be positive")
        if spec.max_entry < 1:
            raise InvalidParameters("max_entry must be positive")
        if spec.L < 1:
            raise InvalidParameters("L must be positive")
        if not spec.dims:
            raise InvalidParameters("random_cone needs at least one dimension")
        if min(spec.dims) < 2:
            raise InvalidParameters("dimensions must be at least 2")
        if len(set(spec.dims)) != len(spec.dims):
            raise InvalidParameters("a dimension is listed twice")


def _instances(spec: FamilySpec) -> Iterator[tuple[str, ToricLogPair]]:
    if spec.kind == "explicit_list":
        for i, pair in enumerate(spec.pairs):
            yield f"x{i}", pair
    elif spec.kind == "cyclic2d":
        grid = coefficient_grid(2, spec.L, spec.include_one)
        for r in range(1, spec.max_r + 1):
            for s in range(r):
                if gcd(r, s) != 1:
                    continue
                base = cyclic_quotient_cone(r, s)
                for ci, coeffs in enumerate(grid):
                    yield f"r{r}s{s}c{ci}", replace(
                        base, coefficients=standard_coefficients(coeffs)
                    )
    else:  # random_cone
        values = [v for (v,) in coefficient_grid(1, spec.L, spec.include_one)]
        for d in spec.dims:
            for i in range(spec.count):
                yield f"d{d}i{i}", _random_pair(d, spec.max_entry, values, f"{spec.seed}:{d}:{i}")


def _run_instance(key: str, pair: ToricLogPair) -> SweepRow:
    report = None
    try:
        validate_pair(pair)
        report = compute_mld(pair)
        try:
            trace = prove(pair, strict=False, report=report)
        except (NotKlt, DimensionTooSmall):
            return SweepRow(key, pair, report, None, bound_check(report))
        return SweepRow(key, pair, report, trace, trace.bound)
    except ToricMldError as err:
        return SweepRow(key, pair, report, None, None, type(err).__name__)


def sweep(spec: FamilySpec) -> SweepReport:
    """Evaluate every instance of the family.

    Each row gets the invariant report, the trace of :func:`prove` when
    it accepts the pair (klt, d >= 2, coefficients below 1), and the index
    bound verdict, from :func:`bound_check` when it declines.  A row that
    raises records the error class, keeps its report once there is one,
    and never aborts the sweep.  Aggregates: the largest observed n/q^d,
    the smallest certificate gamma, and the keys of all failed rows.
    """
    _check_spec(spec)
    rows = tuple(_run_instance(key, pair) for key, pair in _instances(spec))
    ratios = [
        Fraction(r.report.index, r.report.mld_denominator**r.report.dim)
        for r in rows
        if r.report is not None
    ]
    gammas = [r.trace.gamma for r in rows if r.trace is not None]
    counterexamples = tuple(r.key for r in rows if r.passed is False)
    return SweepReport(
        rows=rows,
        max_ratio=max(ratios) if ratios else None,
        min_gamma=min(gammas) if gammas else None,
        counterexamples=counterexamples,
    )


# --- corpora for the volume-lemma suites -------------------------------------


def _random_lattice_polytope(rng: random.Random, d: int, spread: int) -> RatPolytope:
    """Full-dimensional hull of a few points of [-spread, spread]^d."""
    while True:
        pts = [
            tuple(rng.randint(-spread, spread) for _ in range(d))
            for _ in range(d + 1 + rng.randrange(3))
        ]
        try:
            return convex_hull(pts)
        except NotFullDimensional:
            pass  # the points do not affinely span: draw again


def lemma_lv_suite(dim: int, count: int, seed) -> tuple[RatPolytope, ...]:
    """Seeded random full-dimensional lattice polytopes for the
    difference-body floor check."""
    _need_int(dim=dim, count=count)
    if dim < 1 or count < 1:
        raise InvalidParameters("need dim >= 1 and count >= 1")
    out = []
    for i in range(count):
        rng = random.Random(f"{seed}:lv:{dim}:{i}")
        out.append(_random_lattice_polytope(rng, dim, 4))
    return tuple(out)


def lemma_vo_suite(
    dim: int, count: int, seed
) -> tuple[tuple[int, RatPolytope, SublatticeBasis | None], ...]:
    """Seeded random (height, base, sublattice) triples for the pyramid
    volume rule.  Every third triple measures against a non-standard
    full-rank sublattice; the base's vertices are drawn from it."""
    _need_int(dim=dim, count=count)
    if dim < 1 or count < 1:
        raise InvalidParameters("need dim >= 1 and count >= 1")
    out = []
    for i in range(count):
        rng = random.Random(f"{seed}:vo:{dim}:{i}")
        height = rng.randint(1, 6)
        sub = None
        while i % 3 == 2 and sub is None:
            rows = [
                tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(dim)
            ]
            try:
                sub = SublatticeBasis(dim, tuple(rows))
            except InvalidParameters:
                pass  # dependent rows: draw again
        base = _random_lattice_polytope(rng, dim, 3)
        if sub is not None:
            base = convex_hull([sub.from_coords(v) for v in base.vertices])
        out.append((height, base, sub))
    return tuple(out)


def minkowski_suite(dim: int, count: int, seed) -> tuple[ToricLogPair, ...]:
    """Seeded klt pairs (coefficients below 1) whose certificate bodies
    exercise the symmetry / unique-interior-point verification."""
    _need_int(dim=dim, count=count)
    if dim < 2 or count < 1:
        raise InvalidParameters("need dim >= 2 and count >= 1")
    values = [v for (v,) in coefficient_grid(1, 3)]
    return tuple(_random_pair(dim, 4, values, f"{seed}:mk:{dim}:{i}") for i in range(count))
