"""Command-line front end.

Subcommands: ``compute`` (invariants of one instance), ``prove`` (full
certificate trace), ``sweep`` (family runs with CSV output), ``lemmas``
(randomized volume-lemma suites).  Exit codes are a stable contract:
0 success / all checks pass, 1 a mathematical check failed, 2 invalid
input or usage.  Every number printed is exact — integers or rationals
rendered as ``p/q`` — never floating point.

Instance documents are JSON objects::

    {"dim": 2,
     "rays": [[0, 1], [3, -1]],
     "coefficients": [{"type": "standard", "l": 1}, {"type": "one"}]}

where ``{"type": "standard", "l": L}`` is the coefficient (L-1)/L and
``{"type": "one"}`` is the coefficient 1.
"""

from __future__ import annotations

import argparse
import json
from typing import Sequence

from .errors import CheckFailed, InvalidParameters, NotLogQGorenstein, ToricMldError
from .families import FamilySpec, lemma_lv_suite, lemma_vo_suite, minkowski_suite, sweep
from .geometry import cone_over, convex_hull, normalized_volume
from .pairs import (
    BoundaryCoefficient,
    LogCanonicalReport,
    ToricLogPair,
    compute_mld,
    validate_pair,
)
from .proof import fmt_rat, fmt_row, lemma_lv_check, lemma_vo_check, prove, serialize_trace

__all__ = ["main", "load_instance"]


def load_instance(path: str) -> ToricLogPair:
    """Parse and validate an instance document.

    Raises :class:`InvalidParameters` with the offending field's path for
    structural problems; geometric problems raise the validator's usual
    error types.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise InvalidParameters(f"not UTF-8 text: {err}") from err
    try:
        doc = json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an integer too long to convert
        raise InvalidParameters(f"not valid JSON: {err}") from err
    except RecursionError as err:
        raise InvalidParameters("not valid JSON: nested too deeply") from err
    if not isinstance(doc, dict):
        raise InvalidParameters("document: must be a JSON object")
    for key in doc:
        if key not in ("dim", "rays", "coefficients"):
            raise InvalidParameters(f"{key}: unknown field")
    for key in ("dim", "rays", "coefficients"):
        if key not in doc:
            raise InvalidParameters(f"{key}: missing field")
    dim = doc["dim"]
    if type(dim) is not int or dim < 1:
        raise InvalidParameters("dim: must be a positive integer")
    rays = doc["rays"]
    if not isinstance(rays, list) or not rays:
        raise InvalidParameters("rays: must be a non-empty list")
    parsed_rays = []
    for i, ray in enumerate(rays):
        if not isinstance(ray, list) or len(ray) != dim:
            raise InvalidParameters(f"rays[{i}]: must be a list of {dim} integers")
        for j, x in enumerate(ray):
            if type(x) is not int:
                raise InvalidParameters(f"rays[{i}][{j}]: must be an integer")
        parsed_rays.append(tuple(ray))
    coeffs_doc = doc["coefficients"]
    if not isinstance(coeffs_doc, list):
        raise InvalidParameters("coefficients: must be a list")
    coeffs = []
    for i, c in enumerate(coeffs_doc):
        if not isinstance(c, dict) or "type" not in c:
            raise InvalidParameters(f"coefficients[{i}]: must be a tagged object")
        if c["type"] == "one":
            if set(c) != {"type"}:
                raise InvalidParameters(f"coefficients[{i}]: unexpected fields")
            coeffs.append(BoundaryCoefficient(None))
        elif c["type"] == "standard":
            if set(c) != {"type", "l"}:
                raise InvalidParameters(f"coefficients[{i}]: needs exactly 'type' and 'l'")
            l = c["l"]
            if type(l) is not int or l < 1:
                raise InvalidParameters(f"coefficients[{i}].l: must be a positive integer")
            coeffs.append(BoundaryCoefficient(l))
        else:
            raise InvalidParameters(
                f"coefficients[{i}].type: must be 'standard' or 'one'"
            )
    return validate_pair(ToricLogPair(dim, tuple(parsed_rays), tuple(coeffs)))


def _report_json(report: LogCanonicalReport) -> str:
    doc = {
        "dim": report.dim,
        "psi": [fmt_rat(x) for x in report.psi],
        "n": report.index,
        "a": fmt_rat(report.mld),
        "q": report.mld_denominator,
        "witness": list(report.witness),
        "klt": report.klt,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _report_text(report: LogCanonicalReport) -> str:
    return "\n".join(
        [
            f"dim: {report.dim}",
            "psi: " + fmt_row(report.psi),
            f"n: {report.index}",
            "a: " + fmt_rat(report.mld),
            f"q: {report.mld_denominator}",
            "witness: " + fmt_row(report.witness),
            f"klt: {'yes' if report.klt else 'no'}",
        ]
    )


def cmd_compute(args) -> int:
    report = compute_mld(load_instance(args.input))
    if args.format == "json":
        print(_report_json(report))
    else:
        print(_report_text(report))
    return 0


def cmd_prove(args) -> int:
    trace = prove(load_instance(args.input), strict=False)
    text = serialize_trace(trace)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"trace written to {args.trace}")
        for check in trace.checks:
            if not check.passed:
                print(f"failed: {check.name} ({check.detail})")
        if not trace.bound.passed:
            print(f"failed: index-bound (n = {trace.bound.index})")
        print("result: " + ("pass" if trace.all_passed else "FAIL"))
    else:
        print(text, end="")
    return 0 if trace.all_passed else 1


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidParameters(f"--dims: cannot parse {text!r}") from None


def cmd_sweep(args) -> int:
    if args.family == "cyclic2d":
        spec = FamilySpec(
            kind="cyclic2d",
            max_r=args.max_r,
            L=args.L,
            include_one=args.include_one,
        )
    else:
        spec = FamilySpec(
            kind="random_cone",
            dims=_parse_dims(args.dims),
            count=args.count,
            max_entry=args.max_entry,
            L=args.L,
            include_one=args.include_one,
            seed=args.seed,
        )
    report = sweep(spec)
    csv_text = report.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        print(csv_text, end="")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    errors = sum(1 for row in report.rows if row.error)
    print(f"rows: {len(report.rows)} (errors: {errors})")
    if report.max_ratio is not None:
        print("max n/q^d: " + fmt_rat(report.max_ratio))
    if report.min_gamma is not None:
        print("min gamma: " + fmt_rat(report.min_gamma))
    print(f"counterexamples: {len(report.counterexamples)}")
    for key in report.counterexamples:
        print(f"counterexample: {key}")
    return 0 if not report.counterexamples else 1


def _run_lemma_vo(dim: int, samples: int, seed: int) -> int:
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    pinned = lemma_vo_check(2, square)
    print(
        "pinned: unit square at height 2 -> pyramid volume "
        + fmt_rat(normalized_volume(cone_over(2, square)))
        + (" ok" if pinned.passed else " FAIL")
    )
    if not pinned.passed:
        return 1
    for height, base, sub in lemma_vo_suite(dim, samples, seed):
        check = lemma_vo_check(height, base, sub)
        if not check.passed:
            print(f"violation: height {height}, base vertices "
                  f"{[fmt_row(v) for v in base.vertices]}, {check.detail}")
            return 1
    print(f"vo: {samples} samples at dimension {dim} all exact")
    return 0


def _run_lemma_lv(dim: int, samples: int, seed: int) -> int:
    for name, points in (("segment", [(0,), (1,)]), ("triangle", [(0, 0), (1, 0), (0, 1)])):
        check = lemma_lv_check(convex_hull(points))
        print(f"pinned: unit {name} -> {check.detail}" + (" ok" if check.passed else " FAIL"))
        if not check.passed:
            return 1
    for Q in lemma_lv_suite(dim, samples, seed):
        check = lemma_lv_check(Q)
        if not check.passed:
            print(f"violation: vertices {[fmt_row(v) for v in Q.vertices]}, "
                  f"{check.detail}")
            return 1
    print(f"lv: {samples} samples at dimension {dim} all above the floor")
    return 0


def _run_lemma_minkowski(dim: int, samples: int, seed: int) -> int:
    quadrant = ToricLogPair(
        2, ((1, 0), (0, 1)), (BoundaryCoefficient(1), BoundaryCoefficient(1))
    )
    trace = prove(quadrant)
    volume = trace.certificate_volume
    print(f"pinned: smooth quadrant certificate volume {fmt_rat(volume)} = 4"
          + (" ok" if volume == 4 else " FAIL"))
    if volume != 4:
        return 1
    names = [c.name for c in trace.checks]
    ordered = (
        names.index("certificate-symmetry")
        < names.index("certificate-unique-interior")
        < names.index("certificate-volume")
    )
    if not ordered:
        print("violation: volume asserted before symmetry/uniqueness")
        return 1
    for pair in minkowski_suite(dim, samples, seed):
        try:
            trace = prove(pair, strict=True)
        except CheckFailed as err:
            print(f"violation: rays {pair.rays}, {err}")
            return 1
    print(f"minkowski: {samples} certificates at dimension {dim} all verified")
    return 0


def cmd_lemmas(args) -> int:
    if args.check == "vo":
        return _run_lemma_vo(args.dim, args.samples, args.seed)
    if args.check == "lv":
        return _run_lemma_lv(args.dim, args.samples, args.seed)
    return _run_lemma_minkowski(args.dim, args.samples, args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricmld",
        description="Exact invariants and index-bound certificates for toric log pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariants (n, a, q) of one instance")
    p.add_argument("input", help="path to an instance JSON document")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("prove", help="run the certificate pipeline")
    p.add_argument("input", help="path to an instance JSON document")
    p.add_argument("--trace", help="write the trace here instead of stdout")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("sweep", help="evaluate an instance family")
    p.add_argument("--family", choices=("cyclic2d", "random_cone"), required=True)
    p.add_argument("--max-r", dest="max_r", type=int, default=0)
    p.add_argument("--dims", default="3", help="comma-separated dimensions >= 2, e.g. 2,3")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-entry", dest="max_entry", type=int, default=5)
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--include-one", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.add_argument("--json-out", dest="json_out", help="also write a JSON report")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lemmas", help="randomized volume-lemma suites")
    p.add_argument("--check", choices=("vo", "lv", "minkowski"), required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lemmas)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (CheckFailed, NotLogQGorenstein) as err:
        print(f"error: {err}")
        return 1
    except (ToricMldError, OSError) as err:
        print(f"error: {err}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
