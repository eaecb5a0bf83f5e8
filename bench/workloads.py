"""Seeded inputs, the timed program call for one row, and the output checks.

A workload's inputs are a list of *rounds*, each a list of ``(key, pair)``
rows.  A timed run executes whole rounds until its time window is used up,
so a round is the unit that keeps a run's instance mix balanced:

* ``cyclic2d``: one row per round, drawn without replacement from the
  cyclic-quotient corpus (1/r(1,s), r <= 60, coefficient grid L = 5 plus
  b = 1; 39,672 rows).
* ``random4d``: one row from each of five cost strata of a fixed pool of
  seeded random 4D simplicial cones.  The strata and the choice within them
  use the pool's reference costs (``reference.json``), so that every seed
  gets a round of about the same total and median cost.
* ``compute2d_large``: one cyclic quotient from each of eight equal-width
  bands of r in [10^4, 10^5), since ``compute_mld`` costs about linearly
  in r.

Rows of a round are in ascending order of expected cost.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from toricmld import families, pairs, proof

WORKLOADS = ("cyclic2d", "random4d", "compute2d_large")
DEFAULT_SEED = 1
REFERENCE = Path(__file__).resolve().parent / "reference.json"

CYCLIC_MAX_R = 60
CYCLIC_L = 5
# Rows generated per run: twice what the calibrated code completes in a 20 s
# window.  A program more than twice as fast ends its run early, when the
# rows run out; rows_per_s stays exact.
CYCLIC_POOL = 10_000

R4_POOL = 60
R4_STRATA = 5
R4_MAX_ENTRY = 2
R4_L = 3
R4_DRAWS = 2000

C2_LO, C2_HI = 10_000, 100_000
C2_BANDS = 8
C2_ROUNDS = 12

# Rows in the fixed prefix a traced run executes.
TRACE_ROWS = {"cyclic2d": 1500, "random4d": R4_STRATA, "compute2d_large": C2_BANDS}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# --- inputs -------------------------------------------------------------------


def cyclic2d_corpus() -> tuple[list[tuple[int, int]], tuple]:
    cones = [
        (r, s) for r in range(1, CYCLIC_MAX_R + 1) for s in range(r) if gcd(r, s) == 1
    ]
    return cones, families.coefficient_grid(2, CYCLIC_L, include_one=True)


def cyclic2d_rounds(seed: int) -> list[list]:
    cones, grid = cyclic2d_corpus()
    picks = random.Random(f"cyclic2d:{seed}").sample(
        range(len(cones) * len(grid)), CYCLIC_POOL
    )
    rounds = []
    for k in picks:
        (r, s), ci = cones[k // len(grid)], k % len(grid)
        rounds.append([(f"r{r}s{s}c{ci}", families.cyclic_quotient_cone(r, s, grid[ci]))])
    return rounds


def random4d_pair(i: int) -> pairs.ToricLogPair:
    """Pool instance ``i``: drawn like the ``random_cone`` sweep family."""
    pair = families.random_simplicial_cone(4, R4_MAX_ENTRY, f"random4d:{i}")
    values = [v for (v,) in families.coefficient_grid(1, R4_L)]
    rng = random.Random(f"random4d:{i}:b")
    coeffs = [rng.choice(values) for _ in range(4)]
    return replace(pair, coefficients=pairs.standard_coefficients(coeffs))


def random4d_plan(seed: int, ref_s: list[float]) -> list[list[int]]:
    """Pool indices per round.  Each round takes one unused instance per
    cost stratum; of ``R4_DRAWS`` seeded draws, the one whose reference
    total and median are closest to the strata medians' is kept."""
    order = sorted(range(len(ref_s)), key=lambda i: (ref_s[i], i))
    size = len(order) // R4_STRATA
    free = [order[k * size : (k + 1) * size] for k in range(R4_STRATA)]
    mids = [ref_s[st[len(st) // 2]] for st in free]
    target_sum, target_mid = sum(mids), mids[R4_STRATA // 2]
    rng = random.Random(f"random4d:{seed}")

    def score(pick):
        costs = sorted(ref_s[i] for i in pick)
        return max(
            abs(sum(costs) - target_sum) / target_sum,
            abs(costs[R4_STRATA // 2] - target_mid) / target_mid,
        )

    plan = []
    for _ in range(size):
        best = min(
            (tuple(rng.choice(st) for st in free) for _ in range(R4_DRAWS)), key=score
        )
        for st, i in zip(free, best):
            st.remove(i)
        plan.append(sorted(best, key=lambda i: (ref_s[i], i)))
    return plan


def random4d_rounds(seed: int) -> list[list]:
    ref_s = [entry["ref_s"] for entry in load_reference()["random4d_pool"]]
    return [
        [(f"p{i}", random4d_pair(i)) for i in rnd] for rnd in random4d_plan(seed, ref_s)
    ]


def compute2d_rounds(seed: int) -> list[list]:
    rng = random.Random(f"compute2d_large:{seed}")
    width = (C2_HI - C2_LO) // C2_BANDS
    rounds = []
    for _ in range(C2_ROUNDS):
        rnd = []
        for k in range(C2_BANDS):
            r = rng.randrange(C2_LO + k * width, C2_LO + (k + 1) * width)
            s = rng.randrange(1, r)
            while gcd(r, s) != 1:
                s = rng.randrange(1, r)
            rnd.append((f"r{r}s{s}", families.cyclic_quotient_cone(r, s)))
        rounds.append(rnd)
    return rounds


def make_rounds(workload: str, seed: int) -> list[list]:
    return {
        "cyclic2d": cyclic2d_rounds,
        "random4d": random4d_rounds,
        "compute2d_large": compute2d_rounds,
    }[workload](seed)


# --- the timed call -----------------------------------------------------------


def run_row(workload: str, pair):
    """The program's work for one row.  Names are looked up on the modules
    at call time, so a tracer's rebinding applies."""
    if workload == "compute2d_large":
        return pairs.compute_mld(pair)
    return families.sweep(families.FamilySpec(kind="explicit_list", pairs=(pair,)))


# --- outputs ------------------------------------------------------------------


def _fmt(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def digest(workload: str, out) -> str:
    """Short hash of a row's deterministic output: ``(index, mld, witness)``
    for ``compute_mld``; the CSV text and the ``trace-v1`` text for a sweep."""
    if workload == "compute2d_large":
        text = f"{out.index}|{_fmt(out.mld)}|{out.witness}"
    else:
        trace = out.rows[0].trace
        text = out.to_csv() + (proof.serialize_trace(trace) if trace else "")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _solve(rows, b):
    """Exact solution of ``sum_i x_i rows[i] = b`` for independent rows."""
    n = len(b)
    m = [[Fraction(rows[i][j]) for i in range(n)] + [Fraction(b[j])] for j in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _strictly_interior(rays, point) -> bool:
    """Inside the open simplicial cone: every ray weight is positive."""
    return all(x > 0 for x in _solve(rays, point))


def _check_report(pair, rep) -> list[str]:
    """Checks that use only the pair and the report's own fields."""
    problems = []
    psi = rep.psi
    if any(_dot(psi, e) != 1 - c.value for e, c in zip(pair.rays, pair.coefficients)):
        problems.append("psi does not take 1 - b on the rays")
    if not any(psi):
        if rep.mld != 0 or rep.klt:
            problems.append("zero functional must give mld 0 and not klt")
        return problems
    if rep.index != lcm(*(Fraction(x).denominator for x in psi)):
        problems.append(f"index {rep.index} is not the lcm of psi's denominators")
    if rep.mld_denominator != rep.mld.denominator:
        problems.append("q is not the denominator of the mld")
    if not _strictly_interior(pair.rays, rep.witness):
        problems.append(f"witness {rep.witness} is not strictly interior")
    if _dot(psi, rep.witness) != rep.mld:
        problems.append("<psi, witness> differs from the mld")
    return problems


def _cyclic_mld(r: int, s: int) -> Fraction:
    """Minimum of psi = ((1+s)/r, 1) over the interior lattice points of
    cone((0,1),(r,-s)).  Subtracting the ray (r,-s) lowers psi by 1 and
    keeps a point with x > r interior, so the columns 1 <= x <= r suffice;
    in column x the lowest interior point has y = floor(-s x / r) + 1."""
    best = min(x * (1 + s) + r * ((-s * x) // r + 1) for x in range(1, r + 1))
    return Fraction(best, r)


def check(workload: str, pair, out) -> list[str]:
    """Independent checks of one row's output; an empty list means it passed."""
    if workload == "compute2d_large":
        problems = _check_report(pair, out)
        (_, _), (r, minus_s) = pair.rays
        if out.mld != _cyclic_mld(r, -minus_s):
            problems.append(f"mld {out.mld} differs from the column minimum")
        return problems
    row = out.rows[0]
    if row.error:
        return [f"row raised {row.error}"]
    rep, trace = row.report, row.trace
    problems = _check_report(pair, rep)
    if any(rep.psi):
        oracle_mld, _ = pairs.mld_oracle(pair)
        if oracle_mld != rep.mld:
            problems.append(f"mld {rep.mld} differs from mld_oracle {oracle_mld}")
    wants_trace = rep.klt and all(c.value < 1 for c in pair.coefficients)
    if wants_trace != (trace is not None):
        problems.append("certificate trace present/absent against expectation")
    if trace is not None and not trace.all_passed:
        problems.append("trace has a failed check")
    d, n, q = pair.dim, rep.index, rep.mld_denominator
    if d == 2:
        limit = 2 * Fraction(q) ** 2
    else:
        limit = Fraction(24 * q**4) / trace.gamma**3 if trace else None
    if row.bound is None or not row.bound.passed or (limit is not None and n > limit):
        problems.append("index bound verdict does not pass")
    if row.passed is not True:
        problems.append("row did not pass")
    return problems
