"""Independent oracles, and the instances they are run on, shared by the
test modules."""

from fractions import Fraction

from toricmld.geometry import convex_hull, enumerate_points, normalized_volume, scale_about
from toricmld.lattice import det, dot, vec_sub
from toricmld.pairs import ToricLogPair, standard_coefficients


def sail_mld(r, s, b=(0, 0)):
    """Oracle: the least psi over the interior vertices v_1..v_k of the sail
    of cone((0,1),(r,-s)) (Fulton 1993, section 2.6), psi taking 1 - b[0]
    on (0,1) and 1 - b[1] on (r,-s): ((1+s)/r, 1) for the zero boundary.
    With v_0 = (0,1), v_1 = (1,0) and the Hirzebruch-Jung expansion
    r/s = [b_1, ..., b_k], v_{i+1} = b_i v_i - v_{i-1} and v_{k+1} = (r,-s).
    Every interior lattice point lies in conv(v_1..v_k) + cone, because
    adjacent sail vertices form a lattice basis.  A run of t entries 2
    takes t equal steps along a line, on which psi is linear, so only its
    ends are compared and the expansion is read run by run: the oracle
    takes O(log r) steps.  For r = 1 (s = 0) the expansion is empty and the
    cone is the quadrant, whose least interior lattice point is (1, 1)."""
    psi = (Fraction(1 - b[1] + s * (1 - b[0]), r), 1 - Fraction(b[0]))
    if r == 1:
        return dot(psi, (1, 1))
    runs, a, c = [], r, s
    while c:
        e = -(-a // c)
        t = c // (a - c) if e == 2 else 1  # (a, c) -> (c, 2c - a) keeps a - c
        runs.append((e, t))
        a, c = (a - t * (a - c), c - t * (a - c)) if e == 2 else (c, e * c - a)
    last, t = runs.pop()
    runs.append((last, t - 1))
    prev, v = (0, 1), (1, 0)
    best = dot(psi, v)
    for e, t in runs:
        if t and e == 2:
            step = (v[0] - prev[0], v[1] - prev[1])
            prev = (v[0] + (t - 1) * step[0], v[1] + (t - 1) * step[1])
            v = (v[0] + t * step[0], v[1] + t * step[1])
        elif t:
            prev, v = v, (e * v[0] - prev[0], e * v[1] - prev[1])
        best = min(best, dot(psi, v))
    assert (last * v[0] - prev[0], last * v[1] - prev[1]) == (r, -s)
    return best


def sylvester_germ(d):
    """The smooth germ on e_1 … e_d with levels s_1, …, s_(d−1), s_d − 1,
    where s = 2, 3, 7, 43, … (s_(k+1) = s_k² − s_k + 1), and ``s_d``."""
    s = [2]
    while len(s) < d:
        s.append(s[-1] ** 2 - s[-1] + 1)
    levels = s[:-1] + [s[-1] - 1]
    rays = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    return ToricLogPair(d, rays, standard_coefficients([Fraction(l - 1, l) for l in levels])), s[-1]


def measured_body(trace):
    """The certificate body hulled from the rows the trace prints, and the
    lattice points of its interior, walked."""
    body = convex_hull(trace.certificate.rows, trace.certificate.den)
    return body, enumerate_points(body, strict=True)


def measured_trace(trace):
    """Oracle: the certificate's numbers and verdicts by the measured route,
    from the rows a trace of a simplicial cone prints.  The body is hulled
    from its rows, its volume pulled and its interior walked; its rows at
    height j are {j}×K, whose hull is pulled too; the difference body of the
    dilated section is hulled from the pairwise differences and pulled; and
    γ is the least barycentric coordinate of the centre in the dilated
    section (Cramer's rule on the integer rows)."""
    j, z = trace.threshold, trace.center
    body, interior = measured_body(trace)
    D, centre = body.dim, (j,) + tuple(z)
    mirror = tuple(2 * body.den * c for c in centre)
    rows = set(body.rows)
    core = convex_hull([v[1:] for v in body.vertices if v[0] == j])
    apexes = {v for v in body.vertices if v[0] != j}
    dilated = scale_about(trace.section, j, (0,) * (D - 1))
    assert len(dilated.rows) == D, "the dilated section is not a simplex"
    diff = convex_hull([vec_sub(v, w) for v in dilated.rows for w in dilated.rows], dilated.den)
    M = [(1,) + r for r in dilated.rows]
    zr = (1,) + tuple(dilated.den * x for x in z)
    total = det(M)
    volume, vol_core = normalized_volume(body), normalized_volume(core)
    return {
        "certificate-volume": volume,
        "core-volume": vol_core,
        "difference-volume": normalized_volume(diff),
        "gamma": min(Fraction(det(M[:i] + [zr] + M[i + 1 :]), total) for i in range(D)),
        "interior": interior,
        "symmetric": all(tuple(m - x for m, x in zip(mirror, r)) in rows for r in rows),
        "bipyramid": body.rows == tuple(trace.certificate.rows)
        and apexes == {(0,) * D, tuple(2 * c for c in centre)}
        and volume == 2 * j * vol_core / D,
    }
