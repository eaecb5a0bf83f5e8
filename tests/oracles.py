"""Independent oracles shared by the test modules."""

from fractions import Fraction

from toricmld.lattice import dot


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
