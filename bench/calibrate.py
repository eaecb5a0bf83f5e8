#!/usr/bin/env python3
"""Regenerate ``bench/reference.json``: the random4d pool's reference costs
and the golden output digests.

    python3 bench/calibrate.py random4d          # ~15 min: times every pool instance
    python3 bench/calibrate.py cyclic2d compute2d_large

Each part runs the rows exactly as ``run.py`` does, in one fresh process,
checks every output, and refuses to record a digest for a row that fails
a check.  The random4d reference costs only decide which pool instances
share a round (see ``workloads.random4d_plan``); rerun that part only to
re-stratify the pool, since it changes every seed's random4d inputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from run import import_program

BLOCK = {"cyclic2d": 50, "compute2d_large": 1}
# Timings per pool instance; the minimum is its reference cost.
POOL_REPEATS = 2


def _row(workloads, workload, key, pair):
    t0 = time.perf_counter()
    out = workloads.run_row(workload, pair)
    elapsed = time.perf_counter() - t0
    problems = workloads.check(workload, pair, out)
    if problems:
        raise SystemExit(f"{workload} {key}: " + "; ".join(problems))
    return elapsed, workloads.digest(workload, out)


def calibrate_pool(workloads) -> list[dict]:
    pool = []
    for i in range(workloads.R4_POOL):
        runs = [
            _row(workloads, "random4d", f"p{i}", workloads.random4d_pair(i))
            for _ in range(POOL_REPEATS)
        ]
        if len({d for _, d in runs}) != 1:
            raise SystemExit(f"random4d p{i}: output differs between repeats")
        pool.append({"ref_s": round(min(t for t, _ in runs), 3), "digest": runs[0][1]})
        print(f"p{i} " + " ".join(f"{t:.3f}" for t, _ in runs) + " s", flush=True)
    return pool


def calibrate_stream(workloads, workload: str) -> dict:
    block = BLOCK[workload]
    digests, chain = [], hashlib.sha256()
    rows = [row for rnd in workloads.make_rounds(workload, workloads.DEFAULT_SEED) for row in rnd]
    for pos, (key, pair) in enumerate(rows):
        chain.update(_row(workloads, workload, key, pair)[1].encode())
        if (pos + 1) % block == 0:
            digests.append(chain.hexdigest()[:16])
            chain = hashlib.sha256()
    print(f"{workload}: {len(rows)} rows, {len(digests)} digests", flush=True)
    return {"seed": workloads.DEFAULT_SEED, "block": block, "digests": digests}


def main(parts: list[str]) -> int:
    import_program()
    import workloads

    try:
        ref = workloads.load_reference()
    except FileNotFoundError:
        ref = {"random4d_pool": [], "golden": {}}
    for part in parts:
        if part == "random4d":
            ref["random4d_pool"] = calibrate_pool(workloads)
        elif part in BLOCK:
            ref["golden"][part] = calibrate_stream(workloads, part)
        else:
            raise SystemExit(f"unknown part {part!r}")
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["random4d", "cyclic2d", "compute2d_large"]))
