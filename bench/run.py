#!/usr/bin/env python3
"""Benchmark of the toricmld package, built from the ``src/`` tree beside it.

    python3 bench/run.py --workload cyclic2d --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths resolve from this
file).  One process runs one workload: set-up (import plus seeded input
generation), then a closed loop with a single client that sends the next
row only after the previous one returned, until ``--seconds`` of program
time are used up and the current round is complete.  Every row's output is
checked outside its timed region.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print every metric by name and unit.  A result file
with the environment, inputs and all figures goes to ``bench/results/``.

``--trace 1`` runs the workload's fixed traced prefix (``--rows`` rows, by
default one round, or 1,500 rows of ``cyclic2d``) twice: untraced in a
fresh child process, then with spans around the public layer functions.
It prints the per-layer metrics and writes the spans next to the result
file.  ``--rows N`` with ``--trace 0`` runs exactly the first N rows
instead of a time window.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
MAX_FAILURE_MESSAGES = 20
# Units of the end-to-end figures a timed run prints; BENCHMARK.json gates
# the steady ones.
E2E_UNITS = {"setup_s": "s", "rows_per_s": "1/s", "row_ms_p50": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--workload", required=True, choices=("cyclic2d", "random4d", "compute2d_large")
    )
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, default=None, help="fixed row count, no window")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.rows is not None and args.rows < 1:
        ap.error("--rows must be positive")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_program():
    """Import toricmld from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "toricmld" / "__init__.py").is_file():
        raise SystemExit(f"error: no toricmld sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import toricmld

    if SRC not in Path(toricmld.__file__).resolve().parents:
        raise SystemExit(f"error: toricmld was imported from {toricmld.__file__}")


# --- environment ------------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_lines() -> dict[str, int]:
    counts = {
        f"{p.stem}.src_lines": len(p.read_text().splitlines())
        for p in sorted((SRC / "toricmld").glob("*.py"))
        if p.stem != "__init__"
    }
    counts["all.src_lines"] = sum(
        len(p.read_text().splitlines()) for p in (SRC / "toricmld").glob("*.py")
    )
    return counts


def environment() -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


# --- measurement ---------------------------------------------------------------------


class Golden:
    """Expected row digests: by pool key (random4d), or for the default seed
    by stream position, one digest per block of consecutive rows."""

    def __init__(self, workloads, workload: str, seed: int):
        ref = workloads.load_reference()
        self.by_key = {}
        self.blocks, self.block = [], 1
        if workload == "random4d":
            self.by_key = {f"p{i}": e["digest"] for i, e in enumerate(ref["random4d_pool"])}
        elif seed == workloads.DEFAULT_SEED:
            self.block = ref["golden"][workload]["block"]
            self.blocks = ref["golden"][workload]["digests"]
        self._chain = hashlib.sha256()

    def mismatches(self, pos: int, key: str, digest: str) -> list[int]:
        """Stream positions this row shows to be wrong (usually none)."""
        if key in self.by_key:
            return [] if self.by_key[key] == digest else [pos]
        if not self.blocks:
            return []
        self._chain.update(digest.encode())
        if (pos + 1) % self.block:
            return []
        b = (pos + 1) // self.block - 1
        got = self._chain.hexdigest()[:16]
        self._chain = hashlib.sha256()
        if b < len(self.blocks) and got != self.blocks[b]:
            return list(range(pos + 1 - self.block, pos + 1))
        return []


def execute(workloads, workload, rounds, golden, window_ns=None, limit=None, tracer=None):
    """Run rows in order; stop after ``limit`` rows, or at the first round
    boundary once ``window_ns`` of program time is spent."""
    times, keys, failed, messages = [], [], set(), []
    output = hashlib.sha256()
    rounds_done = 0
    spent = 0
    for rnd in rounds:
        for key, pair in rnd:
            if limit is not None and len(times) >= limit:
                break
            pos = len(times)
            if tracer is not None:
                tracer.row, tracer.active = pos, True
            t0 = time.perf_counter_ns()
            try:
                out = workloads.run_row(workload, pair)
            except Exception as err:  # a failed row is recorded, not fatal
                out = err
            dt = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.active = False
            times.append(dt)
            keys.append(key)
            spent += dt
            if isinstance(out, Exception):
                problems, d = [f"raised {type(out).__name__}: {out}"], "raised"
            else:
                try:
                    problems = workloads.check(workload, pair, out)
                    d = workloads.digest(workload, out)
                except Exception as err:  # a check that cannot run is a failure
                    problems, d = [f"check raised {type(err).__name__}: {err}"], "error"
            output.update(d.encode())
            bad = golden.mismatches(pos, key, d)
            if bad:
                problems.append("digest differs from the golden output")
                failed.update(bad)
            if problems:
                failed.add(pos)
                if len(messages) < MAX_FAILURE_MESSAGES:
                    messages.append(f"{key}: " + "; ".join(problems))
        else:
            rounds_done += 1
            if window_ns is not None and spent >= window_ns:
                break
            continue
        break
    return {
        "times_ns": times,
        "row_ms": [[k, t / 1e6] for k, t in zip(keys, times)],
        "failed": len(failed),
        "failures": messages,
        "rounds_done": rounds_done,
        "program_s": spent / 1e9,
        "output_digest": output.hexdigest()[:16],
    }


def tail(times_ns: list[int]):
    """The highest listed percentile with at least TAIL_BEYOND samples
    beyond it (nearest rank), or None."""
    n = len(times_ns)
    ordered = sorted(times_ns)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return {"percentile": p, "value_ms": ordered[rank - 1] / 1e6, "rows": n, "beyond": n - rank}
    return None


def run_child(args_list: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args_list],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = run_child(["--workload", workload, "--seed", str(seed), "--setup-only"])
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def result_path(args, suffix: str) -> Path:
    rows = f"-rows{args.rows}" if args.rows is not None else ""
    return RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}{rows}{suffix}"


def timed(args, workloads, rounds, golden, setup_s: float, record: dict) -> dict:
    window = None if args.rows is not None else args.seconds * 1e9
    run = execute(workloads, args.workload, rounds, golden, window_ns=window, limit=args.rows)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = [setup_s] if args.rows is not None else setup_samples(args.workload, args.seed, setup_s)
    times = run.pop("times_ns")
    n = len(times)
    record.update(run)
    record["rows"] = n
    record["setup_samples_s"] = samples
    record["tail"] = tail(times)
    record["failed_frac"] = run["failed"] / n
    return {
        "setup_s": statistics.median(samples),
        "rows_per_s": n / run["program_s"],
        "row_ms_p50": statistics.median(times) / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }


def traced(args, workloads, rounds, golden, record: dict) -> dict:
    from tracer import Tracer

    limit = args.rows or workloads.TRACE_ROWS[args.workload]
    run_child(
        ["--workload", args.workload, "--seed", str(args.seed), "--rows", str(limit)]
    )
    child = argparse.Namespace(**{**vars(args), "trace": 0, "rows": limit})
    untraced = json.loads(result_path(child, ".json").read_text())
    tr = Tracer()
    tr.install()
    try:
        run = execute(workloads, args.workload, rounds, golden, limit=limit, tracer=tr)
    finally:
        tr.uninstall()
    times = run.pop("times_ns")
    n = len(times)
    if run["output_digest"] != untraced["output_digest"]:
        run["failed"] = n
        run["failures"].insert(0, "traced output digest differs from the untraced run")
    record.update(run)
    record["rows"] = n
    record["untraced_program_s"] = untraced["program_s"]
    record["failed_frac"] = run["failed"] / n
    stats = tr.aggregate()
    traced_ns = tr.root_ns()
    metrics = {
        "trace.overhead_frac": run["program_s"] / untraced["program_s"] - 1,
        "trace.traced_s": traced_ns / 1e9,
    }
    for name, st in stats.items():
        metrics[f"{name}.calls"] = st["calls"]
        metrics[f"{name}.total_s"] = st["total_ns"] / 1e9
        metrics[f"{name}.self_s"] = st["self_ns"] / 1e9
    metrics["geometry.convex_hull.vertices_out"] = stats["geometry.convex_hull"]["out"]
    metrics["geometry.enumerate_points.points_out"] = stats["geometry.enumerate_points"]["out"]
    alp = stats["geometry.any_lattice_point"]
    metrics["geometry.any_lattice_point.hit_ratio"] = alp["out"] / alp["calls"] if alp["calls"] else 0.0
    record["self_share"] = {
        name: st["self_ns"] / traced_ns for name, st in sorted(
            stats.items(), key=lambda kv: -kv[1]["self_ns"]
        )
    }
    record["spans"] = len(tr.fn)
    tr.write(result_path(args, ".spans.csv.gz"))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import_program()
    import workloads

    rounds = workloads.make_rounds(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = Golden(workloads, args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "rows_limit": args.rows,
        "env": environment(),
        "inputs": {
            "rounds_generated": len(rounds),
            "rows_generated": sum(len(r) for r in rounds),
        },
    }
    lines = src_lines()
    if args.trace:
        metrics = traced(args, workloads, rounds, golden, record)
        metrics.update(lines)
        wanted = declared["per_layer"]
    else:
        metrics = timed(args, workloads, rounds, golden, setup_s, record)
        wanted = declared["end_to_end"]
    record["src_lines"] = lines
    record["metrics"] = metrics
    result_path(args, ".json").write_text(json.dumps(record, indent=1) + "\n")

    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rows {record['rows']}  rounds {record['rounds_done']}  "
          f"program time {record['program_s']:.3f} s")
    units = {name: m["unit"] for name, m in out.items()} if args.trace else E2E_UNITS
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    if not args.trace:
        t = record["tail"]
        print(
            f"row_ms_tail {t['value_ms']:.6g} ms (p{t['percentile']:g} of {t['rows']} rows, "
            f"{t['beyond']} beyond)"
            if t
            else f"row_ms_tail n/a ms (no percentile has {TAIL_BEYOND} of "
            f"{record['rows']} rows beyond it)"
        )
    else:
        top = list(record["self_share"].items())[:5]
        print("self-time share: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
    print(f"failed_frac {record['failed_frac']:.6g} ratio ({record['failed']} of {record['rows']})")
    for msg in record["failures"]:
        print(f"  failure: {msg}")
    print(f"result file {result_path(args, '.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["rows"],
        "failed": record["failed"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
