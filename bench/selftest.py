#!/usr/bin/env python3
"""Self-test of the benchmark itself (about one minute).

    python3 bench/selftest.py

Checks that the tracer rebinds and then restores every wrapped name, that
inputs repeat for a seed, that tiny traced and untraced runs of every
workload agree on their output digests and report no failed row, and that
the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from run import BENCH, RESULTS, ROOT, import_program

import_program()
import workloads  # noqa: E402
from tracer import TRACED, Tracer, _package_modules  # noqa: E402

# Tiny sizes: random4d's first row is its round's cheapest instance.
SMOKE_ROWS = {"cyclic2d": 20, "random4d": 1, "compute2d_large": 1}


def _bindings():
    return {(m.__name__, k): v for m in _package_modules() for k, v in vars(m).items()}


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


class TracerTest(unittest.TestCase):
    def test_install_rebinds_importers_and_uninstall_restores(self):
        import toricmld.geometry as geometry
        import toricmld.proof as proof

        before = _bindings()
        original = geometry.convex_hull
        tr = Tracer()
        tr.install()
        try:
            self.assertIsNot(geometry.convex_hull, original)
            self.assertIs(proof.convex_hull, geometry.convex_hull)
            for layer, names in TRACED.items():
                module = sys.modules[f"toricmld.{layer}"]
                for name in names:
                    self.assertIsNot(getattr(module, name), before[(module.__name__, name)])
        finally:
            tr.uninstall()
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_spans_nest_and_count_results(self):
        from toricmld.geometry import convex_hull

        square = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
        tr = Tracer()
        tr.install()
        try:
            tr.active = True
            pts = sys.modules["toricmld.geometry"].enumerate_points(square)
            sys.modules["toricmld.geometry"].normalized_volume(square)
            tr.active = False
        finally:
            tr.uninstall()
        stats = tr.aggregate()
        self.assertEqual(stats["geometry.enumerate_points"]["calls"], 1)
        self.assertEqual(len(pts), 9)
        self.assertEqual(stats["geometry.enumerate_points"]["out"], 9)
        vol = stats["geometry.normalized_volume"]
        self.assertLessEqual(vol["self_ns"], vol["total_ns"])
        self.assertEqual(tr.root_ns(), stats["geometry.enumerate_points"]["total_ns"] + vol["total_ns"])


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            keys = [[k for k, _ in rnd] for rnd in workloads.make_rounds(w, 5)]
            again = [[k for k, _ in rnd] for rnd in workloads.make_rounds(w, 5)]
            self.assertEqual(keys, again, w)
            other = [[k for k, _ in rnd] for rnd in workloads.make_rounds(w, 6)]
            self.assertNotEqual(keys, other, w)

    def test_random4d_rounds_are_disjoint(self):
        rounds = workloads.make_rounds("random4d", 3)
        keys = [k for rnd in rounds for k, _ in rnd]
        self.assertEqual(len(keys), len(set(keys)))
        self.assertTrue(all(len(r) == workloads.R4_STRATA for r in rounds))


class SmokeTest(unittest.TestCase):
    def _result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_tiny_runs_pass_and_traced_matches_untraced(self):
        for w, rows in SMOKE_ROWS.items():
            for trace in ("0", "1"):
                with self.subTest(workload=w, trace=trace):
                    res = self._result(
                        _run("--workload", w, "--seed", "2", "--rows", str(rows), "--trace", trace)
                    )
                    self.assertTrue(res["correct"])
                    self.assertEqual((res["attempted"], res["failed"]), (rows, 0))

    def test_refuses_to_run_without_sources(self):
        RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
            shutil.copytree(
                BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("results", "__pycache__")
            )
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = _run("--workload", "cyclic2d", "--seed", "1", "--seconds", "1", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
