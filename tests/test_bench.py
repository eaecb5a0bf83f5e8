"""The benchmark's golden digests (``bench/reference.json``), checked from a
copy of the checkout so the run writes nothing under the repo's ``bench/``."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, rows",
    [("random4d", 60), ("compute2d_large", 96), ("cyclic2d", 1000)],
)
def test_seed_one_rows_match_the_golden_digests(tmp_path, workload, rows):
    """``bench/run.py --seed 1`` checks each row against its golden digest:
    the whole random4d pool, every compute2d_large digest and the first
    twenty cyclic2d blocks."""
    skip = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--rows", str(rows)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] == rows
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
