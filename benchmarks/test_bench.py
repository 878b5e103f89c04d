"""Self-test of the benchmark; run with ``python -m pytest benchmarks``.

Each workload's traced run must pass its reference checks and report the
same counts twice; the metric names must match ``BENCHMARK.json``; and
without the package sources the benchmark must fail without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["correct"] and out["failed"] == 0, done.stderr
    return out


@pytest.mark.parametrize("workload", ("sweep-n16", "enumerate-n4", "query-n64", "residual-sine"))
def test_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        metrics = result(bench(workload, 1))["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] and counts[0] == counts[1]


def test_metric_names_match_spec():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = result(bench("residual-sine", trace))["metrics"]
        spec = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: m["unit"] for k, m in metrics.items()} == spec
        if trace == 0:
            assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("residual-sine", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
