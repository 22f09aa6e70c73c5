"""Smoke test of the benchmark: the tiny profile of every workload, traced
and untraced, plus the refusal to run without the program's sources.

    python -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))
from run import PROFILES, draw_point  # noqa: E402


def _run(workload, trace, script=BENCH / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "11",
            "--seconds", "1", "--trace", str(trace), "--profile", "smoke"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=170, check=False)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["failed_checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return detail, result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    detail, result = _result(_run(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["machine"]["nproc"] >= 1


def test_traced_run_reports_every_layer_metric():
    _detail, result = _result(_run("shrink-hole", 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["ulam.bins_assembled"] == 1100      # 100 + 1000 bins per pass
    assert metrics["escape.estimate_calls"] == 4
    assert metrics["cache.hit_ratio"] == 0.5


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_drawn_point_keeps_every_hole_clear_of_short_periodic_points(profile):
    widths = [Fraction(w) for w in PROFILES[profile]["widths"]]
    for seed in range(500):
        y, _redraws = draw_point(seed, widths)
        assert all(abs(Fraction(y) - Fraction(k, 9)) > max(widths) for k in range(10))
        assert all(abs(Fraction(y) - Fraction(k, 99)) > min(widths) for k in range(100))
    # seed 667 first draws y = 0.4409..., whose 1/100-wide hole holds 4/9
    assert abs(draw_point(667, widths)[0] - 4 / 9) > max(widths)


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("shrink-hole", 0, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
