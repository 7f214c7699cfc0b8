"""Smoke test of the benchmark itself.

Runs every workload at the geometry of tests/conftest.py::mini_model_config,
traced and untraced, and checks that each run is correct and reports every
metric BENCHMARK.json names, finite. From the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from cvloc.config import load_config  # noqa: E402
from layers import per_layer_spec  # noqa: E402
from workloads import MINI_GEOMETRY, WORKLOADS  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def test_mini_geometry_is_the_conftest_one():
    spec = importlib.util.spec_from_file_location(
        "cvloc_tests_conftest", os.path.join(ROOT, "tests", "conftest.py")
    )
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    mc = conftest.mini_model_config()
    for key, value in MINI_GEOMETRY.items():
        assert getattr(mc, key.split(".", 1)[1]) == value, key


def test_benchmark_json_lists_what_the_runs_report():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    stages = load_config(os.path.join(ROOT, "configs", "desk.cfg"))["model.decoder_stages"]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _ in per_layer_spec(stages)
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    out = _run(
        "--workload", workload, "--seed", "1", "--seconds", "0.5",
        "--trace", str(trace), "--geometry", "mini",
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    if trace:
        expected = {name: unit for name, unit, _ in per_layer_spec(MINI_GEOMETRY["model.decoder_stages"])}
    else:
        expected = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
