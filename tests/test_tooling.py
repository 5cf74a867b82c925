"""The benchmark harness's self-tests and the README's example, run against this source tree."""

import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from nltomo import cli
from nltomo.config import config_from_file
from nltomo.presets import preset_configs

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_perfbench_selftest_passes():
    # `perfbench/run.py --trace 1` gives no result when these fail, e.g. when
    # a name the layer tracer must reach, such as runner.propagate_unitary, is gone
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_python_api_example_runs():
    # the ```python block under "## Python API", run as a script
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
def test_benchmark_seed_zero_outputs_match_its_references(workload, tmp_path, monkeypatch):
    # the check `perfbench/run.py` makes at seed 0, on one iteration: every output
    # file within 1e-10 of the reference output stored under perfbench/reference
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    verify = importlib.import_module("verify")
    assert sorted(workloads.WORKLOADS) == sorted(BENCHMARK_WORKLOADS)
    out = tmp_path / "out"
    for run, cfg in workloads.write_configs(workload, workloads.DEFAULT_SEED, tmp_path / "cfg", out):
        assert cli.main(["run", str(cfg)]) == cli.EXIT_OK, run.name
        assert verify.check_reference(run, out, ROOT / "perfbench" / "reference" / workload) == []


@pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
def test_benchmark_seed_zero_runs_are_their_presets_at_fewer_steps(workload, tmp_path, monkeypatch):
    # perfbench/workloads.py writes its configs on its own; at seed 0 each must be
    # the preset run of the same name, with only the step count and out.dir changed
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    out = tmp_path / "out"
    for run, cfg in workloads.write_configs(workload, workloads.DEFAULT_SEED, tmp_path / "cfg", out):
        preset = {c.name: c for c in preset_configs(run.name.split("_")[0])}[run.name]
        assert config_from_file(cfg) == replace(preset, steps=run.steps, out_dir=out), run.name
