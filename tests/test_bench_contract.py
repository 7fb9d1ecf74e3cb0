"""The names the benchmark in bench/ reads from btwmoe.

bench/ wraps functions by name and reads result fields from outside the
package, so a rename there fails only when the benchmark runs. These checks
keep that contract in the fast suite.
"""

import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from btwmoe import reports, training
from btwmoe.config import load_experiment_config
from btwmoe.moe import MoeConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_every_traced_target_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", REPO_ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while being built.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    for module, attr, _name in tracing.SPANNED + tracing.COUNTED:
        assert callable(getattr(importlib.import_module(f"btwmoe.{module}"), attr, None)), \
            f"btwmoe.{module}.{attr}"


@pytest.mark.parametrize("name", ["noise_default.cfg", "classification_4class.cfg"])
def test_bundled_config_carries_its_moe_config(name):
    assert isinstance(load_experiment_config(REPO_ROOT / "configs" / name).moe, MoeConfig)


def test_every_workload_config_loads(monkeypatch, tmp_path):
    # A config key removed from the package fails here while a workload or
    # a bundled config still sets it.
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    harness = importlib.import_module("harness")
    for name, workload in harness.WORKLOADS.items():
        path = tmp_path / f"{name}.cfg"
        base = (REPO_ROOT / "configs" / workload.base).read_text()
        path.write_text(harness.config_text(base, workload.overrides))
        assert isinstance(load_experiment_config(path).moe, MoeConfig), name


def test_run_names_the_benchmark_reads():
    for fn in (training.resolve_dataset, training.run_experiment, reports.export_result):
        assert callable(fn)
    assert {"duration_s", "phase"} <= {f.name for f in dataclasses.fields(training.EpochRecord)}
    result_names = set(dir(training.ExperimentResult)) | {
        f.name for f in dataclasses.fields(training.ExperimentResult)
    }
    assert {"weight_matrices", "weight_epochs", "test_bundle"} <= result_names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_experiment_passes_the_benchmark_gate(monkeypatch, tmp_path, workload):
    # The benchmark's own setup, timed experiment and correctness check
    # (finite test metrics, row-stochastic weights, metrics.json equal to the
    # result), so a change that breaks the gate fails here.
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    harness = importlib.import_module("harness")
    monkeypatch.setattr(harness, "OUT", tmp_path)
    s = harness.setup(workload, 1)
    outcome = harness.Outcome(0, s.seeds[0], timed=True, traced=False)
    harness.run_one(dataclasses.replace(s.config, seed=s.seeds[0]), outcome)
    assert outcome.problems == []
    assert outcome.test is not None
