"""The names the benchmark in bench/ reads from btwmoe.

bench/ wraps functions by name and reads result fields from outside the
package, so a rename there fails only when the benchmark runs. These checks
keep that contract in the fast suite.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from btwmoe import reports, training
from btwmoe.config import load_experiment_config
from btwmoe.moe import MoeConfig

REPO_ROOT = Path(__file__).resolve().parent.parent


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


def test_run_names_the_benchmark_reads():
    for fn in (training.resolve_dataset, training.run_experiment, reports.export_result):
        assert callable(fn)
    assert {"duration_s", "phase"} <= {f.name for f in dataclasses.fields(training.EpochRecord)}
    result_names = set(dir(training.ExperimentResult)) | {
        f.name for f in dataclasses.fields(training.ExperimentResult)
    }
    assert {"weight_matrices", "weight_epochs", "test_bundle"} <= result_names
