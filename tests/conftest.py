"""Shared fixtures: the bundled default noise config and session-wide caches
of experiment runs (noise and classification configs) so acceptance criteria
can share the variant/seed grid. The terminal summary names the environment
the byte pins were recorded on next to the running one."""

import ctypes
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from btwmoe.config import load_experiment_config
from btwmoe.training import run_experiment

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG_PATH = REPO_ROOT / "configs" / "noise_default.cfg"
CLASSIFICATION_CONFIG_PATH = REPO_ROOT / "configs" / "classification_4class.cfg"

# The environment every byte pin and digest in tests/ was recorded on.
# Matmul results differ in the last ulp between OpenBLAS kernels, so a pin
# downstream of a matmul holds one entry per kernel (assert_pinned).
PINNED_ENVIRONMENT = "NumPy 2.4.6, SciPy 1.17.1, OpenBLAS core SkylakeX, Haswell or Sandybridge"

# Populated by tests/test_acceptance.py; echoed after the run so the
# per-criterion verdicts are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def openblas_core() -> str:
    """The kernel NumPy's bundled OpenBLAS runs, or 'unknown' if the lookup fails."""
    try:
        libs = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")
        corename = ctypes.CDLL(str(next(libs))).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        return corename().decode()
    except Exception:  # another BLAS build, or none found: name it, never fail
        return "unknown"


def assert_pinned(got, pins: dict):
    """Check got against pins' entry for the running OpenBLAS kernel. A kernel
    with no entry fails, naming itself, the recorded kernels and got."""
    core = openblas_core()
    if core not in pins:
        pytest.fail(f"no byte pin recorded on OpenBLAS core {core} (recorded on "
                    f"{', '.join(pins)}); this run gives {got!r}", pytrace=False)
    assert got == pins[core]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    running = f"NumPy {np.__version__}, SciPy {scipy.__version__}, OpenBLAS core {openblas_core()}"
    terminalreporter.write_line(f"byte pins recorded on {PINNED_ENVIRONMENT}; running on {running}")
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def default_config():
    """The bundled default 3-modality noise config (single source of truth)."""
    return load_experiment_config(DEFAULT_CONFIG_PATH)


def uniform_mi(uni, multi, jitter_seed):
    """Stands in for training.modality_mi: every modality equally informative."""
    return np.ones(len(uni))


def empirical_entropy(a) -> float:
    """Shannon entropy of a label series under empirical frequencies, in nats:
    what discrete_mi(a, a) must equal."""
    a = np.asarray(a)
    _, counts = np.unique(a, return_counts=True)
    p = counts / a.shape[0]
    return float(-np.sum(p * np.log(p)))


def unit_weight_smoothing(smooth_update):
    """Wrap training.smooth_update so each smoothed row is uniform, which makes
    the applied weights M * (1/M) exactly one; the smoothing state, and so
    alpha, still advances from the real blend."""

    def fake(state, new_weights, current_metric):
        smoothed, next_state = smooth_update(state, new_weights, current_metric)
        return np.full_like(smoothed, 1.0 / smoothed.shape[1]), next_state

    return fake


class RunCache:
    """Lazily runs (variant, seed) cells of a base config, once per session;
    a cell's data.seed is its experiment seed."""

    def __init__(self, base_config):
        self.base = base_config
        self._results = {}
        self.durations = {}

    def get(self, variant: str, seed: int):
        key = (variant, seed)
        if key not in self._results:
            config = replace(
                self.base,
                variant=variant,
                seed=seed,
                data=replace(self.base.data, seed=seed),
            )
            started = time.perf_counter()
            self._results[key] = run_experiment(config)
            self.durations[key] = time.perf_counter() - started
        return self._results[key]

    def total_duration(self, keys) -> float:
        return sum(self.durations[k] for k in keys)


@pytest.fixture(scope="session")
def run_cache(default_config):
    return RunCache(default_config)


@pytest.fixture(scope="session")
def classification_run_cache():
    return RunCache(load_experiment_config(CLASSIFICATION_CONFIG_PATH))
