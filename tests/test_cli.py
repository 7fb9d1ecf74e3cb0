"""Command-line surface: exit codes, file outputs, manifests, determinism."""

import argparse
import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btwmoe import cli, reports, training
from btwmoe.cli import (
    EXIT_OK,
    EXIT_OUTPUT_SAFETY,
    EXIT_PARSE,
    EXIT_PARTIAL_COMPARE,
    EXIT_TRAINING,
    build_parser,
    main,
)
from btwmoe.config import (
    _EXPERIMENT_KEYS,
    build_experiment_config,
    load_experiment_config,
    parse_config_text,
)
from btwmoe.errors import InvalidInputError, NumericOverflowError
from btwmoe.moe import MoeConfig, load_checkpoint, write_tensor_record
from btwmoe.synthetic import generate, load_dataset

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SMALL_EXPERIMENT = """
variant=btw
seed=0
lr=0.02
batch_size=64
epochs.unimodal=2
epochs.warm=1
epochs.weighted=2
moe.embed_dim=8
moe.expert_hidden=16
data.n_instances=200
data.modality_dims=6,6,6
data.informativeness=0.9,0.5,0.0
data.noise_sigma=1.0
data.task=regression
data.seed=0
"""

# round(0.1 * 4) = 0 leaves the train split empty; val and test get 2 each.
EMPTY_TRAIN = (SMALL_EXPERIMENT.replace("data.n_instances=200", "data.n_instances=4")
               .replace("data.modality_dims=6,6,6", "data.modality_dims=2,2")
               .replace("data.informativeness=0.9,0.5,0.0", "data.informativeness=0.9,0.1")
               + "split.fractions=0.1,0.45,0.45\n")

SMALL_DATASET = """
data.n_instances=120
data.modality_dims=5,5
data.informativeness=0.8,0.2
data.noise_sigma=0.5
data.task=regression
data.seed=4
split.fractions=0.7,0.15,0.15
split.seed=4
"""


def command_args(command, config, out):
    """Arguments for one CLI command that are complete up to --force."""
    args = [command, "--config", str(config), "--out", str(out)]
    if command == "compare":
        args += ["--variants", "unweighted", "--seeds", "0"]
    return args


@pytest.fixture
def experiment_cfg(tmp_path):
    path = tmp_path / "experiment.cfg"
    path.write_text(SMALL_EXPERIMENT)
    return path


@pytest.fixture
def dataset_cfg(tmp_path):
    path = tmp_path / "dataset.cfg"
    path.write_text(SMALL_DATASET)
    return path


class TestConfigParsing:
    def test_full_round_trip(self, experiment_cfg):
        config = load_experiment_config(experiment_cfg)
        assert config.variant == "btw"
        assert config.moe.embed_dim == 8
        assert config.data.modality_dims == (6, 6, 6)

    def test_unknown_field_names_the_field(self):
        with pytest.raises(InvalidInputError, match="frobnicate"):
            parse_config_text("frobnicate=1")

    # One key per converter: int, float, and comma lists of floats and ints.
    @pytest.mark.parametrize("assignment", [
        "lr=fast", "seed=1.5", "split.fractions=0.7,,0.3", "data.modality_dims=16,x",
        "data.informativeness=a", "data.class_priors=1,b",
    ], ids=lambda a: a.partition("=")[0])
    def test_malformed_value_names_line_and_field(self, assignment):
        key, _, value = assignment.partition("=")
        with pytest.raises(InvalidInputError) as excinfo:
            parse_config_text(f"variant=btw\n{assignment}")
        assert str(excinfo.value) == f"line 2: field '{key}' has malformed value {value!r}"

    def test_comments_and_blank_lines_ignored(self):
        values = parse_config_text("# comment\n\nvariant=btw  # trailing\n")
        assert values == {"variant": "btw"}

    def test_duplicate_field_rejected(self):
        with pytest.raises(InvalidInputError, match="duplicate"):
            parse_config_text("seed=1\nseed=2")

    def test_data_path_excludes_inline_moe_requirement(self, tmp_path):
        cfg = build_experiment_config({"variant": "unweighted", "data.path": str(tmp_path)})
        assert cfg.data_path == str(tmp_path)

    def test_every_experiment_key_reaches_its_field(self):
        # key: (ExperimentConfig field, config text, parsed value), none of them a default
        cases = {
            "variant": ("variant", "btw_local", "btw_local"),
            "seed": ("seed", "7", 7),
            "lr": ("lr", "0.5", 0.5),
            "batch_size": ("batch_size", "17", 17),
            "epochs.unimodal": ("epochs_unimodal", "4", 4),
            "epochs.warm": ("epochs_warm", "5", 5),
            "epochs.weighted": ("epochs_weighted", "6", 6),
            "split.fractions": ("split_fractions", "0.6,0.2,0.2", (0.6, 0.2, 0.2)),
            "moe.embed_dim": ("moe_embed_dim", "9", 9),
            "moe.n_experts": ("moe_n_experts", "6", 6),
            "moe.top_k": ("moe_top_k", "3", 3),
            "moe.expert_hidden": ("moe_expert_hidden", "11", 11),
            "moe.n_moe_layers": ("moe_n_moe_layers", "2", 2),
        }
        assert set(cases) == {k for k in _EXPERIMENT_KEYS if not k.startswith("data.")}
        data_lines = [line for line in SMALL_EXPERIMENT.splitlines()
                      if line.startswith("data.")]
        text = "\n".join([f"{key}={raw}" for key, (_, raw, _) in cases.items()] + data_lines)
        cfg = build_experiment_config(parse_config_text(text))
        defaults = {f.name: f.default for f in dataclasses.fields(cfg)}
        for key, (name, _, value) in cases.items():
            assert value != defaults[name], key
            assert getattr(cfg, name) == value, key


class TestGenData:
    def test_writes_dataset_and_manifest(self, dataset_cfg, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(dataset_cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "meta.json").exists()
        assert (out / "modality_0.bin").exists()
        assert (out / "targets.bin").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert len(manifest["config_sha256"]) == 64

    def test_byte_order_mark_is_not_part_of_the_config(self, dataset_cfg, tmp_path):
        bom_cfg = tmp_path / "bom.cfg"
        bom_cfg.write_bytes(b"\xef\xbb\xbf" + dataset_cfg.read_bytes().lstrip())
        out, plain = tmp_path / "bom", tmp_path / "plain"
        assert main(["gen-data", "--config", str(bom_cfg), "--out", str(out)]) == EXIT_OK
        assert main(["gen-data", "--config", str(dataset_cfg), "--out", str(plain)]) == EXIT_OK
        for name in ("meta.json", "targets.bin", "modality_0.bin"):
            assert (out / name).read_bytes() == (plain / name).read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(bom_cfg.read_bytes()).hexdigest()
        assert manifest["config_echo"] == SMALL_DATASET.lstrip()

    def test_malformed_spec_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("data.n_instances=many\n")
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(bad), "--out", str(out)]) == EXIT_PARSE

    def test_nonempty_out_dir_without_force_exits_3(self, dataset_cfg, tmp_path):
        out = tmp_path / "data"
        out.mkdir()
        (out / "existing.txt").write_text("keep me")
        assert main(["gen-data", "--config", str(dataset_cfg), "--out", str(out)]) \
            == EXIT_OUTPUT_SAFETY
        assert main(["gen-data", "--config", str(dataset_cfg), "--out", str(out),
                     "--force"]) == EXIT_OK

    @pytest.mark.parametrize("name", ["noise_default", "classification_4class"])
    def test_readme_example_on_bundled_configs(self, tmp_path, name):
        # The README's first example, run on each bundled experiment config.
        config = CONFIGS / f"{name}.cfg"
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(config), "--out", str(out), "--force"]) \
            == EXIT_OK
        expected = generate(load_experiment_config(config).data)
        saved = load_dataset(out)
        assert len(saved.features) == len(expected.features)
        for got, want in zip(saved.features, expected.features):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert saved.targets.tobytes() == expected.targets.tobytes()

    def test_invalid_split_fractions_exit_2(self, dataset_cfg, tmp_path, capsys):
        dataset_cfg.write_text(SMALL_DATASET.replace("0.7,0.15,0.15", "0.5,0.5,0.5"))
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(dataset_cfg), "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: fractions sum to 1.5, not 1\n"
        assert not out.exists()

    # The linear spec's tensor records, split or not: a split moves only meta.json.
    LINEAR_BINS = {
        "modality_0.bin": "5d9cef90fd0a656b8347569ae429554de42d9a54f86f8f3c875f8d7f8e9e9926",
        "modality_1.bin": "a3c3c9ccddd0b5805e068c6bf2c59b7b98e94cd73dda1514533d97ce9ab29320",
        "targets.bin": "1bb7c75ee14bc6c154dbb1e8af519fa917c986713e950e65730169342e507c2c",
    }

    @pytest.mark.parametrize("text, digests", [
        (SMALL_DATASET, {
            "meta.json": "c8d7d0bfa8043467adbd9d14b145db8f39cc11e51a2fc539b93e3dd579c96a4c",
            **LINEAR_BINS,
        }),
        (SMALL_DATASET.replace("split.fractions=0.7,0.15,0.15\n", ""), {
            "meta.json": "14696819b256cc9d4466661616785253e7449f5aacfb3913aa78cfafef4190cf",
            **LINEAR_BINS,
        }),
        (SMALL_DATASET + "data.nonlinearity=tanh-mixed\n", {
            "meta.json": "fc13d28db5759559ec4b2c4506dc3c59f22f3223447f719ae9c4deae30cc0d78",
            "modality_0.bin": "20648b8275eca5f9c881da77f8dd7c6bed0882e37208aac632aa0784f9b54c20",
            "modality_1.bin": "ca971db3953e795e66b1ac4e58e835838780b641f7e39f03cea2e841b395d2d4",
            "targets.bin": "1bb7c75ee14bc6c154dbb1e8af519fa917c986713e950e65730169342e507c2c",
        }),
    ], ids=["split", "unsplit", "tanh-mixed"])
    def test_dataset_bytes_pinned(self, dataset_cfg, tmp_path, text, digests):
        # Tensor records of the .bin files and the meta.json text, as the
        # dataset format has always written them.
        dataset_cfg.write_text(text)
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(dataset_cfg), "--out", str(out)]) == EXIT_OK
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in digests} == digests

    def test_config_without_data_spec_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "path.cfg"
        cfg.write_text(f"variant=btw\ndata.path={tmp_path}\n")
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) \
            == EXIT_PARSE
        assert "missing data spec" in capsys.readouterr().err


@pytest.mark.parametrize("command, usage", [
    ("gen-data", "usage: btwmoe gen-data [-h] --config CONFIG --out OUT [--force]\n"),
    ("train", "usage: btwmoe train [-h] --config CONFIG --out OUT [--force]\n"),
    ("compare", "usage: btwmoe compare [-h] --config CONFIG --variants VARIANTS --seeds SEEDS\n"
                "                      --out OUT [--force]\n"),
])
def test_command_usage_pinned(monkeypatch, command, usage):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert commands.choices[command].format_usage() == usage


@pytest.mark.parametrize("command", ["gen-data", "train", "compare"])
@pytest.mark.parametrize("under", ["", "sub"])  # --out is the file, or a path under it
def test_out_at_a_file_exits_3(experiment_cfg, tmp_path, capsys, command, under):
    blocker = tmp_path / "taken"
    blocker.write_text("keep me")
    args = command_args(command, experiment_cfg, blocker / under) + ["--force"]
    assert main(args) == EXIT_OUTPUT_SAFETY
    assert f"{blocker} is a file, not a directory" in capsys.readouterr().err
    assert blocker.read_text() == "keep me"


@pytest.mark.parametrize("command", ["gen-data", "train", "compare"])
@pytest.mark.parametrize("deeper", [False, True], ids=["its-name", "a-parent-name"])
def test_out_the_system_rejects_exits_3(experiment_cfg, tmp_path, capsys, command, deeper):
    out = tmp_path / ("x" * 300) / "out" if deeper else tmp_path / ("x" * 300)
    assert main(command_args(command, experiment_cfg, out)) == EXIT_OUTPUT_SAFETY
    assert capsys.readouterr().err == (
        f"error: output path {out}: {os.strerror(errno.ENAMETOOLONG)}\n")


@pytest.mark.parametrize("command", ["gen-data", "train", "compare"])
def test_missing_config_file_exits_2(tmp_path, capsys, command):
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes(b"variant=btw\n\xff\xfe\n")
    for config in (tmp_path / "absent.cfg", not_utf8):
        assert main(command_args(command, config, tmp_path / "out")) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {config}") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


# (n_instances, modality_dims, id suffix). 10**15 instances need more than any
# address space holds, so the first allocation fails at once without touching
# memory; 10**20 is past NumPy's dimension limit.
_UNALLOCATABLE_DATA = [(10**15, (6, 6, 6), ""),
                       (10**20, (6, 6, 6), "-n_instances-past-the-dimension-limit"),
                       (200, (6, 6, 10**20), "-modality_dims-past-the-dimension-limit")]


@pytest.mark.parametrize("command, n_instances, dims", [
    pytest.param(command, n_instances, dims, id=command + suffix)
    for command in ["gen-data", "train", "compare"]
    for n_instances, dims, suffix in _UNALLOCATABLE_DATA])
def test_unallocatable_data_spec_exits_2(tmp_path, capsys, command, n_instances, dims):
    cfg = tmp_path / "huge.cfg"
    dims_text = ",".join(map(str, dims))
    cfg.write_text(SMALL_EXPERIMENT
                   .replace("data.n_instances=200", f"data.n_instances={n_instances}")
                   .replace("data.modality_dims=6,6,6", f"data.modality_dims={dims_text}"))
    out = tmp_path / "out"
    assert main(command_args(command, cfg, out)) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: data.n_instances={n_instances} with data.modality_dims={dims} is too large to "
        f"allocate\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("key, value", [
    # Each asks for at least 2**47 bytes of parameters, or a dimension past
    # NumPy's limit, so the allocation fails at once without touching memory.
    ("embed_dim", 10**13), ("n_experts", 10**13), ("expert_hidden", 10**13),
    ("n_moe_layers", 10**13), ("embed_dim", 10**20),
])
def test_unallocatable_model_exits_2(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "huge.cfg"
    kept = [line for line in SMALL_EXPERIMENT.splitlines() if not line.startswith(f"moe.{key}=")]
    cfg.write_text("\n".join(kept + [f"moe.{key}={value}"]))
    options = {"embed_dim": 8, "n_experts": 4, "top_k": 2, "expert_hidden": 16,
               "n_moe_layers": 1, key: value}
    out = tmp_path / "out"
    assert main(command_args(command, cfg, out)) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: a model of {', '.join(f'moe.{k}={v}' for k, v in options.items())} is too "
        f"large to allocate\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command, config, old, new, message", [
    ("train", SMALL_EXPERIMENT, "\nseed=0\n", "\nseed=-1\n", "seed must be >= 0, got -1"),
    ("train", SMALL_EXPERIMENT, "data.seed=0", "data.seed=-3", "data.seed must be >= 0, got -3"),
    ("gen-data", SMALL_DATASET, "split.seed=4", "split.seed=-1",
     "split.seed must be >= 0, got -1"),
    ("compare", SMALL_EXPERIMENT, "", "", "seed must be >= 0, got -1"),
], ids=["seed", "data.seed", "split.seed", "compare-seeds"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command, config, old, new, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config.replace(old, new) if old else config)
    out = tmp_path / "out"
    args = command_args(command, cfg, out)
    if command == "compare":
        args[args.index("--seeds") + 1] = "-1"
    assert main(args) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


CLASSIFICATION_EXPERIMENT = SMALL_EXPERIMENT.replace(
    "data.task=regression", "data.task=classification\ndata.n_classes=4")


@pytest.mark.parametrize("command", ["gen-data", "train"])
@pytest.mark.parametrize("config, line, message", [
    (SMALL_EXPERIMENT, "data.modality_dims=-3,6,6", "modality_dims must all be >= 1"),
    (SMALL_EXPERIMENT, "data.modality_dims=0,6,6", "modality_dims must all be >= 1"),
    (SMALL_EXPERIMENT, "data.noise_sigma=nan", "noise_sigma must be finite and >= 0, got nan"),
    (SMALL_EXPERIMENT, "data.noise_sigma=inf", "noise_sigma must be finite and >= 0, got inf"),
    (SMALL_EXPERIMENT, "data.noise_sigma=1e200", "noise_sigma 1e+200 overflows modality 0"),
    (CLASSIFICATION_EXPERIMENT, "data.class_priors=inf,1,1,1",
     "class_priors must be positive with a finite sum"),
    (CLASSIFICATION_EXPERIMENT, "data.class_priors=1e308,1e308,1,1",
     "class_priors must be positive with a finite sum"),
    (CLASSIFICATION_EXPERIMENT, "data.n_classes=201",
     "classification needs 2 <= n_classes <= n_instances (200), got 201"),
    (CLASSIFICATION_EXPERIMENT, f"data.n_classes={2**62}",  # overflowed the bins' int64
     f"classification needs 2 <= n_classes <= n_instances (200), got {2**62}"),
    (SMALL_EXPERIMENT, "split.fractions=nan,0.5,0.5", "fractions must all be positive"),
], ids=["dims-negative", "dims-zero", "noise-nan", "noise-inf", "noise-overflow",
        "priors-inf", "priors-sum-overflow", "classes-past-instances", "classes-huge",
        "fractions-nan"])
def test_hostile_data_value_is_a_usage_error(tmp_path, capsys, command, config, line, message):
    key = line.split("=", 1)[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{kept}\n" for kept in config.splitlines()
                           if not kept.startswith(f"{key}=")) + line + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, config, status, message", [
    ("train", SMALL_EXPERIMENT.replace("lr=0.02", "lr=1e308")
     .replace("data.n_instances=200", "data.n_instances=48")
     .replace("data.modality_dims=6,6,6", "data.modality_dims=6,6")
     .replace("data.informativeness=0.9,0.5,0.0", "data.informativeness=0.9,0.5")
     .replace("data.task=regression", "data.task=classification\ndata.n_classes=3"),
     EXIT_TRAINING, "training failed in phase 'unimodal[0]' at epoch 2: "
                    "non-finite activation in router[0][0]"),
    ("gen-data", (CONFIGS / "noise_default.cfg").read_text()
     .replace("data.noise_sigma=1.5", "data.noise_sigma=1e200"),
     EXIT_PARSE, "noise_sigma 1e+200 overflows modality 0"),
], ids=["train-overflow", "gen-data-overflow"])
def test_floating_point_fault_prints_only_its_error_line(tmp_path, command, config, status,
                                                         message):
    # A fresh process with every warning shown: in-process, a warning prints
    # only once per source line.
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(config)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONWARNINGS="always")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run([sys.executable, "-m", "btwmoe.cli", command, "--config", str(cfg),
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stderr) == (status, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("case", ["btwmoe", "btwmoe.cli", "btwmoe.training", "gen-data",
                                  "train-plan-error"])
def test_start_up_leaves_scipy_special_unloaded(tmp_path, case):
    # scipy.special loads at the first GELU or KSG call, or before lanes fork,
    # so a process that never trains never pays its import. Each case runs
    # in a fresh interpreter.
    noise = CONFIGS / "noise_default.cfg"
    too_small = tmp_path / "too_small.cfg"
    # round(0.7 * 6) = 4 train instances, one short of what KSG needs.
    too_small.write_text(noise.read_text().replace("data.n_instances=2000",
                                                   "data.n_instances=6"))
    runs = {
        "gen-data": (["gen-data", "--config", str(noise), "--out", str(tmp_path / "data")],
                     EXIT_OK),
        "train-plan-error": (["train", "--config", str(too_small), "--out",
                              str(tmp_path / "run")], EXIT_PARSE),
    }
    if case in runs:
        argv, status = runs[case]
        code = f"from btwmoe import cli\nassert cli.main({argv!r}) == {status}\n"
    else:
        code = f"import {case}\n"
    code += "import sys\nassert 'scipy.special' not in sys.modules\n"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    if case == "train-plan-error":
        assert "KSG mutual information needs at least 5 instances" in done.stderr


def test_out_of_range_stored_label_is_a_usage_error(dataset_cfg, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    dataset_cfg.write_text(SMALL_DATASET.replace("data.task=regression",
                                                 "data.task=classification\ndata.n_classes=4"))
    assert main(["gen-data", "--config", str(dataset_cfg), "--out", str(data)]) == EXIT_OK
    targets = load_dataset(data).targets.astype(np.float64)
    targets[5] = 7
    with open(data / "targets.bin", "wb") as fh:
        write_tensor_record(fh, targets)
    cfg = tmp_path / "path.cfg"
    cfg.write_text(f"variant=btw\ndata.path={data}\n")
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: dataset file {data / 'targets.bin'} holds a class label")
    assert not out.exists()


_FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e-320", "2", "1e200", "1e308", "x", ""]
_INTS = ["-3", "-1", "0", "1", "64", str(2**62), str(2**70), "1.5", "x"]


@st.composite
def data_configs(draw):
    """A valid gen-data config with up to three data.* or split.* values made
    hostile (a random value, or the key dropped), maybe a duplicate or
    malformed line, in random order."""
    m, n_classes = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    values = {
        "data.n_instances": str(draw(st.integers(2, 64))),
        "data.modality_dims": ",".join(str(draw(st.integers(1, 5))) for _ in range(m)),
        "data.informativeness": ",".join(
            ["0.9"] + [draw(st.sampled_from(["0", "0.3", "1"])) for _ in range(m - 1)]),
        "data.noise_sigma": draw(st.sampled_from(["0", "0.5", "2"])),
        "data.task": draw(st.sampled_from(["regression", "classification"])),
        "data.n_classes": str(n_classes),
        "data.nonlinearity": draw(st.sampled_from(["linear", "tanh-mixed"])),
        "data.seed": str(draw(st.integers(0, 9))),
        "data.class_priors": ",".join(draw(st.sampled_from(["0.2", "1", "3"]))
                                      for _ in range(n_classes)),
        "split.fractions": "0.6,0.2,0.2",
        "split.seed": str(draw(st.integers(0, 9))),
    }
    if values["data.task"] == "regression" or draw(st.booleans()):
        del values["data.class_priors"]
    hostile = {
        "data.n_instances": st.sampled_from(["-1", "0", "1", "x"]),
        "data.modality_dims": st.lists(st.sampled_from(["-3", "0", "1", "5", "x"]),
                                       min_size=m, max_size=m).map(",".join),
        "data.informativeness": st.lists(st.sampled_from(_FLOATS + ["0.5", "1"]),
                                         min_size=1, max_size=3).map(",".join),
        "data.noise_sigma": st.sampled_from(_FLOATS),
        "data.task": st.sampled_from(["classification", "bogus"]),
        "data.n_classes": st.sampled_from(_INTS),
        "data.nonlinearity": st.sampled_from(["cubic", ""]),
        "data.seed": st.sampled_from(_INTS),
        "data.class_priors": st.lists(st.sampled_from(_FLOATS + ["1"]), min_size=n_classes,
                                      max_size=n_classes + 1).map(",".join),
        "split.fractions": st.lists(st.sampled_from(_FLOATS + ["0.5", "0.25"]),
                                    min_size=2, max_size=4).map(",".join),
        "split.seed": st.sampled_from(_INTS),
    }
    for key in draw(st.lists(st.sampled_from(sorted(hostile)), max_size=3, unique=True)):
        if draw(st.booleans()):
            values[key] = draw(hostile[key])
        else:
            values.pop(key, None)
    lines = [f"{key}={value}" for key, value in values.items()]
    lines += draw(st.lists(st.sampled_from(["garbage", "=1", "data.bogus=1", *lines]),
                           max_size=1))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@given(text=data_configs())
@settings(max_examples=200, deadline=None)
def test_gen_data_fuzz_exits_0_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "data"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(["gen-data", "--config", str(cfg), "--out", str(out)])
        assert status in (EXIT_OK, EXIT_PARSE), err.getvalue()
        if status == EXIT_PARSE:
            assert err.getvalue().startswith("error: ") and not out.exists()
            return
        saved = load_dataset(out)
        assert all(f.shape[1] >= 1 and np.isfinite(f).all() for f in saved.features)
        if saved.task == "classification":
            assert set(np.unique(saved.targets)) <= set(range(saved.n_classes))


@st.composite
def train_configs(draw, max_hostile=3, max_bad_lines=1):
    """A tiny valid train config with up to max_hostile experiment values made
    hostile (an invalid or malformed value, or the key dropped), and up to
    max_bad_lines duplicate, unknown or malformed lines. Sizes and epoch
    counts are only ever made invalid, never large, so that no example
    trains at scale."""
    m, task = draw(st.integers(1, 3)), draw(st.sampled_from(["regression", "classification"]))
    values = {
        "variant": draw(st.sampled_from(training.VARIANTS)),
        "seed": str(draw(st.integers(0, 9))),
        "lr": draw(st.sampled_from(["0.02", "0.1"])),
        "batch_size": str(draw(st.integers(8, 64))),
        "epochs.unimodal": str(draw(st.integers(1, 2))),
        "epochs.warm": str(draw(st.integers(0, 1))),
        "epochs.weighted": str(draw(st.integers(0, 2))),
        "split.fractions": "0.6,0.2,0.2",
        "moe.embed_dim": str(draw(st.integers(1, 8))),
        "moe.n_experts": "4",
        "moe.top_k": str(draw(st.integers(1, 4))),
        "moe.expert_hidden": str(draw(st.integers(1, 8))),
        "moe.n_moe_layers": str(draw(st.integers(1, 2))),
        "data.n_instances": str(draw(st.integers(32, 64))),
        "data.modality_dims": ",".join(["3"] * m),
        "data.informativeness": ",".join(["0.9"] + ["0.3"] * (m - 1)),
        "data.noise_sigma": "1",
        "data.task": task,
        "data.n_classes": "3",
        "data.seed": str(draw(st.integers(0, 9))),
    }
    invalid_size = st.sampled_from(["-1", "0", "nan", "1.5", "x", ""])
    hostile = {
        "variant": st.sampled_from(["bogus", "BTW", ""]),
        "seed": st.sampled_from(_INTS),
        "lr": st.sampled_from(_FLOATS),
        "batch_size": invalid_size,
        "epochs.unimodal": invalid_size.filter(lambda v: v != "0"),
        "epochs.warm": invalid_size.filter(lambda v: v != "0"),
        "epochs.weighted": invalid_size.filter(lambda v: v != "0"),
        "split.fractions": st.lists(st.sampled_from(_FLOATS + ["0.5", "0.25", "0.05"]),
                                    min_size=2, max_size=4).map(",".join),
        "moe.embed_dim": invalid_size,
        "moe.n_experts": invalid_size,
        "moe.top_k": st.sampled_from(["-1", "0", "5", "x"]),
        "moe.expert_hidden": invalid_size,
        "moe.n_moe_layers": invalid_size,
    }
    for key in draw(st.lists(st.sampled_from(sorted(hostile)), max_size=max_hostile,
                             unique=True)):
        if draw(st.booleans()):
            values[key] = draw(hostile[key])
        else:
            del values[key]
    lines = [f"{key}={value}" for key, value in values.items()]
    lines += draw(st.lists(st.sampled_from(["garbage", "alpha.init=0.5", *lines]),
                           max_size=max_bad_lines))
    return "\n".join(lines) + "\n"


def run_quietly(argv) -> tuple[int, str]:
    """(exit status, stderr) of an in-process CLI run. Every warning is
    recorded, however often its line has warned before, and fails the run:
    the CLI's stderr holds its own messages only."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return status, err.getvalue()


# round(1e-320 * n) leaves the train split empty, which every variant's plan
# rejects; about 1 draw in 10,000 of the hostile split.fractions.
@example(text="""variant=btw_local
seed=0
lr=0.02
batch_size=8
epochs.unimodal=1
epochs.warm=0
epochs.weighted=1
split.fractions=1e-320,0.5,0.5
moe.embed_dim=4
moe.n_experts=4
moe.top_k=2
moe.expert_hidden=4
moe.n_moe_layers=1
data.n_instances=32
data.modality_dims=3,3
data.informativeness=0.9,0.3
data.noise_sigma=1
data.task=regression
data.n_classes=3
data.seed=0
""")
@given(text=train_configs())
@settings(max_examples=100, deadline=None)
def test_train_fuzz_exits_0_2_or_4(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "run"
        cfg.write_text(text)
        status, err = run_quietly(["train", "--config", str(cfg), "--out", str(out)])
        assert status in (EXIT_OK, EXIT_PARSE, EXIT_TRAINING), err
        if status == EXIT_OK:
            assert (out / "manifest.json").exists() and err == ""
        elif status == EXIT_PARSE:
            assert err.startswith("error: ") and err.count("\n") == 1 and not out.exists()
        else:
            assert err.startswith("error: training failed in phase '") and err.count("\n") == 1


# Valid names twice over, so that about two tokens in three name a cell.
_CELL_VARIANTS = [*training.VARIANTS * 2, "bogus", "BTW", "", " btw"]
_CELL_SEEDS = ["0", "1", "2", "0", "1", "01", " 2", str(2**70), "-1", "1.5", "x", ""]


@st.composite
def compare_args(draw):
    """A tiny train config with up to two hostile values, and --variants and
    --seeds strings naming at most two cells between them, maybe empty,
    repeated, unknown, negative or not an integer."""
    n_variants = draw(st.integers(1, 2))
    variants = draw(st.lists(st.sampled_from(_CELL_VARIANTS), min_size=n_variants,
                             max_size=n_variants))
    seeds = draw(st.lists(st.sampled_from(_CELL_SEEDS), min_size=1, max_size=2 // n_variants))
    config = draw(train_configs(max_hostile=1, max_bad_lines=0))
    # The second hostile value fails cells, and compare goes on without them:
    # a step that overflows fails regression cells in training, a train split
    # too small for KSG fails the regression MI variants' plans, and an empty
    # one fails every plan.
    line = draw(st.sampled_from([None, "lr=1e308", "split.fractions=0.1,0.45,0.45",
                                 "split.fractions=1e-320,0.5,0.5"]))
    if line is not None:
        key = line.split("=", 1)[0]
        config = "".join(f"{kept}\n" for kept in config.splitlines()
                         if not kept.startswith(f"{key}=")) + line + "\n"
    return config, ",".join(variants), ",".join(seeds)


# Too few train instances for KSG: btw fails its plan and unweighted runs.
@example(args=(SMALL_EXPERIMENT.replace("data.n_instances=200", "data.n_instances=8")
               + "split.fractions=0.5,0.25,0.25\n", "unweighted,btw", "0"))
@given(args=compare_args())
@settings(max_examples=100, deadline=None)
def test_compare_fuzz_exits_0_2_3_or_5(args):
    text, variants, seeds = args
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "cmp"
        cfg.write_text(text)
        status, err = run_quietly(["compare", "--config", str(cfg), "--variants", variants,
                                   "--seeds", seeds, "--out", str(out)])
        assert status in (EXIT_OK, EXIT_PARSE, EXIT_OUTPUT_SAFETY, EXIT_PARTIAL_COMPARE), err
        if status in (EXIT_PARSE, EXIT_OUTPUT_SAFETY):
            # argparse rejects a value that looks like an option, after its usage lines.
            assert err.startswith(("error: ", "usage: ")) and not out.exists()
            assert err.splitlines()[-1].startswith(("error: ", "btwmoe compare: error: "))
            return
        manifest = json.loads((out / "manifest.json").read_text())
        cells = [(v, s) for s in manifest["seeds"] for v in manifest["variants"]]
        failed = [line.split(":")[1].strip() for line in err.splitlines()]
        assert all(line.startswith("failed: ") for line in err.splitlines()), err
        finished = [(v, s) for v, s in cells if f"{v} seed {s}" not in failed]
        assert len(finished) + len(failed) == len(cells)
        assert (status == EXIT_PARTIAL_COMPARE) == bool(failed)
        listed = manifest["outputs"]
        assert {tuple(path.split("/")[:2]) for path in listed if "/" in path} == \
            {(v, f"seed_{s}") for v, s in finished}
        on_disk = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        assert on_disk == sorted(listed + ["manifest.json"])
        with open(out / "summary.csv") as fh:
            rows = {row["variant"]: int(row["n_seeds"]) for row in csv.DictReader(fh)}
        assert rows == {v: n for v in manifest["variants"]
                        if (n := sum(cell[0] == v for cell in finished))}


@pytest.mark.parametrize("command, config, written", [
    ("gen-data", SMALL_DATASET, ["meta.json", "modality_0.bin", "modality_1.bin",
                                 "targets.bin"]),
    ("train", SMALL_EXPERIMENT, ["checkpoints/final.btwm", "checkpoints/unimodal_0.btwm",
                                 "checkpoints/unimodal_1.btwm", "checkpoints/unimodal_2.btwm",
                                 "metrics.json", "records.csv", "weights_trajectory.csv"]),
], ids=["gen-data", "train"])
def test_force_manifest_lists_only_written_files(tmp_path, command, config, written):
    # --force into an old run directory keeps its files but lists only the new ones.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    out.mkdir()
    (out / "alpha_trajectory.csv").write_text("epoch,alpha\n")
    (out / "manifest.json").write_text("{}")
    assert main([command, "--config", str(cfg), "--out", str(out), "--force"]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["outputs"] == written
    assert (out / "alpha_trajectory.csv").read_text() == "epoch,alpha\n"


class TestTrain:
    def test_writes_all_artifacts(self, experiment_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", str(experiment_cfg), "--out", str(out)]) == EXIT_OK
        for name in ("records.csv", "weights_trajectory.csv", "metrics.json", "manifest.json"):
            assert (out / name).exists(), name
        assert not (out / "alpha_trajectory.csv").exists()  # records.csv's alpha column
        assert (out / "checkpoints" / "final.btwm").exists()
        assert (out / "checkpoints" / "unimodal_0.btwm").exists()
        with open(out / "records.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 1 + 2  # header + warm + weighted
        report = json.loads((out / "metrics.json").read_text())
        assert report["modality_mi_final"] is not None
        assert "zero_handling" in report["header"]

    def test_byte_identical_reruns(self, experiment_cfg, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["train", "--config", str(experiment_cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["train", "--config", str(experiment_cfg), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
        assert (out1 / "weights_trajectory.csv").read_bytes() == \
            (out2 / "weights_trajectory.csv").read_bytes()

    def test_a_failed_write_exits_3(self, experiment_cfg, tmp_path, capsys, monkeypatch):
        def full_disk(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(reports, "write_weight_trajectory_csv", full_disk)
        out = tmp_path / "run"
        assert main(command_args("train", experiment_cfg, out)) == EXIT_OUTPUT_SAFETY
        assert capsys.readouterr().err == (
            f"error: output path {out}: {os.strerror(errno.ENOSPC)}\n")

    def test_training_failure_exits_4(self, tmp_path):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(SMALL_EXPERIMENT.replace("lr=0.02", "lr=500.0"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_TRAINING

    def test_weighting_error_is_a_training_failure(self, experiment_cfg, tmp_path, capsys,
                                                   monkeypatch):
        def failing_kl(targets, uni, multi):
            raise InvalidInputError("weight entries must be finite and non-negative")

        monkeypatch.setattr(training, "instance_kl_weights", failing_kl)
        out = tmp_path / "run"
        assert main(["train", "--config", str(experiment_cfg), "--out", str(out)]) \
            == EXIT_TRAINING
        # epochs.warm=1, so the first weighted epoch is epoch 2.
        assert capsys.readouterr().err == (
            "error: training failed in phase 'weighted' at epoch 2: "
            "weight entries must be finite and non-negative\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("edit", ["rewrite", "delete"])
    def test_manifest_records_the_config_bytes_the_run_parsed(self, experiment_cfg, tmp_path,
                                                              monkeypatch, edit):
        parsed = experiment_cfg.read_bytes()
        run_planned = cli.run_planned

        def editing_run(config, dataset):
            if edit == "rewrite":
                experiment_cfg.write_text(SMALL_EXPERIMENT.replace("variant=btw",
                                                                   "variant=unweighted"))
            else:
                experiment_cfg.unlink()
            return run_planned(config, dataset)

        monkeypatch.setattr(cli, "run_planned", editing_run)
        out = tmp_path / "run"
        assert main(["train", "--config", str(experiment_cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(parsed).hexdigest()
        assert manifest["config_echo"] == parsed.decode()
        assert manifest["variant"] == "btw"

    def test_near_coincident_gaussians_train(self, tmp_path):
        # On this seed a unimodal and the multimodal Gaussian nearly coincide
        # in the first weighted epoch, where an unclamped KL rounds below 0.
        cfg = tmp_path / "noise.cfg"
        cfg.write_text((CONFIGS / "noise_default.cfg").read_text()
                       .replace("\nseed=0\n", "\nseed=1034217556\n"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK

    def test_split_too_small_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SMALL_EXPERIMENT.replace("data.n_instances=200", "data.n_instances=8"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        ("", "regression metrics need at least 2 instances; the val split has 1"),
        ("split.fractions=0.5,0.25,0.25\n",
         "KSG mutual information needs at least 5 instances; the train split has 4"),
    ])
    def test_split_sizes_checked_before_training(self, tmp_path, capsys, monkeypatch,
                                                 extra, message):
        # Every run starts its lanes through open_lanes.
        calls = []
        open_lanes = training.open_lanes
        monkeypatch.setattr(training, "open_lanes",
                            lambda n_tasks: calls.append(n_tasks) or open_lanes(n_tasks))
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            SMALL_EXPERIMENT.replace("data.n_instances=200", "data.n_instances=8") + extra
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
        assert f"error: {message}\n" == capsys.readouterr().err
        assert calls == [] and not out.exists()
        # The control: the same spy sees a run that plans.
        cfg.write_text(SMALL_EXPERIMENT + extra)
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert calls == [4]

    @pytest.mark.parametrize("variant", ["btw_local", "unweighted"])
    def test_empty_train_split_is_a_usage_error(self, tmp_path, capsys, variant):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(EMPTY_TRAIN.replace("variant=btw\n", f"variant={variant}\n"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == \
            "error: training needs at least 1 instances; the train split has 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("lr=nan", "lr must be finite"),
        ("lr=inf", "lr must be finite"),
        ("lr=-0.1", "lr must be > 0"),
        ("variant=bogus", "unknown variant 'bogus' (choose from unweighted, btw_local, "
                          "btw_global_kl, btw_global_mi, btw)"),
    ])
    def test_out_of_range_value_is_a_usage_error(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        key = line.split("=")[0] + "="
        kept = [row for row in SMALL_EXPERIMENT.splitlines() if not row.startswith(key)]
        cfg.write_text("\n".join(kept + [line]) + "\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["alpha.init", "alpha.step", "alpha.min", "alpha.max"])
    def test_smoothing_schedule_is_not_a_config_field(self, tmp_path, capsys, key):
        cfg = tmp_path / "alpha.cfg"
        cfg.write_text(SMALL_EXPERIMENT + f"{key}=0.5\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
        line = len(SMALL_EXPERIMENT.splitlines()) + 1
        assert capsys.readouterr().err == f"error: line {line}: unknown field '{key}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("meta", [None, "{"])  # no dataset there; malformed meta.json
    def test_unreadable_data_path_is_a_usage_error(self, tmp_path, capsys, meta):
        data = tmp_path / "data"
        if meta is not None:
            data.mkdir()
            (data / "meta.json").write_text(meta)
        cfg = tmp_path / "path.cfg"
        cfg.write_text(f"variant=btw\ndata.path={data}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(data) in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("n_experts", 8), ("embed_dim", 8), ("top_k", 1),
                                            ("expert_hidden", 8), ("n_moe_layers", 2)])
    def test_moe_key_with_a_data_path_trains(self, dataset_cfg, tmp_path, key, value):
        data = tmp_path / "data"
        assert main(["gen-data", "--config", str(dataset_cfg), "--out", str(data)]) == EXIT_OK
        cfg = tmp_path / "path.cfg"
        cfg.write_text(f"variant=btw\nepochs.unimodal=1\nepochs.warm=1\nepochs.weighted=1\n"
                       f"data.path={data}\nmoe.{key}={value}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        model = load_checkpoint(out / "checkpoints" / "final.btwm").config
        assert getattr(model, key) == value
        assert model.input_dims == (5, 5)

    def test_every_architecture_option_has_a_moe_key(self):
        # Every MoeConfig field the data do not state is an option that
        # ExperimentConfig mirrors as moe_<name>; without its mirror no
        # config key could set it.
        mirrors = {f.name for f in dataclasses.fields(training.ExperimentConfig)
                   if f.name.startswith("moe_")}
        options = {f.name for f in dataclasses.fields(MoeConfig)} - {
            "input_dims", "task", "n_classes"}
        assert mirrors == {f"moe_{name}" for name in options}

    def test_a_data_path_states_the_task_and_class_count(self, dataset_cfg, tmp_path):
        # The inline data.* keys of a data.path config feed only gen-data:
        # the model takes the saved dataset's task and class count.
        dataset_cfg.write_text(SMALL_DATASET.replace(
            "data.task=regression", "data.task=classification\ndata.n_classes=3"))
        data = tmp_path / "data"
        assert main(["gen-data", "--config", str(dataset_cfg), "--out", str(data)]) == EXIT_OK
        cfg = tmp_path / "path.cfg"
        regression_keys = [line for line in SMALL_DATASET.splitlines() if line.startswith("data.")]
        cfg.write_text("\n".join(["variant=btw", "epochs.unimodal=1", "epochs.warm=1",
                                  "epochs.weighted=1", "moe.embed_dim=8", f"data.path={data}",
                                  *regression_keys]))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "metrics.json").read_text())["task"] == "classification"
        model = load_checkpoint(out / "checkpoints" / "final.btwm").config
        assert (model.task, model.n_classes, model.input_dims) == ("classification", 3, (5, 5))
        assert model.embed_dim == 8

    @pytest.mark.parametrize("damage, culprit", [
        (lambda data, meta: meta["spec"].update(bogus=1), "meta.json"),
        (lambda data, meta: meta.pop("modality_files"), "meta.json"),
        (lambda data, meta: (data / "modality_1.bin").write_bytes(b"\x02\x00"), "modality_1.bin"),
        (lambda data, meta: (data / "targets.bin").write_bytes(
            (data / "targets.bin").read_bytes()[:-3]), "targets.bin"),
        (lambda data, meta: meta["split_tags"].pop(), "modality_0.bin"),
    ], ids=["unknown-spec-key", "missing-meta-key", "truncated-header", "truncated-payload",
            "row-count"])
    def test_malformed_dataset_is_a_usage_error(self, dataset_cfg, tmp_path, capsys, damage,
                                                culprit):
        data = tmp_path / "data"
        assert main(["gen-data", "--config", str(dataset_cfg), "--out", str(data)]) == EXIT_OK
        meta = json.loads((data / "meta.json").read_text())
        damage(data, meta)
        (data / "meta.json").write_text(json.dumps(meta))
        cfg = tmp_path / "path.cfg"
        cfg.write_text(f"variant=btw\ndata.path={data}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(data / culprit) in err
        assert not out.exists()

    def test_split_fractions_on_a_stored_split_is_a_usage_error(self, dataset_cfg, tmp_path,
                                                                 capsys):
        dataset_cfg.write_text(SMALL_DATASET.replace("0.7,0.15,0.15", "0.6,0.2,0.2"))
        data = tmp_path / "data"
        assert main(["gen-data", "--config", str(dataset_cfg), "--out", str(data)]) == EXIT_OK
        cfg = tmp_path / "path.cfg"
        cfg.write_text(f"variant=unweighted\nepochs.warm=1\nepochs.weighted=0\n"
                       f"data.path={data}\nsplit.fractions=0.34,0.33,0.33\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "split.fractions (0.34, 0.33, 0.33)" in err
        assert f"stored split (0.6, 0.2, 0.2) of dataset {data}" in err
        assert not out.exists()
        # Without split.fractions the stored split is used.
        cfg.write_text(cfg.read_text().replace("split.fractions=0.34,0.33,0.33\n", ""))
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        resolved = training.resolve_dataset(load_experiment_config(cfg))
        assert np.array_equal(resolved.split_tags, load_dataset(data).split_tags)

    def test_unsplit_dataset_trains_like_its_inline_spec(self, tmp_path):
        # gen-data on an experiment config without split.fractions saves an
        # unsplit dataset; train then splits it as it splits the inline spec.
        text = SMALL_EXPERIMENT.replace("seed=0\n", "seed=5\n", 1)
        inline_cfg = tmp_path / "inline.cfg"
        inline_cfg.write_text(text)
        data = tmp_path / "data"
        assert main(["gen-data", "--config", str(inline_cfg), "--out", str(data)]) == EXIT_OK
        assert not (load_dataset(data).split_tags > 0).any()
        path_cfg = tmp_path / "path.cfg"
        path_cfg.write_text("".join(f"{line}\n" for line in text.splitlines()
                                    if not line.startswith("data.")) + f"data.path={data}\n")
        runs = [tmp_path / "inline", tmp_path / "path"]
        for cfg, out in zip((inline_cfg, path_cfg), runs):
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for name in ("records.csv", "weights_trajectory.csv", "metrics.json",
                     "checkpoints/final.btwm"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_divergence_on_a_phase_last_step_names_phase_and_epoch(self, tmp_path, capsys):
        # One SGD step per epoch (140 training rows, batch 256): the step
        # diverges and the first pass to see it is the prediction pass after it.
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(SMALL_EXPERIMENT.replace("lr=0.02", "lr=1e150")
                       .replace("batch_size=64", "batch_size=256")
                       .replace("epochs.unimodal=2", "epochs.unimodal=1"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_TRAINING
        assert "phase 'unimodal[0]' at epoch 1" in capsys.readouterr().err
        assert not out.exists()

    def test_diverged_validation_loss_names_phase_and_epoch(self, tmp_path, capsys):
        # One SGD step per epoch: the warm step leaves the train loss finite
        # but the validation loss after it overflows.
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(SMALL_EXPERIMENT.replace("lr=0.02", "lr=1e50")
                       .replace("batch_size=64", "batch_size=256")
                       .replace("epochs.unimodal=2", "epochs.unimodal=1"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_TRAINING
        assert "phase 'warm' at epoch 1: loss diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_a_failure_in_a_child_lane_names_its_model(self, tmp_path, capsys, monkeypatch):
        # With two usable cores the models of widths 4 and 6 train in a forked
        # child and the width-8 model and the warm phase here.
        train_one_epoch = training._train_one_epoch

        def failing_on_width_6(params, *args, **kwargs):
            if params.config.input_dims == (6,):
                raise NumericOverflowError("loss diverged to inf")
            return train_one_epoch(params, *args, **kwargs)

        monkeypatch.setattr(training, "_train_one_epoch", failing_on_width_6)
        cfg = tmp_path / "widths.cfg"
        cfg.write_text(SMALL_EXPERIMENT.replace("data.modality_dims=6,6,6",
                                                "data.modality_dims=4,6,8"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_TRAINING
        assert capsys.readouterr().err == (
            "error: training failed in phase 'unimodal[1]' at epoch 1: loss diverged to inf\n"
        )
        assert not out.exists()

    def test_plans_its_run_once(self, experiment_cfg, tmp_path, monkeypatch):
        calls = []
        resolve_dataset = training.resolve_dataset
        monkeypatch.setattr(training, "resolve_dataset",
                            lambda config: calls.append(config) or resolve_dataset(config))
        out = tmp_path / "run"
        assert main(["train", "--config", str(experiment_cfg), "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1

    def test_unweighted_records_cover_folded_schedule(self, tmp_path):
        cfg = tmp_path / "unweighted.cfg"
        cfg.write_text(SMALL_EXPERIMENT.replace("variant=btw", "variant=unweighted"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        with open(out / "records.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 3  # header + (warm 1 + folded 2)


class TestCompare:
    def test_single_variant_single_seed_has_zero_std(self, experiment_cfg, tmp_path):
        out = tmp_path / "cmp"
        assert main([
            "compare", "--config", str(experiment_cfg),
            "--variants", "unweighted", "--seeds", "0", "--out", str(out),
        ]) == EXIT_OK
        with open(out / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        header, row = rows[0], rows[1]
        assert row[header.index("variant")] == "unweighted"
        std_cols = [i for i, h in enumerate(header) if h.endswith("_std")]
        assert all(float(row[i]) == 0.0 for i in std_cols)

    def test_multi_seed_grid(self, experiment_cfg, tmp_path):
        out = tmp_path / "cmp"
        assert main([
            "compare", "--config", str(experiment_cfg),
            "--variants", "unweighted,btw_local", "--seeds", "0,1", "--out", str(out),
        ]) == EXIT_OK
        with open(out / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert (out / "btw_local" / "seed_1" / "records.csv").exists()

    def test_unknown_variant_is_a_usage_error(self, experiment_cfg, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main([
            "compare", "--config", str(experiment_cfg),
            "--variants", "btw,bogus", "--seeds", "0", "--out", str(out),
        ]) == EXIT_PARSE
        assert "error: unknown variant 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stored_split", [True, False], ids=["stored-split", "missing-path"])
    def test_data_error_every_cell_hits_exits_2(self, dataset_cfg, tmp_path, capsys,
                                                 stored_split):
        data = tmp_path / "data"
        if stored_split:
            dataset_cfg.write_text(SMALL_DATASET.replace("0.7,0.15,0.15", "0.6,0.2,0.2"))
            assert main(["gen-data", "--config", str(dataset_cfg), "--out", str(data)]) \
                == EXIT_OK
        cfg = tmp_path / "path.cfg"
        cfg.write_text(f"variant=btw\ndata.path={data}\nsplit.fractions=0.34,0.33,0.33\n")
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--variants", "unweighted,btw",
                     "--seeds", "0,1", "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(data) in err and "failed:" not in err
        assert not out.exists()

    def test_split_error_every_cell_hits_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SMALL_EXPERIMENT.replace("data.n_instances=200", "data.n_instances=8"))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--variants", "unweighted,btw",
                     "--seeds", "0", "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == \
            "error: regression metrics need at least 2 instances; the val split has 1\n"
        assert not out.exists()

    def test_empty_train_split_fails_every_plan_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(EMPTY_TRAIN)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--variants", "btw_local,unweighted",
                     "--seeds", "0", "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == \
            "error: training needs at least 1 instances; the train split has 0\n"
        assert not out.exists()

    def test_all_failed_grid_summary_has_no_metric_columns(self, tmp_path):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(SMALL_EXPERIMENT.replace("lr=0.02", "lr=1e150")
                       .replace("epochs.unimodal=2", "epochs.unimodal=1")
                       .replace("data.task=regression", "data.task=classification\n"
                                "data.n_classes=3"))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--variants", "unweighted,btw",
                     "--seeds", "0", "--out", str(out)]) == EXIT_PARTIAL_COMPARE
        assert (out / "summary.csv").read_text() == "variant,n_seeds\n"

    def test_partial_failure_exits_5_but_finishes_others(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        # Four train instances are enough to fit on but too few for the kNN
        # MI estimator (needs k+2=5), so btw fails while unweighted runs.
        cfg.write_text(
            SMALL_EXPERIMENT.replace("data.n_instances=200", "data.n_instances=8")
            + "split.fractions=0.5,0.25,0.25\n"
        )
        out = tmp_path / "cmp"
        status = main([
            "compare", "--config", str(cfg),
            "--variants", "unweighted,btw", "--seeds", "0", "--out", str(out),
        ])
        assert status == EXIT_PARTIAL_COMPARE
        with open(out / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2  # header + surviving unweighted row

    @pytest.mark.parametrize("variants, seeds, message", [
        ("unweighted,unweighted", "0,0", "--variants: repeated unweighted"),
        ("btw,unweighted,btw", "0", "--variants: repeated btw"),
        ("unweighted", "1,0,1", "--seeds: repeated 1"),
    ])
    def test_repeated_cell_is_a_usage_error(self, experiment_cfg, tmp_path, capsys,
                                            variants, seeds, message):
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(experiment_cfg), "--variants", variants,
                     "--seeds", seeds, "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_option_like_seeds_return_2(self, experiment_cfg, tmp_path, capsys):
        # "-1,0" is the value of --seeds, not an unknown option, so the seed
        # check names the bad seed, as it does for --seeds=-1,0.
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(experiment_cfg), "--variants", "btw",
                     "--seeds", "-1,0", "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_cell_error_of_another_kind_is_raised(self, experiment_cfg, tmp_path,
                                                     monkeypatch, cores):
        run_planned = cli.run_planned

        def broken(config, dataset):
            if config.seed == 0:
                raise RuntimeError("not a package error")
            return run_planned(config, dataset)

        monkeypatch.setattr(training, "_usable_cores", lambda: cores)
        if training._lane_count(2) < cores:
            pytest.skip("no safe fork here: one lane")
        monkeypatch.setattr(cli, "run_planned", broken)
        out = tmp_path / "cmp"
        # With two lanes, seed 0's cell runs in a child lane.
        with pytest.raises(RuntimeError, match="not a package error"):
            main(["compare", "--config", str(experiment_cfg), "--variants", "unweighted",
                  "--seeds", "0,1", "--out", str(out)])
        assert not (out / "summary.csv").exists()
        assert multiprocessing.active_children() == []

    def test_failed_cell_leaves_no_directory(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        # Too few train instances for the kNN MI estimator: the btw cell fails.
        cfg.write_text(
            SMALL_EXPERIMENT.replace("data.n_instances=200", "data.n_instances=8")
            + "split.fractions=0.5,0.25,0.25\n"
        )
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--variants", "unweighted,btw",
                     "--seeds", "0", "--out", str(out)]) == EXIT_PARTIAL_COMPARE
        assert not (out / "btw").exists()
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
        on_disk = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert on_disk == sorted(listed + ["manifest.json"])

    def test_core_count_changes_no_output_byte(self, experiment_cfg, tmp_path, monkeypatch):
        trees = {}
        for cores in (1, 2, 4):
            monkeypatch.setattr(training, "_usable_cores", lambda cores=cores: cores)
            out = tmp_path / str(cores)
            assert main(["compare", "--config", str(experiment_cfg), "--variants",
                         "unweighted,btw", "--seeds", "0,1", "--out", str(out)]) == EXIT_OK
            trees[cores] = {p.relative_to(out).as_posix(): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()}
        assert {"summary.csv", "manifest.json", "btw/seed_1/metrics.json"} <= set(trees[1])
        assert trees[2] == trees[1]
        assert trees[4] == trees[1]

    def test_plans_each_cell_once(self, experiment_cfg, tmp_path, monkeypatch):
        calls = []
        resolve_dataset = training.resolve_dataset
        monkeypatch.setattr(training, "resolve_dataset",
                            lambda config: calls.append(config) or resolve_dataset(config))
        assert main(["compare", "--config", str(experiment_cfg), "--variants",
                     "unweighted,btw", "--seeds", "0,1", "--out", str(tmp_path / "cmp")]) == EXIT_OK
        assert sorted((c.variant, c.seed) for c in calls) == [
            ("btw", 0), ("btw", 1), ("unweighted", 0), ("unweighted", 1)
        ]

    @pytest.mark.skipif(training._lane_count(2) < 2,
                        reason="one usable core, or no safe fork: one lane")
    def test_lanes_never_outnumber_the_cells(self, experiment_cfg, tmp_path, monkeypatch):
        # unweighted cells train nothing beside their warm epochs, so every
        # fork is a cell lane.
        forks = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(training, "_usable_cores", lambda: 64)
        monkeypatch.setattr(os, "fork", counting_fork)
        args = ["compare", "--config", str(experiment_cfg), "--variants", "unweighted"]
        assert main(args + ["--seeds", "0,1", "--out", str(tmp_path / "two")]) == EXIT_OK
        assert main(args + ["--seeds", "0", "--out", str(tmp_path / "one")]) == EXIT_OK
        assert len(forks) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(training._lane_count(2) < 2,
                        reason="one usable core, or no safe fork: one lane")
    def test_a_failed_write_on_a_cell_lane_exits_3(self, experiment_cfg, tmp_path,
                                                    monkeypatch, capsys):
        parent = os.getpid()
        write_metrics_report = reports.write_metrics_report

        def full_disk_in_a_child(*args):
            if os.getpid() != parent:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_metrics_report(*args)

        monkeypatch.setattr(training, "_usable_cores", lambda: 2)
        monkeypatch.setattr(reports, "write_metrics_report", full_disk_in_a_child)
        out = tmp_path / "cmp"
        # seed 0's cell runs on the child lane, seed 1's in this process.
        assert main(["compare", "--config", str(experiment_cfg), "--variants", "unweighted",
                     "--seeds", "0,1", "--out", str(out)]) == EXIT_OUTPUT_SAFETY
        assert capsys.readouterr().err == (
            f"error: output path {out / 'unweighted' / 'seed_0'}: "
            f"{os.strerror(errno.ENOSPC)}\n")
        assert not (out / "summary.csv").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(training._lane_count(2) < 2,
                        reason="one usable core, or no safe fork: one lane")
    def test_a_cell_lane_that_dies_fails_as_its_first_cell(self, experiment_cfg, tmp_path,
                                                            monkeypatch, capsys):
        parent = os.getpid()
        run_planned = cli.run_planned

        def dying(config, dataset):
            if os.getpid() != parent:
                os._exit(3)
            return run_planned(config, dataset)

        monkeypatch.setattr(training, "_usable_cores", lambda: 2)
        monkeypatch.setattr(cli, "run_planned", dying)
        out = tmp_path / "cmp"
        # seed 0's lane is a child, which dies; seed 1 runs in this process.
        assert main(["compare", "--config", str(experiment_cfg), "--variants", "unweighted",
                     "--seeds", "0,1", "--out", str(out)]) == EXIT_PARTIAL_COMPARE
        assert capsys.readouterr().err == (
            "failed: unweighted seed 0: training failed in phase 'unweighted/seed_0' at "
            "epoch 0: its process exited with code 3 before reporting\n"
        )
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["variant"], row["n_seeds"]) for row in rows] == [("unweighted", "1")]
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
        assert "unweighted/seed_1/metrics.json" in listed
        assert not (out / "unweighted" / "seed_0").exists()
        assert multiprocessing.active_children() == []
