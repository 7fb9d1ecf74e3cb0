"""Command-line surface: exit codes, file outputs, manifests, determinism."""

import csv
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from btwmoe import cli, training
from btwmoe.cli import (
    EXIT_OK,
    EXIT_OUTPUT_SAFETY,
    EXIT_PARSE,
    EXIT_PARTIAL_COMPARE,
    EXIT_TRAINING,
    main,
)
from btwmoe.config import (
    _EXPERIMENT_KEYS,
    build_experiment_config,
    load_experiment_config,
    parse_config_text,
)
from btwmoe.errors import ConfigParseError, InvalidInputError, NumericOverflowError
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
        with pytest.raises(ConfigParseError, match="frobnicate"):
            parse_config_text("frobnicate=1")

    def test_malformed_value_names_line_and_field(self):
        with pytest.raises(ConfigParseError, match="line 2.*lr"):
            parse_config_text("variant=btw\nlr=fast")

    def test_comments_and_blank_lines_ignored(self):
        values = parse_config_text("# comment\n\nvariant=btw  # trailing\n")
        assert values == {"variant": "btw"}

    def test_duplicate_field_rejected(self):
        with pytest.raises(ConfigParseError, match="duplicate"):
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
            "alpha.init": ("alpha_init", "0.3", 0.3),
            "alpha.step": ("alpha_step", "0.2", 0.2),
            "alpha.min": ("alpha_min", "0.05", 0.05),
            "alpha.max": ("alpha_max", "0.95", 0.95),
            "split.fractions": ("split_fractions", "0.6,0.2,0.2", (0.6, 0.2, 0.2)),
        }
        assert set(cases) == {
            k for k in _EXPERIMENT_KEYS if not k.startswith(("moe.", "data."))
        }
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

    @pytest.mark.parametrize("fractions, meta_sha256", [
        ("split.fractions=0.7,0.15,0.15\n",
         "c8d7d0bfa8043467adbd9d14b145db8f39cc11e51a2fc539b93e3dd579c96a4c"),
        ("", "14696819b256cc9d4466661616785253e7449f5aacfb3913aa78cfafef4190cf"),
    ], ids=["split", "unsplit"])
    def test_dataset_bytes_pinned(self, dataset_cfg, tmp_path, fractions, meta_sha256):
        # Tensor records of the .bin files and the meta.json text, as the
        # dataset format has always written them.
        dataset_cfg.write_text(SMALL_DATASET.replace("split.fractions=0.7,0.15,0.15\n",
                                                     fractions))
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(dataset_cfg), "--out", str(out)]) == EXIT_OK
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("meta.json", "modality_0.bin", "modality_1.bin", "targets.bin")}
        assert digests == {
            "meta.json": meta_sha256,
            "modality_0.bin": "5d9cef90fd0a656b8347569ae429554de42d9a54f86f8f3c875f8d7f8e9e9926",
            "modality_1.bin": "a3c3c9ccddd0b5805e068c6bf2c59b7b98e94cd73dda1514533d97ce9ab29320",
            "targets.bin": "1bb7c75ee14bc6c154dbb1e8af519fa917c986713e950e65730169342e507c2c",
        }

    def test_config_without_data_spec_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "path.cfg"
        cfg.write_text(f"variant=btw\ndata.path={tmp_path}\n")
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) \
            == EXIT_PARSE
        assert "missing data spec" in capsys.readouterr().err


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
def test_missing_config_file_exits_2(tmp_path, capsys, command):
    config = tmp_path / "absent.cfg"
    assert main(command_args(command, config, tmp_path / "out")) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {config}") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_training_failure_exits_4(self, tmp_path):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(SMALL_EXPERIMENT.replace("lr=0.02", "lr=500.0"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_TRAINING

    def test_weighting_error_is_a_training_failure(self, experiment_cfg, tmp_path, capsys,
                                                   monkeypatch):
        def failing_kl(preds):
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
        calls = []
        run_lanes = training._run_lanes
        monkeypatch.setattr(training, "_run_lanes",
                            lambda *args: calls.append(args) or run_lanes(*args))
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            SMALL_EXPERIMENT.replace("data.n_instances=200", "data.n_instances=8") + extra
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_PARSE
        assert f"error: {message}\n" == capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("lr=nan", "lr must be finite"),
        ("lr=inf", "lr must be finite"),
        ("lr=-0.1", "lr must be > 0"),
        ("alpha.step=-0.5", "alpha_step must be >= 0"),
        ("alpha.step=nan", "alpha_step must be finite"),
        ("alpha.max=inf", "alpha_max must be finite"),
        ("alpha.min=0.6", "alpha_min <= alpha_init"),
        ("alpha.init=0.95", "alpha_init <= alpha_max"),
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
        text = "".join(f"{line}\n" for line in SMALL_EXPERIMENT.splitlines()
                       if not line.startswith("moe.")).replace("seed=0\n", "seed=5\n", 1)
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

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
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

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
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

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
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

    def test_parallel_jobs_match_sequential(self, experiment_cfg, tmp_path):
        out_seq, out_par = tmp_path / "seq", tmp_path / "par"
        args = ["compare", "--config", str(experiment_cfg),
                "--variants", "unweighted,btw", "--seeds", "0,1"]
        assert main(args + ["--out", str(out_seq)]) == EXIT_OK
        assert main(args + ["--out", str(out_par), "--jobs", "4"]) == EXIT_OK
        assert (out_seq / "summary.csv").read_bytes() == (out_par / "summary.csv").read_bytes()

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

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_usage_error(self, experiment_cfg, tmp_path, capsys, jobs):
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(experiment_cfg), "--variants", "unweighted",
                     "--seeds", "0", "--out", str(out), "--jobs", jobs]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: --jobs must be >= 1\n"
        assert not out.exists()

    def test_pool_never_outnumbers_the_cells(self, experiment_cfg, tmp_path, monkeypatch):
        # Runs the cells in this process and records the pool size asked for:
        # a real pool with the fork start method starts every worker up front.
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlineExecutor)
        args = ["compare", "--config", str(experiment_cfg), "--variants", "unweighted",
                "--jobs", "64"]
        assert main(args + ["--seeds", "0,1", "--out", str(tmp_path / "two")]) == EXIT_OK
        assert main(args + ["--seeds", "0", "--out", str(tmp_path / "one")]) == EXIT_OK
        assert sizes == [2]
