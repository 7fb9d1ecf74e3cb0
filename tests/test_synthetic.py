"""Synthetic dataset generation, splitting, and serialization."""

import json
import re
import struct

import numpy as np
import pytest

from btwmoe.errors import InvalidInputError
from btwmoe.metrics import mae
from btwmoe.moe import (
    MoeConfig,
    init_params,
    load_checkpoint,
    read_tensor_records,
    save_checkpoint,
    write_tensor_record,
)
from btwmoe.synthetic import (
    Dataset,
    SyntheticSpec,
    generate,
    load_dataset,
    save_dataset,
    split,
)


def checkpoint_file(tmp_path):
    """A final.btwm, its loader, and the offset of its first tensor record."""
    path = tmp_path / "final.btwm"
    config = MoeConfig(input_dims=(3, 2), embed_dim=4, n_experts=2, top_k=1, expert_hidden=5)
    save_checkpoint(init_params(config, 0), path)
    return path, load_checkpoint, 12 + struct.unpack_from("<I", path.read_bytes(), 8)[0]


def dataset_file(tmp_path):
    """A dataset .bin, its directory's loader, and the offset of its record."""
    data = tmp_path / "data"
    save_dataset(generate(base_spec(n_instances=10, modality_dims=(3,), informativeness=(1.0,))),
                 data)
    return data / "modality_0.bin", lambda _path: load_dataset(data), 0


def with_config(raw: bytes, edit) -> bytes:
    """A checkpoint's bytes with its config block replaced by edit(block)."""
    cfg_len = struct.unpack_from("<I", raw, 8)[0]
    cfg = edit(raw[12 : 12 + cfg_len])
    return raw[:8] + struct.pack("<I", len(cfg)) + cfg + raw[12 + cfg_len :]


DAMAGE = {
    "truncated-record-header": lambda raw, start: raw[: start + 2],
    "truncated-payload": lambda raw, start: raw[:-3],
    "trailing-bytes": lambda raw, start: raw + bytes(8),
    # Checkpoint header damage:
    "truncated-file-header": lambda raw, start: raw[:10],
    "undecodable-config": lambda raw, start: with_config(raw, lambda cfg: cfg[:-1]),
    "unknown-config-key": lambda raw, start: with_config(
        raw, lambda cfg: json.dumps({**json.loads(cfg), "bogus": 1}).encode()),
    "other-activation": lambda raw, start: with_config(
        raw, lambda cfg: json.dumps({**json.loads(cfg), "activation": "relu"}).encode()),
}


def base_spec(**overrides):
    kwargs = dict(
        n_instances=2000,
        modality_dims=(16, 16),
        informativeness=(1.0, 0.0),
        noise_sigma=0.0,
        task="regression",
        seed=0,
    )
    kwargs.update(overrides)
    return SyntheticSpec(**kwargs)


class TestSpecValidation:
    def test_informativeness_length_must_match(self):
        with pytest.raises(InvalidInputError, match="informativeness length must equal"):
            base_spec(informativeness=(1.0,))

    def test_needs_one_informative_modality(self):
        with pytest.raises(InvalidInputError, match="at least one modality must have"):
            base_spec(informativeness=(0.0, 0.0))

    def test_classification_needs_classes(self):
        with pytest.raises(InvalidInputError, match="classification needs 2 <= n_classes"):
            base_spec(task="classification", n_classes=1)

    def test_round_trips_through_dict(self):
        spec = base_spec(task="classification", n_classes=4, class_priors=(0.4, 0.3, 0.2, 0.1))
        assert SyntheticSpec(**spec.to_dict()) == spec


class TestGenerate:
    def test_fully_informative_modality_determines_target(self):
        ds = generate(base_spec())
        x = np.hstack([ds.features[0], np.ones((ds.n_instances, 1))])
        coef, *_ = np.linalg.lstsq(x, ds.targets, rcond=None)
        assert np.mean((x @ coef - ds.targets) ** 2) < 1e-10

    def test_noise_modality_uncorrelated_with_target(self):
        ds = generate(base_spec())
        for j in range(ds.features[1].shape[1]):
            corr = np.corrcoef(ds.features[1][:, j], ds.targets)[0, 1]
            assert abs(corr) < 0.1

    def test_quantile_binning_is_balanced(self):
        spec = base_spec(
            n_instances=4000,
            informativeness=(0.9, 0.5),
            task="classification",
            n_classes=4,
            seed=1,
        )
        counts = np.bincount(generate(spec).targets)
        assert np.all(np.abs(counts - 1000) <= 1)

    def test_class_priors_shape_the_bins(self):
        spec = base_spec(
            n_instances=4000,
            informativeness=(0.9, 0.5),
            task="classification",
            n_classes=4,
            class_priors=(0.5, 0.25, 0.15, 0.1),
            seed=1,
        )
        counts = np.bincount(generate(spec).targets)
        np.testing.assert_allclose(counts / 4000, [0.5, 0.25, 0.15, 0.1], atol=0.01)

    def test_determinism(self):
        a, b = generate(base_spec(seed=11)), generate(base_spec(seed=11))
        for fa, fb in zip(a.features, b.features):
            assert np.array_equal(fa, fb)
        assert np.array_equal(a.targets, b.targets)


class TestSplit:
    def test_exact_sizes(self):
        ds = generate(base_spec(n_instances=1000))
        tagged = split(ds, (0.8, 0.1, 0.1), seed=5)
        sizes = [tagged.indices(name).size for name in ("train", "val", "test")]
        assert sizes == [800, 100, 100]

    def test_same_seed_same_assignment(self):
        ds = generate(base_spec(n_instances=500))
        t1 = split(ds, (0.7, 0.15, 0.15), seed=9)
        t2 = split(ds, (0.7, 0.15, 0.15), seed=9)
        assert np.array_equal(t1.split_tags, t2.split_tags)

    def test_zero_fraction_rejected(self):
        ds = generate(base_spec(n_instances=100))
        with pytest.raises(InvalidInputError):
            split(ds, (1.0, 0.0, 0.0), seed=0)

    def test_tags_partition_instances(self):
        ds = split(generate(base_spec(n_instances=321)), (0.6, 0.2, 0.2), seed=2)
        total = sum(ds.indices(name).size for name in ("train", "val", "test"))
        assert total == 321


class TestSerialization:
    def test_matrix_round_trip(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((7, 3))
        path = tmp_path / "m.bin"
        with open(path, "wb") as fh:
            write_tensor_record(fh, arr)
        assert np.array_equal(read_tensor_records(path, path.read_bytes(), 0, 1)[0], arr)

    @pytest.mark.parametrize("make_file, damage", [
        *[(make, damage) for make in (checkpoint_file, dataset_file)
          for damage in ("truncated-record-header", "truncated-payload", "trailing-bytes")],
        *[(checkpoint_file, damage) for damage in
          ("truncated-file-header", "undecodable-config", "unknown-config-key",
           "other-activation")],
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_damaged_file_names_the_file(self, tmp_path, make_file, damage):
        path, load, start = make_file(tmp_path)
        path.write_bytes(DAMAGE[damage](path.read_bytes(), start))
        with pytest.raises(InvalidInputError, match=re.escape(str(path))):
            load(path)

    @pytest.mark.parametrize("name, index, value", [
        ("targets.bin", 3, 7.0),  # past the last of 4 classes
        ("targets.bin", 3, -1.0),
        ("targets.bin", 3, 2.5),
        ("targets.bin", 3, np.nan),
        ("modality_1.bin", (4, 2), np.nan),
        ("modality_0.bin", (0, 0), np.inf),
    ], ids=["label-past-last-class", "negative-label", "non-integer-label", "nan-label",
            "nan-feature", "inf-feature"])
    def test_tampered_value_names_the_file(self, tmp_path, name, index, value):
        data = tmp_path / "data"
        spec = base_spec(n_instances=40, informativeness=(0.9, 0.5), task="classification",
                         n_classes=4)
        save_dataset(generate(spec), data)
        path = data / name
        mat = read_tensor_records(path, path.read_bytes(), 0, 1)[0]
        mat[index] = value
        with open(path, "wb") as fh:
            write_tensor_record(fh, mat)
        with pytest.raises(InvalidInputError, match=re.escape(f"dataset file {path} holds")):
            load_dataset(data)

    @pytest.mark.parametrize("tag", [3, -1, 0.5], ids=["3", "-1", "0.5"])
    def test_split_tag_outside_the_three_splits_names_the_file(self, tmp_path, tag):
        data = tmp_path / "data"
        save_dataset(split(generate(base_spec(n_instances=40)), (0.7, 0.15, 0.15), 3), data)
        meta = json.loads((data / "meta.json").read_text())
        meta["split_tags"][5] = tag
        (data / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(InvalidInputError, match=re.escape(f"{data / 'meta.json'} has split")):
            load_dataset(data)

    def test_dataset_round_trip(self, tmp_path):
        ds = split(generate(base_spec(n_instances=200, noise_sigma=0.2)), (0.7, 0.15, 0.15), 3)
        save_dataset(ds, tmp_path / "data")
        loaded = load_dataset(tmp_path / "data")
        for fa, fb in zip(ds.features, loaded.features):
            assert np.array_equal(fa, fb)
        assert np.array_equal(ds.targets, loaded.targets)
        assert np.array_equal(ds.split_tags, loaded.split_tags)
        assert loaded.spec == ds.spec

    def test_classification_targets_restored_as_ints(self, tmp_path):
        spec = base_spec(
            n_instances=100, informativeness=(0.9, 0.5), task="classification", n_classes=3
        )
        save_dataset(generate(spec), tmp_path / "data")
        loaded = load_dataset(tmp_path / "data")
        assert loaded.targets.dtype == np.int64


class TestModelFacingProperties:
    """Statistical behaviors that require training small models."""

    def test_monotone_informativeness(self):
        # A unimodal model on a 0.9-informative modality must beat one on a
        # 0.1-informative modality, for every one of 5 seeds.
        from btwmoe.moe import DataBatch, forward
        from btwmoe.training import ExperimentConfig, plan, train_unimodal_all

        wins = 0
        for seed in range(5):
            spec = SyntheticSpec(
                n_instances=2000,
                modality_dims=(16, 16),
                informativeness=(0.9, 0.1),
                noise_sigma=0.5,
                task="regression",
                seed=seed,
            )
            cfg = ExperimentConfig(
                variant="unweighted", data=spec, seed=seed, epochs_unimodal=6,
                epochs_warm=0, epochs_weighted=0,
            )
            dataset = plan(cfg)
            models, _uni_train = train_unimodal_all(cfg, dataset)
            val = dataset.batch("val")
            mae_strong = mae(forward(models[0], DataBatch([val.features[0]]))[0], val.targets)
            mae_weak = mae(forward(models[1], DataBatch([val.features[1]]))[0], val.targets)
            wins += int(mae_strong < mae_weak)
        assert wins == 5

    def test_noise_modality_has_smaller_mi(self):
        # With informativeness (0.9, 0.0), the noise modality's MI with the
        # multimodal predictions is the smaller one in >= 9 of 10 seeds.
        from btwmoe.mi import ksg_mi
        from btwmoe.training import (
            ExperimentConfig,
            plan,
            train_multimodal_warm,
            train_unimodal_all,
            _collect_predictions,
        )

        hits = 0
        for seed in range(10):
            spec = SyntheticSpec(
                n_instances=1000,
                modality_dims=(16, 16),
                informativeness=(0.9, 0.0),
                noise_sigma=0.5,
                task="regression",
                seed=seed,
            )
            cfg = ExperimentConfig(
                variant="unweighted", data=spec, seed=seed, epochs_unimodal=5,
                epochs_warm=3, epochs_weighted=0,
            )
            dataset = plan(cfg)
            _models, uni_train = train_unimodal_all(cfg, dataset)
            params, _records, _rng = train_multimodal_warm(cfg, dataset, 3)
            multi = _collect_predictions(params, dataset.batch("train"))
            mi = [
                ksg_mi(uni_train[m], multi, jitter_seed=seed)
                for m in range(2)
            ]
            hits += int(mi[1] < mi[0])
        assert hits >= 9
