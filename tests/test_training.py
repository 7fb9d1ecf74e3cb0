"""Three-phase orchestration: schedules, hooks, equivalences, determinism."""

import hashlib
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import uniform_mi, unit_weight_smoothing
from reference import run_reference

from btwmoe import training
from btwmoe.errors import InvalidInputError, NumericOverflowError, TrainingFailureError
from btwmoe.metrics import mae
from btwmoe.mi import ksg_mi
from btwmoe.moe import DataBatch, forward, init_params
from btwmoe.reports import export_result
from btwmoe.synthetic import SyntheticSpec, generate, save_dataset
from btwmoe.training import (
    EpochRecord,
    ExperimentConfig,
    plan,
    resolve_dataset,
    run_experiment,
    smoothing_metric,
    train_unimodal_all,
)
from btwmoe.weighting import ALPHA_INIT, validate_weight_matrix


def small_config(**overrides):
    spec_overrides = overrides.pop("spec", {})
    spec_kwargs = dict(
        n_instances=300,
        modality_dims=(8, 8, 8),
        informativeness=(0.9, 0.5, 0.0),
        noise_sigma=1.0,
        task="regression",
        seed=0,
    )
    spec_kwargs.update(spec_overrides)
    spec = SyntheticSpec(**spec_kwargs)
    kwargs = dict(
        variant="btw",
        data=spec,
        moe_embed_dim=8,
        moe_expert_hidden=16,
        seed=0,
        lr=0.02,
        batch_size=64,
        epochs_unimodal=3,
        epochs_warm=2,
        epochs_weighted=3,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestConfigValidation:
    def test_unknown_variant(self):
        with pytest.raises(InvalidInputError):
            small_config(variant="btw_extreme")

    def test_needs_data(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(variant="btw", data=None, data_path=None)


class TestSchedules:
    def test_record_count_is_warm_plus_weighted(self):
        result = run_experiment(small_config())
        assert len(result.records) == 2 + 3
        assert [r.phase for r in result.records] == ["warm"] * 2 + ["weighted"] * 3

    def test_unweighted_folds_weighted_epochs_into_warm(self):
        result = run_experiment(small_config(variant="unweighted"))
        assert len(result.records) == 2 + 3
        assert all(r.phase == "warm" for r in result.records)

    def test_zero_unimodal_epochs_still_wellformed(self):
        result = run_experiment(small_config(epochs_unimodal=0))
        assert len(result.weight_matrices) == 3
        for w in result.weight_matrices:
            validate_weight_matrix(w)

    def test_zero_warm_epochs_uses_initialized_model(self):
        result = run_experiment(small_config(epochs_warm=0, epochs_weighted=2))
        assert len(result.records) == 2

    def test_weighted_phase_rejected_for_unweighted_variant(self):
        from btwmoe.training import run_weighted_phase

        with pytest.raises(InvalidInputError):
            run_weighted_phase(small_config(variant="unweighted"), None, None, None, None, None, 1)


class TestSingleModalityDegeneracy:
    def test_unimodal_equals_multimodal_bitwise(self):
        cfg = small_config(
            spec=dict(modality_dims=(8,), informativeness=(0.9,)),
            moe_embed_dim=32,
            moe_expert_hidden=64,
            variant="unweighted",
            epochs_unimodal=3,
            epochs_warm=3,
            epochs_weighted=0,
        )
        dataset = plan(cfg)
        models, uni_train = train_unimodal_all(cfg, dataset)

        from btwmoe.training import train_multimodal_warm, _collect_predictions

        multi_params, _records, _rng = train_multimodal_warm(cfg, dataset, 3)
        multi = _collect_predictions(multi_params, dataset.batch("train"))
        assert np.array_equal(uni_train[0], multi)


class TestDeterminism:
    def test_repeated_runs_are_bit_identical(self):
        cfg = small_config()
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        for a, b in zip(r1.records, r2.records):
            assert a.train_loss == b.train_loss
            assert a.val_loss == b.val_loss
            assert a.val_metrics == b.val_metrics
            assert np.array_equal(a.mean_weights, b.mean_weights)
        for wa, wb in zip(r1.weight_matrices, r2.weight_matrices):
            assert np.array_equal(wa, wb)
        assert r1.test_bundle == r2.test_bundle


class TestEquationReductionHooks:
    # The hooks are fakes monkeypatched into training; neither touches the
    # training RNG stream.
    def test_uniform_mi_reduces_btw_to_btw_local(self, monkeypatch):
        base = small_config()
        r_local = run_experiment(replace(base, variant="btw_local"))
        monkeypatch.setattr(training, "modality_mi", uniform_mi)
        r_btw = run_experiment(replace(base, variant="btw"))
        assert len(r_btw.weight_matrices) == len(r_local.weight_matrices)
        for wa, wb in zip(r_btw.weight_matrices, r_local.weight_matrices):
            assert np.array_equal(wa, wb)

    def test_unit_weight_hook_matches_unweighted_baseline(self, monkeypatch):
        base = small_config()
        r_base = run_experiment(replace(base, variant="unweighted"))
        monkeypatch.setattr(training, "smooth_update", unit_weight_smoothing(training.smooth_update))
        r_hooked = run_experiment(replace(base, variant="btw_local"))
        for a, b in zip(r_hooked.records, r_base.records):
            assert a.train_loss == b.train_loss
            assert a.val_loss == b.val_loss
        for (_, pa), (_, pb) in zip(
            r_hooked.final_params.tensors(), r_base.final_params.tensors()
        ):
            assert np.array_equal(pa, pb)


class TestWeightTrajectories:
    def test_mean_weights_bounded_and_normalized(self):
        result = run_experiment(small_config())
        for rec in result.records:
            assert np.all(rec.mean_weights >= 0) and np.all(rec.mean_weights <= 1)
            assert abs(rec.mean_weights.sum() - 1.0) <= 1e-6

    def test_alpha_stays_clamped_with_exact_steps(self):
        result = run_experiment(small_config(epochs_weighted=6))
        alphas = [ALPHA_INIT] + [r.alpha for r in result.weighted_records]
        for prev, cur in zip(alphas, alphas[1:]):
            assert 0.1 <= cur <= 0.9
            step = cur - prev
            assert min(abs(step), abs(step - 0.1), abs(step + 0.1)) < 1e-9

    def test_mi_recorded_per_weighted_epoch(self):
        result = run_experiment(small_config(variant="btw"))
        mi_by_epoch = [r.mi for r in result.weighted_records]
        assert len(mi_by_epoch) == 3
        for mi in mi_by_epoch:
            assert mi.shape == (3,) and np.all(mi >= 0)

    def test_global_variants_produce_constant_rows(self):
        for variant in ("btw_global_kl", "btw_global_mi"):
            result = run_experiment(small_config(variant=variant, epochs_weighted=1))
            w = result.weight_matrices[0]
            assert np.allclose(w, w[0][None, :], atol=1e-12)


class TestEvaluate:
    def test_all_ones_eval_weights_match_plain_forward(self):
        result = run_experiment(small_config(variant="unweighted"))
        test_batch = result.dataset.batch("test")
        plain = training._score(result.final_params, test_batch, None)
        ones = training._score(result.final_params, test_batch, np.ones(3))
        assert plain == ones

    def test_classification_bundle_keys(self):
        cfg = small_config(
            spec=dict(task="classification", n_classes=3),
            variant="btw",
        )
        result = run_experiment(cfg)
        assert set(result.test_bundle) == {"accuracy", "macro_f1", "weighted_f1"}
        assert 0 <= result.test_bundle["accuracy"] <= 1

    def test_smoothing_metric_per_task(self):
        assert smoothing_metric("regression", {"mae": 0.3, "acc2_nonzero": 0.7}) == 0.3
        assert smoothing_metric("classification", {"accuracy": 0.6, "weighted_f1": 0.4}) == -0.4


class TestUnimodalModels:
    # sha256 of the stacked train outputs, computed with each unimodal model
    # trained as a stream subset of the full multimodal model: the slice must
    # keep that model's random draws and batch order.
    @pytest.mark.parametrize("spec, digest", [
        ({}, "e61569aa85899be879906ebae6e78973faa93ef689b4df32b3aed832f82cb6ac"),
        (dict(task="classification", n_classes=3),
         "fa930deba5e48647f50e52dfbe7cd15e3852836f9ab4d10dda759792603c8f73"),
    ])
    def test_train_outputs_pinned(self, spec, digest):
        cfg = small_config(spec=spec)
        models, uni_train = train_unimodal_all(cfg, resolve_dataset(cfg))
        assert [model.config.input_dims for model in models] == [(8,), (8,), (8,)]
        assert hashlib.sha256(np.stack(uni_train).tobytes()).hexdigest() == digest


class TestFinalBundles:
    @pytest.mark.parametrize("variant, warm, weighted, val_scores", [
        ("btw", 2, 3, 5),
        ("unweighted", 2, 3, 5),
        ("unweighted", 0, 0, 1),  # no epoch ran, so the end of the run scores val
        ("btw", 0, 0, 1),  # no weighted epoch runs, so no smoothing metric is scored
    ])
    def test_val_split_scored_once_per_epoch(self, monkeypatch, variant, warm, weighted,
                                             val_scores):
        cfg = small_config(variant=variant, epochs_warm=warm, epochs_weighted=weighted)
        val_targets = resolve_dataset(cfg).batch("val").targets
        calls = []
        score = training._score

        def counting_score(params, batch, weights=None):
            calls.append(np.array_equal(batch.targets, val_targets))
            return score(params, batch, weights)

        # One lane: a child lane's val scores would not reach this spy.
        monkeypatch.setattr(training, "_usable_cores", lambda: 1)
        monkeypatch.setattr(training, "_score", counting_score)
        result = run_experiment(cfg)
        assert sum(calls) == val_scores
        eval_row = result.records[-1].eval_weights if result.records else None
        assert result.val_bundle == score(result.final_params, result.dataset.batch("val"),
                                          eval_row)[1]


CLASSIFICATION_3 = dict(task="classification", n_classes=3)


class TestWeightedPhaseInputs:
    @pytest.mark.parametrize("variant, warm", [("btw", 2), ("btw_local", 2), ("btw", 0)])
    def test_one_train_pass_per_weighted_epoch(self, monkeypatch, variant, warm):
        # Epoch k predicts the train split under the weights epoch k - 1
        # trained with; the first weighted epoch's model trained unweighted.
        cfg = small_config(variant=variant, epochs_warm=warm)
        n_train = resolve_dataset(cfg).indices("train").size
        passes = []
        collect = training._collect_predictions

        def spying_collect(params, batch, weights=None):
            if len(batch.features) == 3 and batch.n_instances == n_train:
                passes.append(None if weights is None else weights.copy())
            return collect(params, batch, weights)

        monkeypatch.setattr(training, "_usable_cores", lambda: 1)
        monkeypatch.setattr(training, "_collect_predictions", spying_collect)
        result = run_experiment(cfg)
        assert len(passes) == cfg.epochs_weighted
        assert passes[0] is None
        for applied, record in zip(passes[1:], result.weighted_records):
            assert np.array_equal(applied, 3 * record.weights)

    @pytest.mark.parametrize("variant", ["btw", "unweighted"])
    def test_only_train_outputs_use_the_refresh_pass(self, monkeypatch, variant):
        # One call per unimodal model and one train refresh per weighted
        # epoch; scoring the val and test splits runs its own pass.
        cfg = small_config(variant=variant)
        n_train = resolve_dataset(cfg).indices("train").size
        calls = []
        collect = training._collect_predictions

        def spying_collect(params, batch, weights=None):
            calls.append(batch.n_instances)
            return collect(params, batch, weights)

        monkeypatch.setattr(training, "_usable_cores", lambda: 1)
        monkeypatch.setattr(training, "_collect_predictions", spying_collect)
        run_experiment(cfg)
        expected = 0 if variant == "unweighted" else 3 + cfg.epochs_weighted
        assert calls == [n_train] * expected

    @pytest.mark.parametrize("spec", [{}, CLASSIFICATION_3], ids=["regression", "classification"])
    def test_unimodal_stack_reaching_the_kl_is_read_only(self, monkeypatch, spec):
        cfg = small_config(spec=spec)
        dataset = plan(cfg)
        _, uni_train = train_unimodal_all(cfg, dataset)
        stacks = []
        kl_weights = training.instance_kl_weights

        def spying_kl_weights(targets, uni, multi):
            stacks.append(uni)
            return kl_weights(targets, uni, multi)

        monkeypatch.setattr(training, "instance_kl_weights", spying_kl_weights)
        run_experiment(cfg)
        assert len(stacks) == cfg.epochs_weighted
        for uni in stacks:
            assert np.array_equal(uni, np.stack(uni_train))
            assert not uni.flags.writeable
            with pytest.raises(ValueError):
                uni[0, 0] = 1.0

    @pytest.mark.parametrize("variant", ["btw", "btw_global_mi"])
    def test_kl_weights_only_where_the_combinator_reads_them(self, monkeypatch, variant):
        calls = []
        kl_weights = training.instance_kl_weights

        def spying_kl_weights(targets, uni, multi):
            calls.append(None)
            return kl_weights(targets, uni, multi)

        monkeypatch.setattr(training, "instance_kl_weights", spying_kl_weights)
        cfg = small_config(variant=variant)
        run_experiment(cfg)
        assert len(calls) == (0 if variant == "btw_global_mi" else cfg.epochs_weighted)


class TestTrainSplitInPlace:
    @pytest.mark.parametrize("variant", ["btw", "unweighted"])
    @pytest.mark.parametrize("spec", [{}, CLASSIFICATION_3], ids=["regression", "classification"])
    def test_training_epochs_read_the_dataset_features(self, monkeypatch, variant, spec):
        # Every unimodal, warm and weighted epoch gathers its mini-batches
        # from dataset.features itself, so no phase trains on a copy of the
        # train split.
        cfg = small_config(variant=variant, spec=spec)
        dataset = plan(cfg)
        fed = []
        train_one_epoch = training._train_one_epoch

        def spying_train_one_epoch(params, features, *args, **kwargs):
            fed.append(features)
            return train_one_epoch(params, features, *args, **kwargs)

        monkeypatch.setattr(training, "_usable_cores", lambda: 1)
        monkeypatch.setattr(training, "_train_one_epoch", spying_train_one_epoch)
        training.run_planned(cfg, dataset)
        n_uni = 0 if variant == "unweighted" else cfg.epochs_unimodal
        expected = [[m] for m in range(3) for _ in range(n_uni)]
        expected += [[0, 1, 2]] * (cfg.epochs_warm + cfg.epochs_weighted)
        assert len(fed) == len(expected)
        for features, modalities in zip(fed, expected):
            assert len(features) == len(modalities)
            for array, m in zip(features, modalities):
                assert np.shares_memory(array, dataset.features[m])


class TestPredictionPassMemory:
    # A prediction pass runs the expert stage one expert at a time, so it
    # never holds a whole (pairs, H) array. The bounds sit about 10% above
    # the measured peaks (3.21 and 36.86 MiB); a pass running all experts
    # as one group peaks at 9.36 and 107.61 MiB.
    @pytest.mark.parametrize("n_rows, limit_mib", [(1_400, 3.5), (16_100, 40.0)])
    def test_weighted_pass_peak(self, default_config, n_rows, limit_mib):
        model = default_config.model_config(default_config.data)
        rng = np.random.default_rng(0)
        params = init_params(model, rng)
        batch = DataBatch([rng.standard_normal((n_rows, d)) for d in model.input_dims])
        weights = model.n_modalities * rng.dirichlet(np.ones(model.n_modalities), size=n_rows)
        tracemalloc.start()
        try:
            training._collect_predictions(params, batch, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20


class TestExportBytes:
    # sha256 of the three data files export_result writes for every variant
    # on a small regression and a small 3-class classification run. A change
    # to how a run is planned or recorded must leave these bytes alone.
    @pytest.mark.parametrize("overrides, digests", [
        (dict(variant="btw"), {
            "records.csv": "74c100552723919ff6ed4e078431f60ca112d56aa4bc48853e33fbd28077658a",
            "weights_trajectory.csv":
                "bb415d2ca9b024907dc0bab4c4a4cc38c2451ea9d5fda013d2687b159693e236",
            "metrics.json": "8f2363c2a4b2b4ad9aa14a9336e9c670b28b70abcf7417620c432214e83cee31",
        }),
        (dict(variant="btw_global_mi", spec=CLASSIFICATION_3), {
            "records.csv": "26f0d7a4593a6e4bfa672ca2cf2d58160b4a9e27136ebaaf6407258c64997e21",
            "weights_trajectory.csv":
                "fe031f776a8e4592e8245800daec86db5cc5c700e0fb4509a7164c0b4660036b",
            "metrics.json": "d70b7254452d69c0ec239fe145f4195f70b82ba07308f52a64e115fedff31dd4",
        }),
        (dict(variant="unweighted"), {
            "records.csv": "2d0ecd2021b265055e6a8204b63025cd581ba4711e0b1c5ac4c4e06a490967da",
            "weights_trajectory.csv":
                "1c1927afa82089ebda70b2837e7ac98046d1b254410b23c8a420b35dcc484f80",
            "metrics.json": "4b1113ca18ca586e7b53e7ca16d1db3f8eac655ea3d035cb9e026495a2145564",
        }),
        (dict(variant="btw_local"), {
            "records.csv": "aae2f878fbe42f7856465a73cc531a69d1524840c87eba3bfc4514b1f0c4e211",
            "weights_trajectory.csv":
                "583d5e3886201d4f41554577ccf1afe74134b21a24c0e8cf512a797ff89edd62",
            "metrics.json": "304203505a2913352e5abd91344897a8eda0fd3bef02d18d514a1de1e6423140",
        }),
        (dict(variant="btw_global_kl"), {
            "records.csv": "c3059f609b6d68f5a61d98e1bdfc950344da5f5555487bcc79048b035264549f",
            "weights_trajectory.csv":
                "1c6dca3d8843c167f06f9b087c03a1493856b942401c816a43890e432c480020",
            "metrics.json": "4144f5dd6dbe7591da51617a825902ab49b3eaaf942a0d37c50970ac4d4aaa4d",
        }),
        (dict(variant="btw_global_mi"), {
            "records.csv": "455c0a83010c0851f1a722eaabe1db08240bf3b097927dc1b27207a50d1360eb",
            "weights_trajectory.csv":
                "47cf62cf263d523ab1794b67c08d871b2587ef056ee3ebb885e6cfebb27ec188",
            "metrics.json": "96ffa6a41eab33c7632266c07e408fc35961cda00b48a012ce79fd9cd28ed4f1",
        }),
        (dict(variant="unweighted", spec=CLASSIFICATION_3), {
            "records.csv": "c4923eab01972bcd35c6090eb0d9daa30fda43108c2671730febf4403d72ae9a",
            "weights_trajectory.csv":
                "1c1927afa82089ebda70b2837e7ac98046d1b254410b23c8a420b35dcc484f80",
            "metrics.json": "6d9a89b506ed84968aca71cd07cbb5bf684c5609ead381e5504e726e4d12b6d9",
        }),
        (dict(variant="btw_local", spec=CLASSIFICATION_3), {
            "records.csv": "49fc6348968db9747bebcccbcd666306e283235ddfabf0ad5edce9a7b0566ca5",
            "weights_trajectory.csv":
                "5f2dc03ce4f0f234e8caa61c565bc473035613c9517a7374b94b3c0deda999b1",
            "metrics.json": "ee197420f925a6f73078f9a146ada5f2cf3a7169d046ec932fd51d6b952d59d5",
        }),
        (dict(variant="btw_global_kl", spec=CLASSIFICATION_3), {
            "records.csv": "5a95fcb17853858dff3e13156d6c94222d851cb89c918f6895324bbad3949e7c",
            "weights_trajectory.csv":
                "9a4a676385de9504fdb8e9644517e6c51e1060e43a51afb63eb34d52a49cfed4",
            "metrics.json": "c68164dfa74ff704a1442eb1471093ec4418c058315df2c470113b5d4cd6fd44",
        }),
        (dict(variant="btw", spec=CLASSIFICATION_3), {
            "records.csv": "9348738705ac02ddc7db832fa8cfaf94fd54e82c6ddd5140962b895c83014764",
            "weights_trajectory.csv":
                "ebe12b41569fd113cc1560ae6a2f6ef115a74ecfd6a394c713c895650cfafd19",
            "metrics.json": "20a1708a93cfeee1ba763c5bf8298762f9cdd287b2fa9fc906721ac387464e28",
        }),
    ])
    def test_exported_files_pinned(self, tmp_path, overrides, digests):
        export_result(run_experiment(small_config(**overrides)), tmp_path)
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


class TestUnimodalOrdering:
    def test_informative_modality_has_lower_val_mae(self):
        cfg = small_config(
            spec=dict(
                n_instances=1000,
                modality_dims=(16, 16),
                informativeness=(0.9, 0.0),
                noise_sigma=0.5,
            ),
            moe_embed_dim=32,
            moe_expert_hidden=64,
            epochs_unimodal=5,
        )
        dataset = plan(cfg)
        models, _uni_train = train_unimodal_all(cfg, dataset)
        val = dataset.batch("val")
        val_mae = [
            mae(forward(models[m], DataBatch([val.features[m]]))[0], val.targets)
            for m in range(2)
        ]
        assert val_mae[0] < val_mae[1]


class TestFailureHandling:
    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_raises_training_failure_with_phase(self):
        cfg = small_config(lr=500.0)
        with pytest.raises(TrainingFailureError) as exc_info:
            run_experiment(cfg)
        assert exc_info.value.phase
        assert exc_info.value.epoch >= 1

    def test_dataset_path_round_trip(self, tmp_path):
        from btwmoe.synthetic import generate, save_dataset, split as split_ds

        spec = SyntheticSpec(
            n_instances=300,
            modality_dims=(8, 8, 8),
            informativeness=(0.9, 0.5, 0.0),
            noise_sigma=1.0,
            task="regression",
            seed=0,
        )
        ds = split_ds(generate(spec), (0.7, 0.15, 0.15), seed=13)
        save_dataset(ds, tmp_path / "data")
        cfg_inline = small_config()
        cfg_path = small_config(data=None, data_path=str(tmp_path / "data"))
        r1 = run_experiment(cfg_inline)
        r2 = run_experiment(cfg_path)
        assert r1.records[0].train_loss == r2.records[0].train_loss


def _named_task(name):
    if name in "ac":
        raise ValueError(name)
    return name


def _done_here(parent):
    if os.getpid() != parent:
        os._exit(3)
    return "done"


def _run_jobs(jobs) -> list[tuple[bool, object]]:
    """(True, result) or (False, exception) of each job run on lanes."""
    outcomes = []
    with training.open_lanes(len(jobs)) as lanes:
        for result in training._start(lanes, jobs):
            try:
                outcomes.append((True, result()))
            except Exception as exc:
                outcomes.append((False, exc))
    return outcomes


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestLanes:
    # run_experiment trains the unimodal models and the warm phase on lanes:
    # this process and children forked from it, one lane per usable core.
    # The same children then score val and estimate MI in the weighted phase.

    @pytest.mark.parametrize("spec", [{}, CLASSIFICATION_3], ids=["regression", "classification"])
    def test_lane_count_changes_no_exported_byte(self, tmp_path, monkeypatch, spec):
        exported = {}
        for cores in (1, 2, 4):
            monkeypatch.setattr(training, "_usable_cores", lambda cores=cores: cores)
            export_result(run_experiment(small_config(spec=spec)), tmp_path / str(cores))
            exported[cores] = _tree_bytes(tmp_path / str(cores))
        assert "checkpoints/unimodal_2.btwm" in exported[1]
        assert exported[2] == exported[1]
        assert exported[4] == exported[1]

    @pytest.mark.skipif(training._lane_count(2) < 2,
                        reason="one usable core, or no safe fork: one lane")
    def test_a_child_lane_trains_when_a_second_core_is_usable(self, tmp_path, monkeypatch):
        log = tmp_path / "pids"
        train_unimodal = training.train_unimodal_all

        def logging_train_unimodal(config, dataset, modalities=None):
            with open(log, "a") as fh:
                fh.writelines(f"{m} {os.getpid()}\n" for m in modalities)
            return train_unimodal(config, dataset, modalities)

        monkeypatch.setattr(training, "train_unimodal_all", logging_train_unimodal)
        run_experiment(small_config())
        pids = dict(line.split() for line in log.read_text().splitlines())
        assert sorted(pids) == ["0", "1", "2"]
        assert set(pids.values()) - {str(os.getpid())}

    def test_the_warm_phase_returns_the_same_on_a_child_lane(self, monkeypatch):
        monkeypatch.setattr(training, "_usable_cores", lambda: 2)
        if training._lane_count(2) < 2:
            pytest.skip("no safe fork here: one lane")
        cfg = small_config()
        dataset = plan(cfg)
        here = training.train_multimodal_warm(cfg, dataset, 2)
        # Two lanes: the child runs the first job, this process the second.
        jobs = [training._Job("warm", 0, "btwmoe.training", "train_multimodal_warm",
                              (cfg, dataset, 2)),
                training._Job("pid", 0, "os", "getpid", ())]
        with training.open_lanes(len(jobs)) as lanes:
            warm, pid = [result() for result in training._start(lanes, jobs)]
        assert pid == os.getpid() and lanes
        (params, records, rng), (params_here, records_here, rng_here) = warm, here
        assert np.array_equal(params.flat, params_here.flat)

        def fields(records):  # every field but the wall time, byte for byte
            return [pickle.dumps(replace(r, duration_s=0.0)) for r in records]

        assert len(records) == 2 and fields(records) == fields(records_here)
        assert rng.bit_generator.state == rng_here.bit_generator.state

    def test_a_live_child_lane_holds_a_core(self, monkeypatch):
        monkeypatch.setattr(training, "_usable_cores", lambda: 2)
        if training._lane_count(4) < 2:
            pytest.skip("no safe fork here: one lane")
        reader, writer = multiprocessing.Pipe(duplex=False)
        child = multiprocessing.get_context("fork").Process(target=reader.recv, daemon=True)
        child.start()
        try:
            assert training._lane_count(4) == 1
        finally:
            writer.send(None)
            child.join(timeout=30)
        assert not child.is_alive()
        assert training._lane_count(4) == 2

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_no_lane_outlives_a_run(self, monkeypatch):
        monkeypatch.setattr(training, "_usable_cores", lambda: 4)
        run_experiment(small_config())
        assert multiprocessing.active_children() == []
        with pytest.raises(TrainingFailureError, match=r"phase 'unimodal\[0\]' at epoch 1"):
            run_experiment(small_config(lr=1e150, batch_size=256, epochs_unimodal=1))
        assert multiprocessing.active_children() == []

        def failing_kl(targets, uni, multi):
            raise InvalidInputError("no KL today")

        # The child lanes are alive and serving while the weighted phase fails.
        monkeypatch.setattr(training, "instance_kl_weights", failing_kl)
        with pytest.raises(TrainingFailureError, match=r"phase 'weighted' at epoch 3: no KL"):
            run_experiment(small_config())
        assert multiprocessing.active_children() == []

    def test_an_interrupt_stops_and_joins_every_child_lane(self, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(training, "_usable_cores", lambda: 4)
        # In the prefix, and in the weighted phase, which the child lanes serve.
        for where in ("train_multimodal_warm", "smooth_update"):
            with monkeypatch.context() as patch:
                patch.setattr(training, where, interrupted)
                with pytest.raises(KeyboardInterrupt):
                    run_experiment(small_config())
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("variant, cores, forks", [
        ("btw", 2, 1), ("btw", 4, 3), ("btw_local", 4, 3), ("unweighted", 4, 0),
    ])
    def test_a_run_forks_one_child_per_lane_but_its_own(self, monkeypatch, variant, cores,
                                                        forks):
        # The child lanes of the unimodal phase serve the weighted phase too,
        # so it forks none of its own.
        monkeypatch.setattr(training, "_usable_cores", lambda: cores)
        if training._lane_count(cores) < cores:
            pytest.skip("no safe fork here: one lane")
        started = []
        start = multiprocessing.context.ForkProcess.start

        def counting_start(process):
            started.append(process)
            return start(process)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
        run_experiment(small_config(variant=variant))
        assert len(started) == forks
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(training._lane_count(2) < 2,
                        reason="one usable core, or no safe fork: one lane")
    def test_a_child_lane_serves_val_scores_and_mi(self, tmp_path, monkeypatch):
        log = tmp_path / "pids"
        score, modality_mi = training._score, training.modality_mi

        def logging_score(params, batch, row=None):
            if row is not None:
                with open(log, "a") as fh:
                    fh.write(f"score {os.getpid()}\n")
            return score(params, batch, row)

        def logging_mi(uni, multi, jitter_seed):
            with open(log, "a") as fh:
                fh.write(f"mi{len(uni)} {os.getpid()}\n")
            return modality_mi(uni, multi, jitter_seed)

        monkeypatch.setattr(training, "_usable_cores", lambda: 2)
        monkeypatch.setattr(training, "_score", logging_score)
        monkeypatch.setattr(training, "modality_mi", logging_mi)
        cfg = small_config()
        run_experiment(cfg)
        calls = [line.split() for line in log.read_text().splitlines()]
        here = str(os.getpid())
        # Two lanes: the child scores val each epoch and estimates the MI of
        # modalities 0 and 1, one job each; this process that of modality 2,
        # and the test split.
        assert sorted((name, pid == here) for name, pid in calls) == sorted(
            [("score", False)] * cfg.epochs_weighted + [("score", True)]
            + [("mi1", False), ("mi1", False), ("mi1", True)] * cfg.epochs_weighted
        )

    @pytest.mark.parametrize("cores", [1, 2])
    def test_weighted_records_time_their_epochs(self, monkeypatch, cores):
        monkeypatch.setattr(training, "_usable_cores", lambda: cores)
        if training._lane_count(cores) < cores:
            pytest.skip("no safe fork here: one lane")
        phase_s = []
        run_weighted_phase = training.run_weighted_phase

        def timed_phase(*args):
            started = time.perf_counter()
            try:
                return run_weighted_phase(*args)
            finally:
                phase_s.append(time.perf_counter() - started)

        monkeypatch.setattr(training, "run_weighted_phase", timed_phase)
        records = run_experiment(small_config()).weighted_records
        # Each epoch's wall time runs to the next one's start, so the
        # durations never overlap and fit in the phase.
        assert all(record.duration_s > 0 for record in records)
        assert sum(record.duration_s for record in records) <= phase_s[0]

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("lane_dies, job_unread",
                             [(False, False), (True, False), (True, True)],
                             ids=["raises", "dies", "dies-with-a-job-unread"])
    def test_a_failed_val_score_reports_before_the_next_epoch(self, tmp_path, monkeypatch, cores,
                                                              lane_dies, job_unread):
        # Weighted epoch 2 (run epoch 4) fails its val score, and epoch 3's
        # refresh fails too. On two lanes that refresh runs while the score
        # is out on the child lane, whose failure still reports first; a
        # child lane that dies fails the epoch it was scoring. With a job
        # unread, epoch 3's refresh passes and the dying score waits until
        # epoch 3's MI share is in its pipe, so its pipe reads a reset.
        monkeypatch.setattr(training, "_usable_cores", lambda: cores)
        if training._lane_count(cores) < cores:
            pytest.skip("no safe fork here: one lane")
        parent = os.getpid()
        marker = tmp_path / "mi-sent"
        score, collect = training._score, training._collect_predictions
        kl_weights = training.instance_kl_weights
        weighted_scores, refreshes, kl_calls = [], [], []

        def failing_score(params, batch, row=None):
            if row is not None:
                weighted_scores.append(row)
                if len(weighted_scores) == 2:
                    if lane_dies and os.getpid() != parent:
                        deadline = time.monotonic() + 60
                        while job_unread and not marker.exists() and time.monotonic() < deadline:
                            time.sleep(0.001)
                        os._exit(3)
                    raise NumericOverflowError("val score diverged")
            return score(params, batch, row)

        def failing_collect(params, batch, weights=None):
            if len(batch.features) == 3:
                refreshes.append(weights)
                if len(refreshes) == 3 and not job_unread:
                    raise NumericOverflowError("refresh diverged")
            return collect(params, batch, weights)

        def marking_kl_weights(targets, uni, multi):
            # Runs after the epoch's MI share has gone out.
            kl_calls.append(multi)
            if len(kl_calls) == 3:
                marker.touch()
            return kl_weights(targets, uni, multi)

        monkeypatch.setattr(training, "_score", failing_score)
        monkeypatch.setattr(training, "_collect_predictions", failing_collect)
        monkeypatch.setattr(training, "instance_kl_weights", marking_kl_weights)
        with pytest.raises(TrainingFailureError) as info:
            run_experiment(small_config(epochs_weighted=4))
        assert (info.value.phase, info.value.epoch) == ("weighted", 4)
        detail = ("its process exited with code 3 before reporting"
                  if lane_dies and cores == 2 else "val score diverged")
        assert info.value.detail == detail
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("where, nth, counted, phase, epoch", [
        # Weighted epoch 2 (run epoch 4): the second call of each kind in the
        # process that makes it, and every MI job with that epoch's jitter
        # seed, on whichever lane runs it.
        ("_collect_predictions", 2,
         lambda params, batch, weights=None: len(batch.features) == 3, "weighted", 4),
        ("instance_kl_weights", 2, lambda targets, uni, multi: True, "weighted", 4),
        ("modality_mi", 1, lambda uni, multi, jitter_seed: jitter_seed == 103, "weighted", 4),
        ("_train_one_epoch", 2, lambda *args, weights=None: weights is not None, "weighted", 4),
        ("_score", 2, lambda params, batch, row=None: row is not None, "weighted", 4),
        # Warm epoch 2's val score, the second unweighted one.
        ("_score", 2, lambda params, batch, row=None: row is None, "warm", 2),
    ], ids=["refresh", "kl", "mi", "training", "val-score", "warm-val-score"])
    def test_each_stage_charges_its_own_epoch(self, monkeypatch, cores, where, nth, counted,
                                              phase, epoch):
        # The epoch before always scores, so its record settles first and
        # the failure is the failing epoch's own.
        monkeypatch.setattr(training, "_usable_cores", lambda: cores)
        if training._lane_count(cores) < cores:
            pytest.skip("no safe fork here: one lane")
        original, seen = getattr(training, where), []

        def failing(*args, **kwargs):
            if counted(*args, **kwargs):
                seen.append(None)
                if len(seen) >= nth:
                    raise NumericOverflowError(f"{where} diverged")
            return original(*args, **kwargs)

        monkeypatch.setattr(training, where, failing)
        with pytest.raises(TrainingFailureError) as info:
            run_experiment(small_config())
        failure = (info.value.phase, info.value.epoch, info.value.detail)
        assert failure == (phase, epoch, f"{where} diverged")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cores", [1, 2])
    def test_an_interrupt_outranks_the_failure_of_the_epoch_before(self, monkeypatch, cores):
        # Weighted epoch 1's val score fails (on the child lane with two
        # cores), and epoch 2's KL is interrupted before that score is read.
        monkeypatch.setattr(training, "_usable_cores", lambda: cores)
        if training._lane_count(cores) < cores:
            pytest.skip("no safe fork here: one lane")
        score, kl_weights = training._score, training.instance_kl_weights
        kl_calls = []

        def failing_score(params, batch, row=None):
            if row is not None:
                raise NumericOverflowError("val score diverged")
            return score(params, batch, row)

        def interrupted_kl(targets, uni, multi):
            kl_calls.append(None)
            if len(kl_calls) == 2:
                raise KeyboardInterrupt
            return kl_weights(targets, uni, multi)

        monkeypatch.setattr(training, "_score", failing_score)
        monkeypatch.setattr(training, "instance_kl_weights", interrupted_kl)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(small_config())
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cores", [1, 2])
    def test_every_task_of_a_lane_has_an_outcome(self, monkeypatch, cores):
        monkeypatch.setattr(training, "_usable_cores", lambda: cores)
        if training._lane_count(3) < cores:
            pytest.skip("no safe fork here: one lane")
        # With two lanes a child runs a and b, and this process runs c.
        outcomes = _run_jobs([
            training._Job(name, 0, __name__, "_named_task", (name,)) for name in "abc"
        ])
        assert [(finished, str(value)) for finished, value in outcomes] == [
            (False, "a"), (True, "b"), (False, "c")
        ]
        assert multiprocessing.active_children() == []

    def test_a_child_lane_that_dies_fails_each_task_of_its_share(self, monkeypatch):
        monkeypatch.setattr(training, "_usable_cores", lambda: 2)
        if training._lane_count(3) < 2:
            pytest.skip("no safe fork here: one lane")
        # Two lanes: a child runs a and b, this process runs c.
        outcomes = _run_jobs([
            training._Job(name, 0, __name__, "_done_here", (os.getpid(),)) for name in "abc"
        ])
        assert [(finished, str(value)) for finished, value in outcomes] == [
            (False, f"training failed in phase '{phase}' at epoch 0: "
                    "its process exited with code 3 before reporting")
            for phase in "ab"
        ] + [(True, "done")]
        assert multiprocessing.active_children() == []

    def test_a_child_lane_that_dies_fails_as_its_first_phase(self, monkeypatch):
        parent = os.getpid()
        train_unimodal = training.train_unimodal_all

        def dying(config, dataset, modalities=None):
            if os.getpid() != parent:
                os._exit(3)
            return train_unimodal(config, dataset, modalities)

        monkeypatch.setattr(training, "_usable_cores", lambda: 2)
        if training._lane_count(2) < 2:
            pytest.skip("no safe fork here: one lane")
        monkeypatch.setattr(training, "train_unimodal_all", dying)
        with pytest.raises(TrainingFailureError) as info:
            run_experiment(small_config())
        assert (info.value.phase, info.value.epoch) == ("unimodal[0]", 0)
        assert "exited with code 3" in str(info.value)
        assert multiprocessing.active_children() == []


def test_training_import_leaves_multiprocessing_unloaded():
    # The lanes import multiprocessing on first use, so a process that only
    # sets a run up, or parses a command line, never loads it.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for module in ("btwmoe.training", "btwmoe.cli"):
        code = f"import sys, {module}; assert 'multiprocessing' not in sys.modules"
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, f"{module}: {done.stderr[-2000:]}"


def test_child_lanes_inherit_scipy_special(monkeypatch):
    # open_lanes imports scipy.special before it forks, so a child lane
    # shares this process's copy instead of importing its own at its first
    # GELU or KSG call. A fresh interpreter, so nothing has loaded it yet.
    monkeypatch.setattr(training, "_usable_cores", lambda: 2)
    if training._lane_count(2) < 2:
        pytest.skip("no safe fork here: one lane")
    code = """
import os, sys
from btwmoe import training

def special_loaded():
    return os.getpid(), "scipy.special" in sys.modules

assert "scipy.special" not in sys.modules
training._usable_cores = lambda: 2
# Two lanes: the child runs the first job, this process the second.
jobs = [training._Job("probe", 0, "__main__", "special_loaded", ()),
        training._Job("pid", 0, "os", "getpid", ())]
with training.open_lanes(len(jobs)) as lanes:
    (child, loaded), here = [result() for result in training._start(lanes, jobs)]
assert lanes and here == os.getpid() != child
assert loaded
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


@st.composite
def reference_configs(draw):
    """Small configs over every variant, both tasks and both generators:
    M = 1-4, N = 40-160, 1-4 experts, top-k <= E, 1-2 MoE layers and 0-3
    epochs per phase."""
    n_mod = draw(st.integers(1, 4))
    task = draw(st.sampled_from(["regression", "classification"]))
    informativeness = draw(st.lists(st.sampled_from([0.0, 0.4, 0.8]), min_size=n_mod,
                                    max_size=n_mod).filter(any))
    spec = SyntheticSpec(
        n_instances=draw(st.integers(40, 160)),
        modality_dims=tuple(draw(st.lists(st.integers(1, 5), min_size=n_mod, max_size=n_mod))),
        informativeness=tuple(informativeness),
        noise_sigma=draw(st.sampled_from([0.1, 1.0])),
        task=task,
        n_classes=draw(st.integers(2, 4)) if task == "classification" else 0,
        nonlinearity=draw(st.sampled_from(["linear", "tanh-mixed"])),
        seed=draw(st.integers(0, 9)),
    )
    n_experts = draw(st.integers(1, 4))
    epochs = st.integers(0, 3)
    return ExperimentConfig(
        variant=draw(st.sampled_from(training.VARIANTS)),
        epochs_unimodal=draw(epochs),
        epochs_warm=draw(epochs),
        epochs_weighted=draw(epochs),
        batch_size=draw(st.sampled_from([7, 16, 64])),
        moe_embed_dim=4,
        moe_expert_hidden=8,
        moe_n_experts=n_experts,
        moe_top_k=draw(st.integers(1, n_experts)),
        moe_n_moe_layers=draw(st.integers(1, 2)),
        data=spec,
        seed=draw(st.integers(0, 9)),
    )


def assert_same_run(result, expected):
    """Every record field but the wall time, the val and test bundles and
    every model's params, compared as pickled bytes: item by item, since a
    whole pickled list also encodes which objects it shares."""
    assert len(result.records) == len(expected.records)
    for got, want in zip(result.records, expected.records):
        for field in fields(EpochRecord):
            if field.name != "duration_s":
                assert pickle.dumps(getattr(got, field.name)) == pickle.dumps(
                    getattr(want, field.name)), (got.epoch, field.name)
    for name in ("val_bundle", "test_bundle", "final_params"):
        assert pickle.dumps(getattr(result, name)) == pickle.dumps(getattr(expected, name)), name
    assert ([pickle.dumps(params) for params in result.unimodal_params]
            == [pickle.dumps(params) for params in expected.unimodal_params])


class TestReference:
    """run_experiment against the straight-line reference (tests/reference.py),
    bit for bit: on this machine's lanes and on one."""

    @given(config=reference_configs())
    @settings(max_examples=40, deadline=None)
    def test_run_matches_the_reference(self, config):
        expected = run_reference(config)
        assert_same_run(run_experiment(config), expected)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training, "_usable_cores", lambda: 1)
            assert_same_run(run_experiment(config), expected)

    @pytest.mark.parametrize("variant", ["btw", "btw_global_mi"])
    def test_tied_outputs_read_the_mi_jitter(self, tmp_path, variant):
        # On continuous outputs the 1e-10 jitter decides no KSG neighbour
        # count, so its seed moves no result there. Here every instance
        # appears six times, so the train outputs tie in blocks and the
        # jitter seed (S + 101 + weighted epoch) decides the MI: the reference
        # covers that rule only through this case. Blocks of KSG_K + 1 would
        # not do, since each point's two marginal counts then sum alike
        # however its ties break.
        base = generate(SyntheticSpec(n_instances=20, modality_dims=(3, 3),
                                      informativeness=(0.9, 0.3), seed=2))
        copies = np.repeat(np.arange(base.n_instances), 6)
        save_dataset(replace(base, features=[f[copies] for f in base.features],
                             targets=base.targets[copies],
                             split_tags=np.zeros(copies.size, dtype=np.int8)), tmp_path)
        config = small_config(variant=variant, data=None, data_path=str(tmp_path))
        result = run_experiment(config)
        assert_same_run(result, run_reference(config))

        train = result.dataset.batch("train")
        uni = forward(result.unimodal_params[0], DataBatch(train.features[:1]))[0]
        multi = forward(result.final_params, train)[0]
        assert np.unique(uni).size < uni.size
        assert ksg_mi(uni, multi, jitter_seed=1) != ksg_mi(uni, multi, jitter_seed=2)
