"""Three-phase orchestration: schedules, hooks, equivalences, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from btwmoe.errors import InvalidInputError, TrainingFailureError
from btwmoe.metrics import mae
from btwmoe.moe import MoeConfig, unimodal_forward
from btwmoe.synthetic import SyntheticSpec
from btwmoe.training import (
    ExperimentConfig,
    default_moe_config,
    evaluate,
    improvement_direction,
    resolve_dataset,
    run_experiment,
    train_unimodal_all,
)


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
    moe = MoeConfig(
        input_dims=spec.modality_dims,
        embed_dim=8,
        expert_hidden=16,
        task=spec.task,
        n_classes=spec.n_classes,
    )
    kwargs = dict(
        variant="btw",
        data=spec,
        moe=moe,
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
        assert result.train_preds is not None
        assert np.all(np.isfinite(result.train_preds.uni_mean))

    def test_zero_warm_epochs_uses_initialized_model(self):
        result = run_experiment(small_config(epochs_warm=0, epochs_weighted=2))
        assert len(result.records) == 2

    def test_weighted_phase_rejected_for_unweighted_variant(self):
        from btwmoe.training import run_weighted_phase

        with pytest.raises(InvalidInputError):
            run_weighted_phase(
                small_config(variant="unweighted"),
                None, None, None, None, None, [], None,
            )


class TestSingleModalityDegeneracy:
    def test_unimodal_equals_multimodal_bitwise(self):
        cfg = small_config(
            spec=dict(modality_dims=(8,), informativeness=(0.9,)),
            moe=None,
            variant="unweighted",
            epochs_unimodal=3,
            epochs_warm=3,
            epochs_weighted=0,
        )
        dataset = resolve_dataset(cfg)
        cfg = replace(cfg, moe=default_moe_config(dataset))
        models, uni_train = train_unimodal_all(cfg, dataset)

        from btwmoe.training import train_multimodal_warm, _collect_predictions

        rng = np.random.default_rng(cfg.seed)
        multi_params = train_multimodal_warm(cfg, dataset, rng, 3, records=[])
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


class TestPhaseIsolation:
    def test_unimodal_predictions_frozen(self):
        result = run_experiment(small_config())
        assert not result.train_preds.uni_mean.flags.writeable
        assert not result.train_preds.uni_var.flags.writeable
        with pytest.raises(ValueError):
            result.train_preds.uni_mean[0, 0] = 99.0


class TestEquationReductionHooks:
    def test_uniform_mi_reduces_btw_to_btw_local(self):
        base = small_config()
        r_btw = run_experiment(replace(base, variant="btw", force_uniform_mi=True))
        r_local = run_experiment(replace(base, variant="btw_local"))
        assert len(r_btw.weight_matrices) == len(r_local.weight_matrices)
        for wa, wb in zip(r_btw.weight_matrices, r_local.weight_matrices):
            assert np.array_equal(wa, wb)

    def test_unit_weight_hook_matches_unweighted_baseline(self):
        base = small_config()
        r_hooked = run_experiment(replace(base, variant="btw_local", force_unit_weights=True))
        r_base = run_experiment(replace(base, variant="unweighted"))
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
        alphas = [result.config.alpha_init] + result.alphas
        for prev, cur in zip(alphas, alphas[1:]):
            assert 0.1 <= cur <= 0.9
            step = cur - prev
            assert min(abs(step), abs(step - 0.1), abs(step + 0.1)) < 1e-9

    def test_mi_recorded_per_weighted_epoch(self):
        result = run_experiment(small_config(variant="btw"))
        assert len(result.mi_by_epoch) == 3
        for mi in result.mi_by_epoch:
            assert mi.shape == (3,) and np.all(mi >= 0)

    def test_global_variants_produce_constant_rows(self):
        for variant in ("btw_global_kl", "btw_global_mi"):
            result = run_experiment(small_config(variant=variant, epochs_weighted=1))
            w = result.weight_matrices[0]
            assert np.allclose(w, w[0][None, :], atol=1e-12)


class TestEvaluate:
    def test_all_ones_eval_weights_match_plain_forward(self):
        result = run_experiment(small_config(variant="unweighted"))
        plain = evaluate(result.final_params, result.dataset, "test", None)
        ones = evaluate(result.final_params, result.dataset, "test", np.ones(3))
        assert plain == ones

    def test_classification_bundle_keys(self):
        cfg = small_config(
            spec=dict(task="classification", n_classes=3),
            variant="btw",
        )
        result = run_experiment(cfg)
        assert set(result.test_bundle) == {"accuracy", "macro_f1", "weighted_f1"}
        assert 0 <= result.test_bundle["accuracy"] <= 1

    def test_improvement_direction_per_task(self):
        assert improvement_direction("regression") == ("mae", "lower")
        assert improvement_direction("classification") == ("weighted_f1", "higher")


class TestUnimodalOrdering:
    def test_informative_modality_has_lower_val_mae(self):
        cfg = small_config(
            spec=dict(
                n_instances=1000,
                modality_dims=(16, 16),
                informativeness=(0.9, 0.0),
                noise_sigma=0.5,
            ),
            moe=None,
            epochs_unimodal=5,
        )
        dataset = resolve_dataset(cfg)
        cfg = replace(cfg, moe=default_moe_config(dataset))
        models, _uni_train = train_unimodal_all(cfg, dataset)
        val = dataset.batch("val")
        val_mae = [mae(unimodal_forward(models[m], val, m), val.targets) for m in range(2)]
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
