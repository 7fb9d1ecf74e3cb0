"""Acceptance criteria for the whole package, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Criteria 6 and 7 train real experiment grids on the bundled
default noise config, and criterion 11 on the bundled classification config;
they dominate the runtime.
"""

import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, empirical_entropy, uniform_mi, unit_weight_smoothing

from btwmoe.distributions import GaussianParams, gaussian_kl, kl_quadrature_oracle
from btwmoe.metrics import acc_k, f1_scores
from btwmoe.mi import discrete_mi, gaussian_mi_analytic, ksg_mi
from btwmoe.moe import DataBatch, MoeConfig, grad_check, init_params
from btwmoe.weighting import ALPHA_INIT


@contextmanager
def criterion(number: int, label: str):
    outcome = {"detail": ""}

    def emit(status: str):
        line = f"ACCEPTANCE {number:2d} {label}: {status} {outcome['detail']}"
        ACCEPTANCE_LINES.append(line)
        print(line, file=sys.stderr)

    try:
        yield outcome
    except (AssertionError, Exception):
        emit("FAIL")
        raise
    emit("PASS")


def test_criterion_1_gaussian_kl_matches_quadrature_oracle():
    with criterion(1, "closed-form Gaussian KL vs quadrature") as out:
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            p = GaussianParams(float(rng.uniform(-10, 10)), float(rng.uniform(0.01, 100)))
            q = GaussianParams(float(rng.uniform(-10, 10)), float(rng.uniform(0.01, 100)))
            gap = abs(gaussian_kl(p, q) - kl_quadrature_oracle(p, q, 100_000))
            worst = max(worst, gap)
        elapsed = time.perf_counter() - started
        out["detail"] = f"(max gap {worst:.2e}, {elapsed:.1f}s)"
        assert worst <= 1e-6
        assert elapsed < 5.0


def test_criterion_2_ksg_estimator_accuracy():
    with criterion(2, "KSG MI accuracy on bivariate normals") as out:
        started = time.perf_counter()
        target = gaussian_mi_analytic(0.9)
        estimates = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            xy = rng.multivariate_normal([0, 0], [[1, 0.9], [0.9, 1]], size=10_000)
            estimates.append(ksg_mi(xy[:, 0], xy[:, 1]))
        mean_est = float(np.mean(estimates))

        rng = np.random.default_rng(99)
        indep = ksg_mi(rng.standard_normal(10_000), rng.standard_normal(10_000))
        elapsed = time.perf_counter() - started
        out["detail"] = f"(mean {mean_est:.4f} vs {target:.4f}, indep {indep:.4f}, {elapsed:.1f}s)"
        assert abs(mean_est - target) <= 0.05
        assert abs(indep) <= 0.02
        assert elapsed < 30.0


def test_criterion_3_discrete_mi_self_information_and_symmetry():
    with criterion(3, "discrete MI self-information and symmetry") as out:
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 400))
            c = int(rng.integers(2, 7))
            a = rng.integers(0, c, size=n)
            worst = max(worst, abs(discrete_mi(a, a) - empirical_entropy(a)))
            b = rng.integers(0, c, size=n)
            assert discrete_mi(a, b) == discrete_mi(b, a)
        out["detail"] = f"(max self-info gap {worst:.2e})"
        assert worst <= 1e-12


def test_criterion_4_gradient_fidelity_both_heads():
    with criterion(4, "analytic gradients vs finite differences") as out:
        started = time.perf_counter()
        rng = np.random.default_rng(0)
        reg_cfg = MoeConfig(input_dims=(16, 12, 8), task="regression")
        reg_batch = DataBatch(
            [rng.standard_normal((16, d)) for d in reg_cfg.input_dims],
            rng.standard_normal(16),
        )
        err_reg = grad_check(init_params(reg_cfg, 0), reg_batch, n_probes=50, epsilon=1e-5)

        cls_cfg = MoeConfig(input_dims=(16, 12, 8), task="classification", n_classes=4)
        cls_batch = DataBatch(
            [rng.standard_normal((16, d)) for d in cls_cfg.input_dims],
            rng.integers(0, 4, size=16),
        )
        err_cls = grad_check(init_params(cls_cfg, 0), cls_batch, n_probes=50, epsilon=1e-5)
        elapsed = time.perf_counter() - started
        out["detail"] = f"(reg {err_reg:.2e}, cls {err_cls:.2e}, {elapsed:.1f}s)"
        assert err_reg < 1e-4
        assert err_cls < 1e-4
        assert elapsed < 10.0


def test_criterion_5_equation_reduction_identities(default_config, monkeypatch):
    with criterion(5, "weight-combination reduction identities, bit-for-bit") as out:
        from dataclasses import replace

        from btwmoe import training
        from btwmoe.training import run_experiment

        # Shrink the default config so the four runs stay fast.
        small_data = replace(default_config.data, n_instances=400)
        base = replace(
            default_config, data=small_data, epochs_unimodal=3, epochs_warm=2,
            epochs_weighted=3, batch_size=64,
        )

        r_local = run_experiment(replace(base, variant="btw_local"))
        r_unweighted = run_experiment(replace(base, variant="unweighted"))
        with monkeypatch.context() as patch:
            patch.setattr(training, "modality_mi", uniform_mi)
            r_btw = run_experiment(replace(base, variant="btw"))
        assert len(r_btw.weight_matrices) == len(r_local.weight_matrices) > 0
        for wa, wb in zip(r_btw.weight_matrices, r_local.weight_matrices):
            assert np.array_equal(wa, wb)

        with monkeypatch.context() as patch:
            patch.setattr(training, "smooth_update", unit_weight_smoothing(training.smooth_update))
            r_hooked = run_experiment(replace(base, variant="btw_local"))
        assert len(r_hooked.records) == len(r_unweighted.records)
        for a, b in zip(r_hooked.records, r_unweighted.records):
            assert a.train_loss == b.train_loss
            assert a.val_loss == b.val_loss
        out["detail"] = "(uniform-MI == local; all-ones weights == baseline)"


def test_criterion_6_noise_modality_mi_demotion(run_cache):
    with criterion(6, "noise modality gets minimal MI weight") as out:
        hits = 0
        for seed in range(10):
            result = run_cache.get("btw", seed)
            final_mi = result.records[-1].mi
            hits += int(np.argmin(final_mi) == 2)
        elapsed = run_cache.total_duration(("btw", s) for s in range(10))
        out["detail"] = f"({hits}/10 seeds, {elapsed:.0f}s of training)"
        assert hits >= 9
        assert elapsed < 300.0


def test_criterion_7_end_to_end_directional_improvement(run_cache):
    with criterion(7, "directional improvement over the unweighted baseline") as out:
        seeds = range(5)
        mae_unweighted = float(np.mean(
            [run_cache.get("unweighted", s).test_bundle["mae"] for s in seeds]
        ))
        mae_local = float(np.mean(
            [run_cache.get("btw_local", s).test_bundle["mae"] for s in seeds]
        ))
        mae_btw = float(np.mean(
            [run_cache.get("btw", s).test_bundle["mae"] for s in seeds]
        ))
        acc5_unweighted = float(np.mean(
            [run_cache.get("unweighted", s).test_bundle["acc5"] for s in seeds]
        ))
        acc5_btw = float(np.mean(
            [run_cache.get("btw", s).test_bundle["acc5"] for s in seeds]
        ))
        keys = [(v, s) for v in ("unweighted", "btw_local", "btw") for s in seeds]
        elapsed = run_cache.total_duration(keys)
        out["detail"] = (
            f"(MAE btw {mae_btw:.4f}, local {mae_local:.4f}, "
            f"unweighted {mae_unweighted:.4f}; "
            f"Acc-5 btw {acc5_btw:.4f} vs unweighted {acc5_unweighted:.4f}; "
            f"{elapsed:.0f}s of training)"
        )
        assert elapsed < 600.0
        # The bi-level method improves on the unweighted baseline.
        assert acc5_btw >= acc5_unweighted
        assert mae_btw <= mae_unweighted
        # KL-only weights mark a pure-noise modality as unique information
        # and amplify it, so btw_local may land behind the baseline (the
        # detail line shows by how much). Multiplying in the modality MI
        # level is what repairs this, so btw must beat btw_local.
        assert mae_btw < mae_local


def test_criterion_8_smoothing_contract(run_cache):
    with criterion(8, "alpha clamp, exact steps, row-stochastic weights") as out:
        result = run_cache.get("btw", 0)
        alphas = [ALPHA_INIT] + [r.alpha for r in result.weighted_records]
        for prev, cur in zip(alphas, alphas[1:]):
            assert 0.1 <= cur <= 0.9
            step = cur - prev
            assert min(abs(step), abs(step - 0.1), abs(step + 0.1)) < 1e-12
        for w in result.weight_matrices:
            assert np.all(w >= 0) and np.all(w <= 1 + 1e-9)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
        out["detail"] = f"(alpha path {['%.1f' % a for a in alphas]})"


def test_criterion_9_cmd_train_byte_identical(tmp_path):
    with criterion(9, "cmd_train reruns byte-identical") as out:
        from btwmoe.cli import main

        cfg = tmp_path / "experiment.cfg"
        cfg.write_text(
            "variant=btw\nseed=3\nlr=0.02\nbatch_size=64\n"
            "epochs.unimodal=2\nepochs.warm=1\nepochs.weighted=2\n"
            "moe.embed_dim=8\nmoe.expert_hidden=16\n"
            "data.n_instances=240\ndata.modality_dims=6,6,6\n"
            "data.informativeness=0.9,0.5,0.0\ndata.noise_sigma=1.0\n"
            "data.task=regression\ndata.seed=3\n"
        )
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
        records_equal = (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
        weights_equal = (
            (out1 / "weights_trajectory.csv").read_bytes()
            == (out2 / "weights_trajectory.csv").read_bytes()
        )
        out["detail"] = "(records.csv and weights_trajectory.csv)"
        assert records_equal and weights_equal


def test_criterion_10_metric_protocol_hand_cases():
    with criterion(10, "hand-computed metric protocol cases") as out:
        # Acc-7 round-then-clamp.
        assert acc_k([2.6, -3.4], [3.0, -3.0], 7) == 1.0
        assert acc_k([3.7, 0.4], [3.0, 0.0], 7) == 1.0
        # Acc-2 zero-handling pair.
        assert acc_k([0.1, -0.1], [0.0, -2.0], "2-nonzero") == 1.0
        assert acc_k([0.1, -0.1], [0.0, -2.0], "2-include-zero") == 0.5
        # Macro/weighted F1 confusion-matrix case.
        pred = np.zeros(10, dtype=int)
        true = np.array([0] * 5 + [1] * 5)
        macro, weighted, accuracy = f1_scores(pred, true)
        assert accuracy == 0.5
        assert macro == pytest.approx(1 / 3, abs=1e-12)
        assert weighted == pytest.approx(1 / 3, abs=1e-12)
        # Equal supports: weighted == macro exactly.
        rng = np.random.default_rng(5)
        true_eq = np.repeat([0, 1, 2, 3], 25)
        pred_eq = rng.integers(0, 4, size=100)
        m2, w2, _ = f1_scores(pred_eq, true_eq)
        assert m2 == w2
        out["detail"] = "(Acc-7 binning, Acc-2 zero pair, F1 confusion cases)"


def test_criterion_11_classification_directional_improvement(classification_run_cache):
    with criterion(11, "classification improvement over the unweighted baseline") as out:
        seeds = range(5)

        def mean_test(variant, key):
            return float(np.mean(
                [classification_run_cache.get(variant, s).test_bundle[key] for s in seeds]
            ))

        variants = ("btw", "btw_local", "unweighted")
        wf1 = {v: mean_test(v, "weighted_f1") for v in variants}
        acc = {v: mean_test(v, "accuracy") for v in variants}
        keys = [(v, s) for v in variants for s in seeds]
        elapsed = classification_run_cache.total_duration(keys)
        out["detail"] = (
            f"(weighted F1 / accuracy: btw {wf1['btw']:.4f} / {acc['btw']:.4f}, "
            f"local {wf1['btw_local']:.4f} / {acc['btw_local']:.4f}, "
            f"unweighted {wf1['unweighted']:.4f} / {acc['unweighted']:.4f}; "
            f"{elapsed:.0f}s of training)"
        )
        # PAPER.md claims gains in multiclass classification too; btw_local
        # is reported above and not asserted either way.
        assert wf1["btw"] > wf1["unweighted"]
        assert acc["btw"] >= acc["unweighted"]
