"""Forward/backward correctness for the NumPy mixture-of-experts model."""

import hashlib
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from btwmoe.errors import (
    InvalidInputError,
    NumericOverflowError,
)
from btwmoe.moe import (
    DataBatch,
    ModelParams,
    MoeConfig,
    _forward,
    _softmax_rows,
    backward,
    forward,
    grad_check,
    init_params,
    load_checkpoint,
    loss_and_pred_grad,
    modality_slice,
    save_checkpoint,
    sgd_step,
)


def make_batch(cfg, n, seed=0, classification=False):
    rng = np.random.default_rng(seed)
    features = [rng.standard_normal((n, d)) for d in cfg.input_dims]
    if classification:
        targets = rng.integers(0, cfg.n_classes, size=n)
    else:
        targets = rng.standard_normal(n)
    return DataBatch(features, targets)


@pytest.fixture
def reg_cfg():
    return MoeConfig(input_dims=(16, 12, 8), embed_dim=32, n_experts=4, top_k=2,
                     expert_hidden=64, n_moe_layers=1, task="regression")


@pytest.fixture
def cls_cfg():
    return MoeConfig(input_dims=(16, 12, 8), task="classification", n_classes=4)


class TestConfig:
    def test_rejects_bad_topk(self):
        with pytest.raises(InvalidInputError):
            MoeConfig(input_dims=(4,), n_experts=2, top_k=3)

    def test_classification_needs_classes(self):
        with pytest.raises(InvalidInputError):
            MoeConfig(input_dims=(4,), task="classification", n_classes=1)


class TestForward:
    def test_public_name_is_the_one_forward(self):
        assert forward is _forward

    def test_all_ones_weights_bit_identical_to_none(self, reg_cfg):
        params = init_params(reg_cfg, 0)
        batch = make_batch(reg_cfg, 16)
        plain, _ = forward(params, batch)
        weighted, _ = forward(params, batch, np.ones((16, 3)))
        assert np.array_equal(plain, weighted)

    def test_full_topk_equals_dense_softmax_mixture(self):
        # With top_k = n_experts the selection mask is vacuous: gate weights
        # must match a dense softmax over all router logits.
        cfg = MoeConfig(input_dims=(8, 8), n_experts=4, top_k=4, n_moe_layers=1)
        params = init_params(cfg, 3)
        batch = make_batch(cfg, 8, seed=3)
        _, trace = forward(params, batch)
        for cache in trace.layer_caches:
            dense_gate = _softmax_rows(cache.logits)
            sparse_mix = np.zeros_like(cache.t_in)
            dense_mix = np.zeros_like(cache.t_in)
            for e in range(cfg.n_experts):  # pairs in dispatch order, grouped by expert
                lo, hi = cache.bounds[e], cache.bounds[e + 1]
                rows, slots = np.divmod(cache.order[lo:hi], cfg.top_k)
                sparse_mix[rows] += cache.gate[rows, slots][:, None] * cache.z2[lo:hi]
                dense_mix[rows] += dense_gate[rows, e][:, None] * cache.z2[lo:hi]
            np.testing.assert_allclose(sparse_mix, dense_mix, atol=1e-12)

    def test_non_finite_expert_output_names_expert(self):
        cfg = MoeConfig(input_dims=(8, 8), n_experts=4, top_k=4, n_moe_layers=2)
        params = init_params(cfg, 3)
        params.exp_b2[0, 2][0] = np.inf
        for keep_trace in (True, False):  # the training and the prediction layout
            with pytest.raises(NumericOverflowError, match=r"expert\[0\]\[2\]$"):
                forward(params, make_batch(cfg, 8, seed=3), keep_trace=keep_trace)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("n_experts, top_k", [(1, 1), (3, 3)], ids=["one_expert", "topE"])
    def test_prediction_pass_equals_traced(self, n_experts, top_k, task, weighted):
        # 2 x 1,100 stacked rows: each expert's block holds 2,200 pairs, more
        # than the largest per-expert group of a prediction pass in the
        # benchmark's btw workloads (2,151 pairs at workload seed 1).
        cfg = MoeConfig(input_dims=(5, 4), embed_dim=6, expert_hidden=10, n_experts=n_experts,
                        top_k=top_k, n_moe_layers=2, task=task, n_classes=3)
        params = ModelParams(cfg, np.random.default_rng(2).standard_normal(cfg.layout[0]) * 0.7)
        n = 1100
        batch = make_batch(cfg, n, seed=2, classification=task == "classification")
        weights = np.random.default_rng(3).uniform(0.1, 2.0, size=(n, 2)) if weighted else None
        traced, trace = forward(params, batch, weights)
        assert all(np.diff(c.bounds).max() > 2048 for c in trace.layer_caches)
        untraced, _ = forward(params, batch, weights, keep_trace=False)
        assert np.array_equal(untraced, traced)

    def test_zero_batch_gives_zero_regression_prediction(self, reg_cfg):
        params = init_params(reg_cfg, 0)
        batch = DataBatch([np.zeros((4, d)) for d in reg_cfg.input_dims])
        pred, _ = forward(params, batch)
        np.testing.assert_array_equal(pred, np.zeros(4))

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_zero_row_batch(self, task, weighted):
        cfg = MoeConfig(input_dims=(5, 4), embed_dim=6, expert_hidden=10, n_experts=3, top_k=2,
                        n_moe_layers=2, task=task, n_classes=3)
        params = init_params(cfg, 0)
        batch = make_batch(cfg, 0, classification=task == "classification")
        weights = np.ones((0, 2)) if weighted else None
        shape = (0,) if task == "regression" else (0, 3)
        untraced, none = forward(params, batch, weights, keep_trace=False)
        assert none is None and untraced.shape == shape
        traced, trace = forward(params, batch, weights)
        assert traced.shape == shape
        grads = backward(trace, np.zeros(shape))
        assert grads.flat.shape == params.flat.shape and np.all(grads.flat == 0.0)

    def test_shape_mismatch_raises(self, reg_cfg):
        params = init_params(reg_cfg, 0)
        bad = DataBatch([np.zeros((4, d + 1)) for d in reg_cfg.input_dims])
        with pytest.raises(InvalidInputError, match=r"modality 0 features \(4, 17\) != \(4, 16\)"):
            forward(params, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("keep_trace", [True, False], ids=["traced", "untraced"])
    def test_non_finite_weights_rejected(self, reg_cfg, bad, keep_trace):
        params = init_params(reg_cfg, 0)
        batch = make_batch(reg_cfg, 4)
        weights = np.ones((4, 3))
        weights[2, 1] = bad
        with pytest.raises(InvalidInputError, match=r"^weights have non-finite entries$"):
            forward(params, batch, weights, keep_trace=keep_trace)
        with pytest.raises(InvalidInputError, match=r"^weights have non-finite entries$"):
            grad_check(params, batch, n_probes=1, weights=weights)

    def test_non_finite_activation_names_layer(self, reg_cfg):
        params = init_params(reg_cfg, 0)
        batch = make_batch(reg_cfg, 4)
        batch.features[1][0, 0] = np.inf
        with pytest.raises(NumericOverflowError, match=r"encoder\[1\]"):
            forward(params, batch)
        # A router: the lowest failing modality of the layer is named.
        cfg = replace(reg_cfg, n_moe_layers=2)
        params = init_params(cfg, 0)
        params.router_w[1, 1] = np.inf
        params.router_w[1, 2] = np.inf
        for keep_trace in (True, False):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(NumericOverflowError, match=r"router\[1\]\[1\]$"):
                forward(params, make_batch(cfg, 4), keep_trace=keep_trace)

    def test_determinism(self, reg_cfg):
        batch = make_batch(reg_cfg, 32, seed=5)
        p1 = init_params(reg_cfg, 7)
        p2 = init_params(reg_cfg, 7)
        pred1, tr1 = forward(p1, batch)
        pred2, tr2 = forward(p2, batch)
        assert np.array_equal(pred1, pred2)
        _, d1 = loss_and_pred_grad(reg_cfg, pred1, batch.targets)
        _, d2 = loss_and_pred_grad(reg_cfg, pred2, batch.targets)
        g1 = backward(tr1, d1)
        g2 = backward(tr2, d2)
        for (name, a), (_, b) in zip(g1.tensors(), g2.tensors()):
            assert np.array_equal(a, b), name

    def test_classification_probs_are_normalized(self, cls_cfg):
        params = init_params(cls_cfg, 0)
        batch = make_batch(cls_cfg, 10, classification=True)
        probs, _ = forward(params, batch)
        assert probs.shape == (10, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestGating:
    def test_gate_rows_normalized_and_sparse(self, reg_cfg):
        params = init_params(reg_cfg, 1)
        batch = make_batch(reg_cfg, 32, seed=1)
        _, trace = forward(params, batch)
        for cache in trace.layer_caches:  # every stream's rows, stacked
            np.testing.assert_allclose(cache.gate.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(cache.gate > 0)
            assert cache.selected.shape == (3 * 32, reg_cfg.top_k)
            # per token: exactly top_k distinct experts selected
            for row in cache.selected:
                assert len(set(row.tolist())) == reg_cfg.top_k

    def test_routing_activation_cardinality(self, reg_cfg):
        params = init_params(reg_cfg, 1)
        batch = make_batch(reg_cfg, 16, seed=2)
        _, trace = forward(params, batch)
        # Activations per instance: top_k per stream (16 stacked rows each) per layer.
        per_instance = sum(
            cache.selected.shape[0] // 16 * cache.selected.shape[1]
            for cache in trace.layer_caches
        )
        assert per_instance <= 3 * reg_cfg.top_k * reg_cfg.n_moe_layers

    def test_tie_break_prefers_lower_index(self):
        cfg = MoeConfig(input_dims=(4,), n_experts=4, top_k=2)
        params = init_params(cfg, 0)
        batch = DataBatch([np.zeros((3, 4))])
        _, trace = forward(params, batch)
        # zero input, zero bias: all router logits tie at 0
        np.testing.assert_array_equal(trace.layer_caches[0].selected,
                                      np.tile([0, 1], (3, 1)))


class TestUnimodalForward:
    def test_single_modality_config_matches_multimodal(self):
        cfg = MoeConfig(input_dims=(10,))
        params = init_params(cfg, 4)
        batch = make_batch(cfg, 12, seed=4)
        uni = modality_slice(params, 0)
        assert uni.config == cfg and np.array_equal(uni.flat, params.flat)
        assert np.array_equal(forward(uni, batch)[0], forward(params, batch)[0])


class TestModalitySlice:
    def test_holds_modality_views_and_shared_tensors(self):
        cfg = MoeConfig(input_dims=(16, 12, 8), n_moe_layers=2)
        params = init_params(cfg, 3)
        full = dict(params.tensors())
        for m, dim in enumerate(cfg.input_dims):
            sliced = modality_slice(params, m)
            assert sliced.config == replace(cfg, input_dims=(dim,))
            for name, arr in sliced.tensors():
                if name.startswith(("enc_", "router_")):  # modality index 0 -> m
                    name = f"{name[: name.rindex('[')]}[{m}]"
                assert np.array_equal(arr, full[name]), name


class TestBackward:
    def test_zero_loss_grad_gives_zero_grads(self, reg_cfg):
        params = init_params(reg_cfg, 0)
        batch = make_batch(reg_cfg, 8)
        pred, trace = forward(params, batch)
        grads = backward(trace, np.zeros_like(pred))
        for name, g in grads.tensors():
            assert np.all(g == 0.0), name

    def test_unselected_expert_grads_exactly_zero(self):
        cfg = MoeConfig(input_dims=(8,), n_experts=4, top_k=1)
        params = init_params(cfg, 4)
        batch = make_batch(cfg, 6, seed=4)
        pred, trace = forward(params, batch)
        selected = set(trace.layer_caches[0].selected.ravel().tolist())
        unselected = set(range(4)) - selected
        assert unselected, "need at least one idle expert for this test"
        _, d_pred = loss_and_pred_grad(cfg, pred, batch.targets)
        grads = backward(trace, d_pred)
        for e in unselected:
            assert np.all(grads.exp_w1[0, e] == 0.0)
            assert np.all(grads.exp_w2[0, e] == 0.0)


class TestGradCheck:
    def test_regression_head(self, reg_cfg):
        params = init_params(reg_cfg, 0)
        batch = make_batch(reg_cfg, 16, seed=0)
        assert grad_check(params, batch, n_probes=50, epsilon=1e-5) < 1e-4

    def test_classification_head(self, cls_cfg):
        params = init_params(cls_cfg, 0)
        batch = make_batch(cls_cfg, 16, seed=0, classification=True)
        assert grad_check(params, batch, n_probes=50, epsilon=1e-5) < 1e-4

    def test_two_layer_model(self):
        cfg = MoeConfig(input_dims=(10, 6), n_moe_layers=2, task="regression")
        params = init_params(cfg, 1)
        batch = make_batch(cfg, 8, seed=1)
        assert grad_check(params, batch, n_probes=80, epsilon=1e-5) < 1e-4

    def test_moe_deep_shape_with_weights(self):
        # The deep benchmark shape: 3 modalities, 2 layers, 8 experts, top-2.
        cfg = MoeConfig(input_dims=(16, 16, 16), embed_dim=16, expert_hidden=32,
                        n_experts=8, top_k=2, n_moe_layers=2, task="regression")
        params = init_params(cfg, 2)
        batch = make_batch(cfg, 64, seed=2)
        weights = np.random.default_rng(2).uniform(0.2, 2.0, size=(64, 3))
        assert grad_check(params, batch, n_probes=80, epsilon=1e-5,
                          weights=weights) < 1e-4

    def test_weighted_forward_gradients(self, reg_cfg):
        # Weight scaling participates in the chain rule; verify numerically.
        params = init_params(reg_cfg, 0)
        batch = make_batch(reg_cfg, 8, seed=3)
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.2, 1.0, size=(8, 3))
        pred, trace = forward(params, batch, weights)
        _, d_pred = loss_and_pred_grad(reg_cfg, pred, batch.targets)
        grads = backward(trace, d_pred)
        eps = 1e-6
        arr = params.enc_w[1]
        analytic = grads.enc_w[1][0, 0]
        orig = arr[0, 0]
        arr[0, 0] = orig + eps
        lp = loss_and_pred_grad(reg_cfg, forward(params, batch, weights)[0], batch.targets)[0]
        arr[0, 0] = orig - eps
        lm = loss_and_pred_grad(reg_cfg, forward(params, batch, weights)[0], batch.targets)[0]
        arr[0, 0] = orig
        assert analytic == pytest.approx((lp - lm) / (2 * eps), rel=1e-4)


class TestSgdStep:
    def test_zero_lr_and_zero_grads_leave_params(self, reg_cfg):
        params = init_params(reg_cfg, 0)
        grads = ModelParams(reg_cfg)
        same = sgd_step(params, grads, lr=0.5)
        for (_, a), (_, b) in zip(params.tensors(), same.tensors()):
            assert np.array_equal(a, b)
        frozen = sgd_step(params, ModelParams(reg_cfg, np.ones_like(params.flat)), lr=0.0)
        for (_, a), (_, b) in zip(params.tensors(), frozen.tensors()):
            assert np.array_equal(a, b)

    def test_scalar_arithmetic(self):
        cfg = MoeConfig(input_dims=(2,))
        params = init_params(cfg, 0)
        params.head_b[0] = 1.0
        grads = ModelParams(cfg)
        grads.head_b[0] = 2.0
        stepped = sgd_step(params, grads, lr=0.1)
        assert stepped.head_b[0] == pytest.approx(0.8)

    def test_non_finite_grads_rejected(self, reg_cfg):
        params = init_params(reg_cfg, 0)
        grads = ModelParams(reg_cfg)
        grads.head_w[0, 0] = np.nan
        with pytest.raises(NumericOverflowError, match=r"gradient for head_w$"):
            sgd_step(params, grads, lr=0.1)
        grads = ModelParams(reg_cfg)
        grads.exp_w1[0, 2][1, 3] = np.inf
        with pytest.raises(NumericOverflowError, match=r"gradient for exp_w1\[0\]\[2\]$"):
            sgd_step(params, grads, lr=0.1)


class TestWeightLocality:
    def test_changing_one_weight_touches_only_that_instance(self, reg_cfg):
        params = init_params(reg_cfg, 0)
        batch = make_batch(reg_cfg, 10, seed=6)
        w = np.ones((10, 3))
        base, _ = forward(params, batch, w)
        w2 = w.copy()
        w2[4, 1] = 0.5
        changed, _ = forward(params, batch, w2)
        mask = np.arange(10) != 4
        assert np.array_equal(base[mask], changed[mask])
        assert base[4] != changed[4]


class TestLossSanity:
    def test_sgd_recovers_linear_regression_signal(self):
        cfg = MoeConfig(input_dims=(8, 8), task="regression")
        params = init_params(cfg, 0)
        rng = np.random.default_rng(42)
        features = [rng.standard_normal((64, 8)) for _ in range(2)]
        targets = features[0] @ rng.standard_normal(8) * 0.3
        batch = DataBatch(features, targets)
        initial = None
        for _ in range(200):
            pred, trace = forward(params, batch)
            loss, d_pred = loss_and_pred_grad(cfg, pred, targets)
            if initial is None:
                initial = loss
            params = sgd_step(params, backward(trace, d_pred), lr=0.05)
        final, _ = loss_and_pred_grad(cfg, forward(params, batch)[0], targets)
        assert final <= 0.1 * initial


class TestCheckpoint:
    def test_round_trip_bit_identical(self, reg_cfg, tmp_path):
        params = init_params(reg_cfg, 9)
        batch = make_batch(reg_cfg, 8, seed=9)
        path = tmp_path / "model.btwm"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == reg_cfg
        assert np.array_equal(forward(params, batch)[0], forward(loaded, batch)[0])

    def test_pickle_keeps_views_on_one_buffer(self, reg_cfg):
        params = init_params(reg_cfg, 9)
        copy = pickle.loads(pickle.dumps(params))
        assert copy.config == reg_cfg
        assert np.array_equal(copy.flat, params.flat)
        for (name, view), (_, original) in zip(copy.tensors(), params.tensors()):
            assert np.shares_memory(view, copy.flat), name
            assert np.array_equal(view, original), name

    def test_format_bytes_pinned(self, reg_cfg, tmp_path):
        # Format v1 as written before parameters moved into one flat buffer.
        path = tmp_path / "model.btwm"
        save_checkpoint(init_params(reg_cfg, 9), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "294f24ddbc298dc7231d18f26fe3f7ab08b7355f6475f1ec4c05ab349f1f26ad"
        )

    def test_magic_and_version_enforced(self, reg_cfg, tmp_path):
        path = tmp_path / "model.btwm"
        save_checkpoint(init_params(reg_cfg, 0), path)
        blob = bytearray(path.read_bytes())
        assert bytes(blob[:4]) == b"BTWM"
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(InvalidInputError):
            load_checkpoint(path)


def reference_pass(params, batch, weights, loss_grad, magnitudes=False):
    """Predictions and named gradients from a loop over streams and experts.

    This is the model computed one modality stream at a time, each expert
    found by np.nonzero(selected == e): the reference for stacked dispatch.
    With magnitudes=True the backward pass runs on absolute values, every
    difference turned into a sum: each gradient entry is then the size of
    the terms it sums before they cancel, which bounds its rounding error.
    """
    cfg = params.config
    n_mod = cfg.n_modalities
    a = np.abs if magnitudes else (lambda x: x)
    minus = np.add if magnitudes else np.subtract
    streams, caches = [], []
    for m in range(n_mod):
        t = batch.features[m] @ params.enc_w[m] + params.enc_b[m]
        if weights is not None:
            t = t * weights[:, m : m + 1]
        layers = []
        for layer in range(cfg.n_moe_layers):
            logits = t @ params.router_w[layer, m]
            selected = np.argsort(-logits, axis=1, kind="stable")[:, : cfg.top_k]
            gate = _softmax_rows(np.take_along_axis(logits, selected, axis=1))
            out = np.zeros_like(t)
            experts = {}
            for e in range(cfg.n_experts):
                rows, slots = np.nonzero(selected == e)
                if rows.size == 0:
                    continue
                z1 = t[rows] @ params.exp_w1[layer, e] + params.exp_b1[layer, e]
                h = 0.5 * z1 * (1.0 + erf(z1 / np.sqrt(2.0)))
                z2 = h @ params.exp_w2[layer, e] + params.exp_b2[layer, e]
                out[rows] += gate[rows, slots][:, None] * z2
                experts[e] = (rows, slots, z1, h, z2)
            layers.append((t, logits, selected, gate, experts))
            t = t + out
        streams.append(t)
        caches.append(layers)
    pooled = sum(streams) / n_mod
    scores = pooled @ params.head_w + params.head_b
    if cfg.task == "regression":
        predictions, d_scores = scores[:, 0], a(loss_grad[:, None])
    else:
        predictions = _softmax_rows(scores)
        d_scores = predictions * minus(
            a(loss_grad), np.sum(a(loss_grad) * predictions, axis=1, keepdims=True))

    grads = {name: np.zeros_like(arr) for name, arr in params.tensors()}
    grads["head_w"] += a(pooled).T @ d_scores
    grads["head_b"] += d_scores.sum(axis=0)
    d_pooled = d_scores @ a(params.head_w).T
    for m in range(n_mod):
        d_t = d_pooled / n_mod
        for layer in reversed(range(cfg.n_moe_layers)):
            t_in, logits, selected, gate, experts = caches[m][layer]
            d_t_in = d_t.copy()
            d_gate = np.zeros_like(gate)
            for e, (rows, slots, z1, h, z2) in experts.items():
                d_rows = d_t[rows]
                d_gate[rows, slots] += np.sum(d_rows * a(z2), axis=1)
                d_z2 = gate[rows, slots][:, None] * d_rows
                grads[f"exp_w2[{layer}][{e}]"] += a(h).T @ d_z2
                grads[f"exp_b2[{layer}][{e}]"] += d_z2.sum(axis=0)
                gelu_grad = (0.5 * (1.0 + erf(z1 / np.sqrt(2.0)))
                             + z1 * np.exp(-0.5 * z1 * z1) / np.sqrt(2.0 * np.pi))
                d_z1 = (d_z2 @ a(params.exp_w2[layer, e]).T) * a(gelu_grad)
                grads[f"exp_w1[{layer}][{e}]"] += a(t_in[rows]).T @ d_z1
                grads[f"exp_b1[{layer}][{e}]"] += d_z1.sum(axis=0)
                d_t_in[rows] += d_z1 @ a(params.exp_w1[layer, e]).T
            d_sel = gate * minus(d_gate, np.sum(d_gate * gate, axis=1, keepdims=True))
            d_logits = np.zeros_like(logits)
            np.put_along_axis(d_logits, selected, d_sel, axis=1)
            grads[f"router_w[{layer}][{m}]"] += a(t_in).T @ d_logits
            d_t_in += d_logits @ a(params.router_w[layer, m]).T
            d_t = d_t_in
        if weights is not None:
            d_t = d_t * weights[:, m : m + 1]
        grads[f"enc_w[{m}]"] += a(batch.features[m]).T @ d_t
        grads[f"enc_b[{m}]"] += d_t.sum(axis=0)
    return predictions, grads


def assert_close_to_reference(got, ref, what, scale=None):
    # Relative to the largest entry of the reference, or of the given scale,
    # so an exact zero (an idle expert's gradient) must stay exactly zero.
    scale = np.abs(ref) if scale is None else scale
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * np.max(scale, initial=0.0), what


@st.composite
def dispatch_cases(draw):
    n_mod = draw(st.integers(1, 4))
    n_experts = draw(st.integers(1, 6))
    return dict(
        input_dims=tuple(draw(st.lists(st.integers(1, 5), min_size=n_mod, max_size=n_mod))),
        embed_dim=draw(st.integers(1, 5)),
        expert_hidden=draw(st.integers(1, 5)),
        n_experts=n_experts,
        top_k=draw(st.integers(1, n_experts)),
        n_moe_layers=draw(st.sampled_from([1, 2])),
        classification=draw(st.booleans()),
        batch=draw(st.integers(1, 6)),
        weighted=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestStackedDispatch:
    @given(dispatch_cases())
    @example(dict(input_dims=(3,), embed_dim=2, expert_hidden=2, n_experts=4, top_k=1,
                  n_moe_layers=2, classification=False, batch=1, weighted=True,
                  seed=0))  # one row: three experts idle per layer
    @example(dict(input_dims=(3, 4, 2, 5), embed_dim=4, expert_hidden=4, n_experts=3, top_k=2,
                  n_moe_layers=1, classification=False, batch=1, weighted=False,
                  seed=6324))  # a router gradient that cancels to 1e-8 of its terms
    @settings(max_examples=80, deadline=None)
    def test_matches_per_stream_per_expert_loop(self, case):
        cfg = MoeConfig(
            input_dims=case["input_dims"], embed_dim=case["embed_dim"],
            expert_hidden=case["expert_hidden"], n_experts=case["n_experts"],
            top_k=case["top_k"], n_moe_layers=case["n_moe_layers"],
            task="classification" if case["classification"] else "regression",
            n_classes=3 if case["classification"] else 0,
        )
        rng = np.random.default_rng(case["seed"])
        # Random values everywhere, biases included.
        params = ModelParams(cfg, rng.standard_normal(cfg.layout[0]) * 0.7)
        b = case["batch"]
        batch = DataBatch([rng.standard_normal((b, d)) for d in cfg.input_dims])
        weights = None
        if case["weighted"]:
            weights = rng.uniform(0.1, 2.0, size=(b, cfg.n_modalities))
        loss_grad = rng.standard_normal((b, 3) if case["classification"] else b)

        predictions, trace = _forward(params, batch, weights=weights)
        grads = backward(trace, loss_grad)
        ref_predictions, ref_grads = reference_pass(params, batch, weights, loss_grad)
        _, magnitudes = reference_pass(params, batch, weights, loss_grad, magnitudes=True)

        assert_close_to_reference(predictions, ref_predictions, "predictions")
        for name, got in grads.tensors():
            # A router gradient is a difference of gate terms (under top-2,
            # g0 * g1 * (d0 - d1)) that can cancel to far below the terms
            # themselves, whose last ulp may differ between the stacked and
            # the per-stream matmuls: bound it by the terms' size.
            scale = magnitudes[name] if name.startswith("router_w") else None
            assert_close_to_reference(got, ref_grads[name], name, scale)
        untraced, no_trace = _forward(params, batch, weights=weights, keep_trace=False)
        assert no_trace is None and np.array_equal(untraced, predictions)

    @pytest.mark.parametrize("top_k, task, digest", [
        (1, "regression", "6776238c9852faa376befa802333ab20c60bc354ccf33ac8f758228ffbd13792"),
        (8, "classification",
         "ac9fbb058277e5451b02ea3d4fcf1364368090503074bb1201c2a36007db6de9"),
    ], ids=["top1", "topE"])
    def test_predictions_and_gradients_pinned(self, top_k, task, digest):
        # Two layers of eight experts with modality weights; top_k=1 leaves an
        # expert idle. The digest was computed with the per-expert loop that
        # ran the whole expert chain, elementwise steps included, per group.
        cfg = MoeConfig(input_dims=(6, 5, 4), embed_dim=8, expert_hidden=12, n_experts=8,
                        top_k=top_k, n_moe_layers=2, task=task, n_classes=3)
        params = init_params(cfg, 11)
        batch = make_batch(cfg, 5, seed=11, classification=task == "classification")
        weights = np.random.default_rng(11).uniform(0.2, 2.0, size=(5, 3))
        predictions, trace = forward(params, batch, weights)
        _, d_pred = loss_and_pred_grad(cfg, predictions, batch.targets)
        grads = backward(trace, d_pred)
        if top_k == 1:
            assert any(0 in np.bincount(c.selected.ravel(), minlength=8)
                       for c in trace.layer_caches)
        fingerprint = hashlib.sha256(predictions.tobytes() + grads.flat.tobytes()).hexdigest()
        assert fingerprint == digest
