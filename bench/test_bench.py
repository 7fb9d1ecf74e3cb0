"""Tests of the benchmark itself: tracing changes no result and leaves the
package as it found it, counters are exact, the gate catches bad output, and
BENCHMARK.json declares what the harness reports.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import tracing
from btwmoe import reports, training
from btwmoe.config import build_experiment_config, parse_config_text

TINY = """
variant=btw
lr=0.02
batch_size=64
epochs.unimodal=2
epochs.warm=1
epochs.weighted=2
moe.embed_dim=8
moe.expert_hidden=8
data.n_instances=200
data.modality_dims=4,4,4
data.informativeness=0.9,0.5,0.0
data.noise_sigma=1.0
data.nonlinearity=linear
data.seed=0
"""


def tiny_config(task: str, seed: int = 3):
    extra = "" if task == "regression" else "data.n_classes=3"
    return build_experiment_config(
        parse_config_text(f"{TINY}\ndata.task={task}\n{extra}\nseed={seed}")
    )


def package_namespaces() -> dict:
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "btwmoe" or name.startswith("btwmoe.")}


def traced_run(config, experiment: int, tracer: tracing.Tracer):
    tracer.experiment = experiment
    with tracer.installed():
        return tracer.call("experiment", training.run_experiment, config)


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_tracing_changes_no_result_and_restores_every_attribute(task):
    config = tiny_config(task)
    before = package_namespaces()
    plain = training.run_experiment(config)
    traced = traced_run(config, 0, tracing.Tracer())
    after = package_namespaces()

    assert harness.fingerprint(traced.test_bundle) == harness.fingerprint(plain.test_bundle)
    for a, b in zip(plain.weight_matrices, traced.weight_matrices):
        assert np.array_equal(a, b)
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys(), name
        changed = [attr for attr, value in namespace.items() if after[name][attr] is not value]
        assert changed == [], f"{name}: {changed}"


def test_wrappers_are_in_place_only_inside_the_block():
    original = training._forward
    tracer = tracing.Tracer()
    with tracer.installed():
        assert training._forward is not original
        assert sys.modules["btwmoe.moe"]._forward is training._forward
    assert training._forward is original


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_counters_are_exact_and_repeat(task):
    tracer = tracing.Tracer()
    results = [traced_run(tiny_config(task, seed), i, tracer) for i, seed in enumerate((3, 4))]
    n_mod = 3
    n_train = results[0].dataset.indices("train").size
    n_val = results[0].dataset.indices("val").size
    epochs = results[0].config.epochs_weighted
    expected = {
        "distributions.kl_calls": n_mod * n_train * epochs,
        # frozen unimodal, initial multimodal and one refresh per weighted epoch
        # on train; frozen unimodal, initial and final multimodal on val
        "distributions.residual_variance_calls": (
            n_train * (n_mod + 1 + epochs) + n_val * (n_mod + 2) if task == "regression" else 0
        ),
    }
    for i in range(2):
        for name, value in expected.items():
            assert tracer.counts.get((i, name), 0) == value, name
        totals = tracer.layer_totals(i)
        mi_span = "mi.ksg" if task == "regression" else "mi.discrete"
        assert totals[mi_span]["calls"] == n_mod * epochs
        assert totals["moe.backward"]["calls"] == totals["moe.sgd_step"]["calls"]
    assert tracer.counts[(0, "moe.forward_rows")] == tracer.counts[(1, "moe.forward_rows")]
    assert tracer.layer_totals(0)["moe.forward"]["calls"] == tracer.layer_totals(1)["moe.forward"]["calls"]


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span(1, "child", 1.0, 4.0, 0, 7),
        tracing.Span(2, "child", 5.0, 6.0, 0, 7),
        tracing.Span(0, "parent", 0.0, 10.0, None, 7),
    ]
    assert tracer.self_times() == {0: 6.0, 1: 3.0, 2: 1.0}
    assert tracer.layer_totals(7) == {
        "child": {"total_s": 4.0, "self_s": 4.0, "calls": 2},
        "parent": {"total_s": 10.0, "self_s": 6.0, "calls": 1},
    }


def test_tail_has_ten_samples_above_and_never_drops_below_the_median():
    assert harness.tail([float(x) for x in range(1, 31)]) == (20.0, 100.0 * 20 / 30)
    assert harness.tail([float(x) for x in range(1, 9)]) == (4.0, 50.0)


def test_benchmark_experiment_matches_a_plain_run_and_passes_the_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    config = tiny_config("regression")
    outcome = harness.Outcome(index=0, seed=config.seed, timed=True, traced=False)
    harness.run_one(config, outcome)
    plain = training.run_experiment(config)
    assert outcome.problems == []
    assert harness.fingerprint(outcome.test) == harness.fingerprint(plain.test_bundle)
    assert outcome.bytes_written > 0


@pytest.mark.parametrize("trace", [False, True])
def test_a_short_run_reports_every_declared_metric(trace, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    config = tiny_config("regression")
    setup = harness.Setup(config, harness.derive_seeds(1), None)
    tracer = tracing.Tracer() if trace else None
    outcomes = harness.run_loop(setup, 0.0, tracer)
    assert [(o.timed, o.traced) for o in outcomes] == [(False, trace), (True, False), (True, trace)]
    assert all(o.problems == [] for o in outcomes)
    if trace:
        values, problems, table = harness.per_layer(tracer, outcomes)
        declared = harness.PER_LAYER
        assert problems == [] and "experiment" in table
        assert values["distributions.kl_calls"] > 0 and values["mi.discrete_s"] == 0.0
    else:
        values, _ = harness.end_to_end(setup, outcomes, [0.5])
        declared = harness.END_TO_END
    assert sorted(values) == sorted(name for name, _ in declared)


def test_gate_flags_bad_weights_and_a_mismatched_export(tmp_path):
    result = training.run_experiment(tiny_config("classification"))
    reports.export_result(result, tmp_path)
    assert harness.check(result, tmp_path) == []

    result.weight_matrices[0] = result.weight_matrices[0] * 2.0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    metrics["test"]["accuracy"] += 1e-12
    (tmp_path / "metrics.json").write_text(json.dumps(metrics))
    problems = harness.check(result, tmp_path)
    assert any("row-stochastic" in p for p in problems)
    assert any("metrics.json" in p for p in problems)


def test_generated_config_replaces_each_overridden_key_once():
    base = (harness.ROOT / "configs" / "noise_default.cfg").read_text()
    overrides = {**harness.WORKLOADS["moe-deep"].overrides, "seed": 5}
    values = parse_config_text(harness.config_text(base, overrides))
    config = build_experiment_config(values)
    assert (config.variant, config.batch_size, config.seed) == ("unweighted", 64, 5)
    assert (config.moe.n_moe_layers, config.moe.n_experts, config.moe.top_k) == (2, 8, 2)
    assert harness.derive_seeds(5) == harness.derive_seeds(5) != harness.derive_seeds(6)


def test_benchmark_json_declares_what_the_harness_reports():
    declared = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(harness.PER_LAYER)
    assert declared["paths"] == [Path(harness.__file__).parent.name]
