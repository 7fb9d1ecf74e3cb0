"""Closed-loop benchmark of btwmoe experiments.

One process, one client, no worker pool: experiments run back to back, the
way a researcher runs `btwmoe train`, without the process start-up. One
experiment is `run_experiment` followed by `export_result` into a fresh
temporary directory. Every experiment passes a correctness gate; a failure
counts against the run and makes it exit non-zero.

With --trace 0 the run reports the end-to-end metrics, with tracing off.
With --trace 1 it alternates untraced and traced experiments and reports the
per-layer metrics of the traced ones (see tracing.py), plus the ratio of the
two experiment times. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a summary (and, when
traced, every span) is written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from btwmoe import reports, training
from btwmoe.config import load_experiment_config
from btwmoe.moe import REGRESSION
from btwmoe.synthetic import Dataset
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"

# Distinct experiment seeds per run, cycled; about as many as the slowest
# workload completes in a run, so the quality median covers all of them.
SEEDS_PER_RUN = 9
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    base: str  # bundled config under configs/
    overrides: dict = field(default_factory=dict)  # keys replaced in the generated config


WORKLOADS = {
    # The paper's method on its headline data; the only workload that runs
    # the Gaussian KL, the residual-variance refresh and KSG MI.
    "regress-btw": Workload("noise_default.cfg"),
    # The categorical KL loop dominates; MI takes the contingency-table
    # path, so a KSG change should show nothing here.
    "classify-btw": Workload("classification_4class.cfg"),
    # No weighting at all, 4x the batches and 4x the expert loops per batch:
    # MoE dispatch changes show most here, weighting changes not at all.
    "moe-deep": Workload(
        "noise_default.cfg",
        {"variant": "unweighted", "batch_size": 64,
         "moe.n_moe_layers": 2, "moe.n_experts": 8, "moe.top_k": 2},
    ),
}

# Declared in BENCHMARK.json. The median and tail experiment times, the fail
# ratio and the quality metric under its task's own name are printed too
# (see README.md for why they are not declared).
END_TO_END = (
    ("run_s_mean", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("test_error", "1"),
)

PER_LAYER = (
    ("synthetic.generate_s", "s"),
    ("training.unimodal_s", "s"),
    ("training.warm_s", "s"),
    ("training.weighted_s", "s"),
    ("training.weighted_epoch_s", "s"),
    ("training.refresh_s", "s"),
    ("moe.forward_s", "s"),
    ("moe.forward_calls", "count"),
    ("moe.forward_rows", "count"),
    ("moe.backward_s", "s"),
    ("moe.backward_calls", "count"),
    ("moe.sgd_step_s", "s"),
    ("weighting.instance_kl_s", "s"),
    ("weighting.combine_s", "s"),
    ("weighting.smooth_s", "s"),
    ("weighting.share", "ratio"),
    ("distributions.kl_calls", "count"),
    ("distributions.residual_variance_calls", "count"),
    ("mi.ksg_s", "s"),
    ("mi.ksg_calls", "count"),
    ("mi.discrete_s", "s"),
    ("reports.export_s", "s"),
    ("reports.bytes_written", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)

# Per-layer metrics summed over the spans of one experiment: inclusive seconds...
SPAN_SECONDS = {
    "training.unimodal_s": "training.unimodal",
    "training.warm_s": "training.warm",
    "training.weighted_s": "training.weighted",
    "training.refresh_s": "training.refresh",
    "moe.forward_s": "moe.forward",
    "moe.backward_s": "moe.backward",
    "moe.sgd_step_s": "moe.sgd_step",
    "weighting.instance_kl_s": "weighting.instance_kl",
    "weighting.combine_s": "weighting.combine",
    "weighting.smooth_s": "weighting.smooth",
    "mi.ksg_s": "mi.ksg",
    "mi.discrete_s": "mi.discrete",
    "reports.export_s": "reports.export",
}
# ...and calls.
SPAN_CALLS = {
    "moe.forward_calls": "moe.forward",
    "moe.backward_calls": "moe.backward",
    "mi.ksg_calls": "mi.ksg",
}
# Counted by the tracer.
COUNTER_METRICS = (
    "moe.forward_rows",
    "distributions.kl_calls",
    "distributions.residual_variance_calls",
)
# Counts that must repeat exactly across the experiments of a traced run.
EXACT_COUNTERS = (*SPAN_CALLS, *COUNTER_METRICS)

# Spans whose time is the weighting machinery ROADMAP wants to be a small share.
WEIGHTING_SPANS = (
    "weighting.instance_kl",
    "mi.ksg",
    "mi.discrete",
    "weighting.combine",
    "weighting.smooth",
    "training.refresh",
)


@dataclass(frozen=True)
class Setup:
    config: training.ExperimentConfig
    seeds: list[int]
    dataset: Dataset | None


@dataclass
class Outcome:
    index: int
    seed: int
    timed: bool
    traced: bool
    seconds: float = math.nan
    cpu_seconds: float = math.nan
    test: dict | None = None
    problems: list[str] = field(default_factory=list)
    weighted_epoch_s: list[float] = field(default_factory=list)
    bytes_written: int = 0


def derive_seeds(seed: int) -> list[int]:
    """Experiment seeds for a workload seed: same seed, same inputs."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(SEEDS_PER_RUN)]


def config_text(base_text: str, overrides: dict) -> str:
    """The base config with every overridden key replaced by its new value."""
    kept = [
        line for line in base_text.splitlines()
        if line.split("#", 1)[0].partition("=")[0].strip() not in overrides
    ]
    return "\n".join(kept + [f"{key}={value}" for key, value in overrides.items()]) + "\n"


def setup(workload: str, seed: int) -> Setup:
    """Write and load the workload's generated config, then generate and split its data.

    The data keep the bundled config's data seed: the workload is that
    dataset, and the workload seed picks the experiment seeds.
    """
    seeds = derive_seeds(seed)
    spec = WORKLOADS[workload]
    overrides = {**spec.overrides, "seed": seeds[0]}
    path = OUT / "configs" / f"{workload}-seed{seed}.cfg"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(config_text((ROOT / "configs" / spec.base).read_text(), overrides))
    config = load_experiment_config(path)
    return Setup(config, seeds, training.resolve_dataset(config))


def time_setups(workload: str, seed: int) -> list[float]:
    """Wall seconds of fresh processes that only set up: start, imports, config, data."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", workload, "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def _experiment(config, out_dir):
    result = training.run_experiment(config)
    reports.export_result(result, out_dir)
    return result


def row_stochastic(w: np.ndarray, atol: float = 1e-9) -> bool:
    return bool(
        np.all(np.isfinite(w))
        and np.all(w >= -atol)
        and np.all(w <= 1 + atol)
        and np.all(np.abs(w.sum(axis=1) - 1.0) <= atol)
    )


def check(result, out_dir: Path) -> list[str]:
    """Correctness problems of one finished, exported experiment (empty when fine)."""
    config = result.config
    problems = []
    if not all(math.isfinite(v) for v in result.test_bundle.values()):
        problems.append(f"non-finite test metrics {result.test_bundle}")
    expected = 0 if config.variant == "unweighted" else config.epochs_weighted
    if len(result.weight_matrices) != expected:
        problems.append(f"{len(result.weight_matrices)} weight matrices, expected {expected}")
    for epoch, w in zip(result.weight_epochs, result.weight_matrices):
        if not row_stochastic(w):
            problems.append(f"epoch {epoch}: smoothed weights are not row-stochastic")
    exported = json.loads((out_dir / "metrics.json").read_text())["test"]
    if exported != result.test_bundle:
        problems.append("metrics.json test metrics differ from the result")
    return problems


def fingerprint(bundle: dict) -> tuple:
    """Bit-exact identity of a test bundle."""
    return tuple(sorted((key, float(value).hex()) for key, value in bundle.items()))


def run_one(config, outcome: Outcome, tracer: Tracer | None = None):
    """Time one experiment into outcome; returns the result."""
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out_dir = Path(tmp)
        start, cpu_start = time.perf_counter(), time.process_time()
        if tracer is None:
            result = _experiment(config, out_dir)
        else:
            tracer.experiment = outcome.index
            with tracer.installed():
                result = tracer.call("experiment", _experiment, config, out_dir)
        outcome.seconds = time.perf_counter() - start
        outcome.cpu_seconds = time.process_time() - cpu_start
        outcome.problems += check(result, out_dir)
        outcome.bytes_written = sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
    outcome.test = result.test_bundle
    outcome.weighted_epoch_s = [r.duration_s for r in result.records if r.phase == "weighted"]
    return result


def run_loop(s: Setup, seconds: float, tracer: Tracer | None) -> list[Outcome]:
    """A warm-up experiment, then experiments back to back until the window closes.

    The warm-up runs the first seed, which the window then runs again, so
    every run re-checks at least one seed bit for bit. In a traced run the
    warm-up is traced and that repeat is not, so the check also shows that
    tracing changes no result; the window alternates untraced (even) and
    traced (odd) experiments.
    """
    outcomes: list[Outcome] = []
    reference: dict[int, tuple] = {}

    def attempt(seed: int, timed: bool, traced: bool) -> None:
        outcome = Outcome(len(outcomes), seed, timed, traced)
        outcomes.append(outcome)
        try:
            run_one(replace(s.config, seed=seed), outcome, tracer if traced else None)
        except Exception:  # the loop must go on; the failure is counted and shown
            traceback.print_exc(file=sys.stderr)
            outcome.problems.append("raised an error")
            return
        if reference.setdefault(seed, fingerprint(outcome.test)) != fingerprint(outcome.test):
            outcome.problems.append(f"seed {seed} did not reproduce its test bundle bit for bit")

    attempt(s.seeds[0], timed=False, traced=tracer is not None)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < 2:
        attempt(s.seeds[i % len(s.seeds)], timed=True, traced=tracer is not None and i % 2 == 1)
        i += 1
    return outcomes


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten samples above it.

    Never below the median: with fewer than 20 samples this is the (lower)
    median, at percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, (n + 1) // 2)  # 1-based
    return ordered[rank - 1], 100.0 * rank / n


def test_error(task: str, bundle: dict) -> float:
    """Test MAE for regression, 1 - weighted F1 for classification."""
    return bundle["mae"] if task == REGRESSION else 1.0 - bundle["weighted_f1"]


def metric_line(name: str, value: float, unit: str, detail: str = "") -> str:
    return f"{name:<40} {value:>14.6f} {unit}" + (f"  ({detail})" if detail else "")


def end_to_end(s: Setup, outcomes: list[Outcome], setups: list[float]) -> tuple[dict, list[str]]:
    """Declared end-to-end values, and printed lines for the metrics only printed."""
    timed = [o.seconds for o in outcomes if o.timed and o.test is not None]
    by_seed = {o.seed: o.test for o in outcomes if o.test is not None}
    task = s.config.moe.task
    values = {
        "run_s_mean": statistics.mean(timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_error": statistics.median(test_error(task, b) for b in by_seed.values()),
    }
    failed = sum(1 for o in outcomes if o.problems)
    tail_value, tail_pct = tail(timed)
    quality, key = ("test_mae", "mae") if task == REGRESSION else ("test_wf1", "weighted_f1")
    notes = [
        metric_line("run_s", statistics.median(timed), "s",
                    f"median of {len(timed)} timed experiments"),
        metric_line("run_s_tail", tail_value, "s",
                    f"p{tail_pct:.0f} of {len(timed)} timed experiments, "
                    f"{sum(t > tail_value for t in timed)} above it"),
        metric_line("fail_ratio", failed / len(outcomes), "ratio",
                    f"{failed} of {len(outcomes)} attempted"),
        metric_line(quality, statistics.median(b[key] for b in by_seed.values()), "1",
                    f"median over {len(by_seed)} experiment seeds"),
        "setup_s samples " + ", ".join(f"{x:.4f}" for x in setups),
        "per seed " + ", ".join(f"{seed}: {b[key]:.6f}" for seed, b in by_seed.items()),
    ]
    return values, notes


def layer_row(tracer: Tracer, outcome: Outcome, spans: dict) -> dict:
    """The per-layer values of one traced experiment, given its layer totals."""

    def total(span: str) -> float:
        return spans.get(span, {}).get("total_s", 0.0)

    row = {metric: total(span) for metric, span in SPAN_SECONDS.items()}
    row.update({metric: spans.get(span, {}).get("calls", 0) for metric, span in SPAN_CALLS.items()})
    row.update({name: tracer.counts.get((outcome.index, name), 0) for name in COUNTER_METRICS})
    row["weighting.share"] = sum(total(span) for span in WEIGHTING_SPANS) / total("experiment")
    row["reports.bytes_written"] = outcome.bytes_written
    return row


def per_layer(tracer: Tracer, outcomes: list[Outcome]) -> tuple[dict, list[str], dict]:
    """Per-layer metrics (medians over timed traced experiments), problems, span table."""
    traced = [o for o in outcomes if o.timed and o.traced and o.test is not None]
    untraced = [o.seconds for o in outcomes if o.timed and not o.traced and o.test is not None]
    totals = [tracer.layer_totals(o.index) for o in traced]
    rows = [layer_row(tracer, o, t) for o, t in zip(traced, totals)]
    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    epochs = [d for o in traced for d in o.weighted_epoch_s]
    values["training.weighted_epoch_s"] = statistics.median(epochs) if epochs else 0.0
    values["synthetic.generate_s"] = statistics.median(
        sp.duration for sp in tracer.spans if sp.name == "synthetic.generate"
    )
    values["trace.overhead_ratio"] = (
        statistics.median(o.seconds for o in traced) / statistics.median(untraced)
    )
    problems = [
        f"counter {name} differs across experiments: {[r[name] for r in rows]}"
        for name in EXACT_COUNTERS
        if len({r[name] for r in rows}) > 1
    ]

    table = {
        name: {
            key: statistics.median(t.get(name, {}).get(key, 0.0) for t in totals)
            for key in ("calls", "total_s", "self_s")
        }
        for name in sorted({name for t in totals for name in t})
    }
    return values, problems, table


def git_commit() -> str | None:
    """The checkout's HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "load_generator": "1 process, 1 client, closed loop, no worker pool",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit; the run times fresh processes doing this")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        s = setup(args.workload, args.seed)
    else:
        with tracer.installed():
            s = setup(args.workload, args.seed)
    if args.setup_only:
        return 0

    setups = [] if tracer else time_setups(args.workload, args.seed)
    outcomes = run_loop(s, args.seconds, tracer)
    problems = [f"experiment {o.index} (seed {o.seed}): {p}" for o in outcomes for p in o.problems]
    if tracer is None:
        values, notes = end_to_end(s, outcomes, setups)
        declared, table = END_TO_END, {}
    else:
        values, counter_problems, table = per_layer(tracer, outcomes)
        problems += counter_problems
        notes, declared = [], PER_LAYER
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in declared}

    env = environment()
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "metrics": metrics, "layers": table, "problems": problems,
        "experiments": [o.__dict__ for o in outcomes],
    }
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(stem.with_suffix(".spans.jsonl"))

    n = s.dataset.n_instances
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"window {args.seconds:g} s  data {n} instances  seeds {s.seeds}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(metric_line(name, m["value"], m["unit"]))
    for line in notes:
        print(line)
    if table:
        print(f"{'span (median per traced experiment)':<40} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["total_s"]):
            print(f"{name:<40} {row['calls']:>8.0f} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    failed = sum(1 for o in outcomes if o.problems)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1
