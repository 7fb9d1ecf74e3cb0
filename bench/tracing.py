"""Spans and exact counters around the layers of btwmoe, recorded from outside.

`Tracer.installed()` replaces each target function with a recording wrapper
and puts the original back on exit. A function is replaced in every loaded
btwmoe module that holds it: training imports `_forward`, `backward`,
`ksg_mi` and friends by name, so patching only the defining module would miss
the calls that matter. The program itself is not edited.

Spans stay in memory (name, start, end, parent span, experiment id) until the
benchmark writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module, function, span name). Several functions may share one span name;
# their time and calls add up.
SPANNED = (
    ("synthetic", "generate", "synthetic.generate"),
    ("training", "run_experiment", "training.run_experiment"),
    ("training", "train_unimodal_all", "training.unimodal"),
    ("training", "train_multimodal_warm", "training.warm"),
    ("training", "run_weighted_phase", "training.weighted"),
    ("training", "_collect_predictions", "training.refresh"),
    ("moe", "_forward", "moe.forward"),
    ("moe", "backward", "moe.backward"),
    ("moe", "sgd_step", "moe.sgd_step"),
    ("weighting", "instance_kl_weights", "weighting.instance_kl"),
    ("weighting", "combine_local", "weighting.combine"),
    ("weighting", "combine_bilevel", "weighting.combine"),
    ("weighting", "combine_global_kl", "weighting.combine"),
    ("weighting", "combine_global_mi", "weighting.combine"),
    ("weighting", "smooth_update", "weighting.smooth"),
    ("mi", "ksg_mi", "mi.ksg"),
    ("mi", "discrete_mi", "mi.discrete"),
    ("reports", "export_result", "reports.export"),
)

# Scalar kernels called tens of thousands of times per experiment: a span
# each would cost more than the kernel, so they are only counted.
COUNTED = (
    ("distributions", "gaussian_kl", "distributions.kl_calls"),
    ("distributions", "categorical_kl", "distributions.kl_calls"),
    ("distributions", "residual_variance", "distributions.residual_variance_calls"),
)

FORWARD_ROWS = "moe.forward_rows"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    experiment: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store for one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[int | None, str], int] = {}
        self.experiment: int | None = None
        self._stack: list[int] = []
        self._started = 0

    def count(self, name: str, n: int = 1) -> None:
        key = (self.experiment, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        span_id = self._started
        self._started += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.experiment))

    def _spanning(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "moe.forward":
                batch = kwargs["batch"] if "batch" in kwargs else args[1]
                self.count(FORWARD_ROWS, batch.n_instances)
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _counting(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore the originals after."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "btwmoe" or key.startswith("btwmoe.")]
        saved = []
        try:
            targets = [(m, f, self._spanning, n) for m, f, n in SPANNED]
            targets += [(m, f, self._counting, n) for m, f, n in COUNTED]
            for module, attr, make, name in targets:
                original = getattr(sys.modules[f"btwmoe.{module}"], attr)
                wrapped = make(name, original)
                for mod in modules:
                    if vars(mod).get(attr) is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover.

        Children of one span run one after another on one thread, so their
        intervals never overlap and the covered time is their summed duration.
        """
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        return {span.id: span.duration - covered.get(span.id, 0.0) for span in self.spans}

    def layer_totals(self, experiment: int) -> dict[str, dict[str, float]]:
        """Per span name of one experiment: inclusive seconds, self seconds, calls."""
        self_time = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span.experiment != experiment:
                continue
            row = out.setdefault(span.name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            row["total_s"] += span.duration
            row["self_s"] += self_time[span.id]
            row["calls"] += 1
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
