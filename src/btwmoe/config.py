"""Flat key-value experiment configs: dotted section prefixes, one assignment
per line, '#' comments. Diff-friendly and dependency-free."""

from __future__ import annotations

from pathlib import Path

from .errors import InvalidInputError
from .moe import MoeConfig
from .synthetic import SyntheticSpec
from .training import ExperimentConfig

_EXPERIMENT_KEYS = {
    "variant": str,
    "seed": int,
    "lr": float,
    "batch_size": int,
    "epochs.unimodal": int,
    "epochs.warm": int,
    "epochs.weighted": int,
    "split.fractions": "floats",
    "moe.embed_dim": int,
    "moe.n_experts": int,
    "moe.top_k": int,
    "moe.expert_hidden": int,
    "moe.n_moe_layers": int,
    "data.path": str,
}

_DATA_KEYS = {
    "data.n_instances": int,
    "data.modality_dims": "ints",
    "data.informativeness": "floats",
    "data.noise_sigma": float,
    "data.task": str,
    "data.n_classes": int,
    "data.nonlinearity": str,
    "data.seed": int,
    "data.class_priors": "floats",
}


def _convert(key, kind, value, line_no):
    try:
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
        if kind is str:
            return value
        if kind == "ints":
            return tuple(int(v) for v in value.split(","))
        if kind == "floats":
            return tuple(float(v) for v in value.split(","))
    except ValueError as exc:
        raise InvalidInputError(
            f"line {line_no}: field '{key}' has malformed value {value!r}"
        ) from exc
    raise InvalidInputError(f"line {line_no}: field '{key}' has unknown kind")


def parse_config_text(text: str, allowed: dict | None = None) -> dict:
    """Parse assignments into a flat dict, validating keys and value shapes."""
    if allowed is None:
        allowed = {**_EXPERIMENT_KEYS, **_DATA_KEYS}
    out = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"line {line_no}: expected 'key=value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in allowed:
            raise InvalidInputError(f"line {line_no}: unknown field '{key}'")
        if key in out:
            raise InvalidInputError(f"line {line_no}: duplicate field '{key}'")
        out[key] = _convert(key, allowed[key], value, line_no)
    return out


def parse_config_file(path, allowed: dict | None = None) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, allowed)


def _build_data_spec(values: dict, require: bool) -> SyntheticSpec | None:
    data_keys = {k: v for k, v in values.items() if k.startswith("data.") and k != "data.path"}
    if not data_keys:
        if require:
            raise InvalidInputError("field 'data.n_instances': missing data spec")
        return None
    kwargs = {k.split(".", 1)[1]: v for k, v in data_keys.items()}
    try:
        return SyntheticSpec(**kwargs)
    except TypeError as exc:
        raise InvalidInputError(f"data spec: {exc}") from exc


def build_experiment_config(values: dict) -> ExperimentConfig:
    """Assemble an ExperimentConfig from parsed key-value pairs."""
    data_spec = _build_data_spec(values, require="data.path" not in values)

    moe_kwargs = {k.split(".", 1)[1]: v for k, v in values.items() if k.startswith("moe.")}
    moe = None
    if moe_kwargs:
        if data_spec is None:
            raise InvalidInputError("field 'moe.*': inline moe config needs an inline data spec")
        moe = MoeConfig(
            input_dims=data_spec.modality_dims,
            task=data_spec.task,
            n_classes=data_spec.n_classes,
            **moe_kwargs,
        )

    # Field name from key: dots become underscores.
    kwargs = {
        key.replace(".", "_"): value
        for key, value in values.items()
        if key in _EXPERIMENT_KEYS and not key.startswith("moe.")
    }
    return ExperimentConfig(data=data_spec, moe=moe, **kwargs)


def load_experiment_config(path) -> ExperimentConfig:
    return build_experiment_config(parse_config_file(path))


def load_data_config(path) -> tuple[SyntheticSpec, tuple[float, ...] | None, int]:
    """The dataset a config describes: (data spec, split.fractions or None,
    split seed). Experiment keys are accepted and ignored, so an experiment
    config with an inline spec generates its own dataset. split.seed is read
    only here; it defaults to data.seed."""
    values = parse_config_file(path, {**_EXPERIMENT_KEYS, **_DATA_KEYS, "split.seed": int})
    spec = _build_data_spec(values, require=True)
    return spec, values.get("split.fractions"), values.get("split.seed", spec.seed)
