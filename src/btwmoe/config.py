"""Flat key-value experiment configs: dotted section prefixes, one assignment
per line, '#' comments. Diff-friendly and dependency-free."""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .errors import InvalidInputError
from .synthetic import SyntheticSpec
from .training import ExperimentConfig


def _tuple_of(kind):
    """Converter of a comma list whose entries each convert with kind."""
    return lambda value: tuple(kind(v) for v in value.split(","))


# Each key maps to the converter of its value text.
_EXPERIMENT_KEYS = {
    "variant": str,
    "seed": int,
    "lr": float,
    "batch_size": int,
    "epochs.unimodal": int,
    "epochs.warm": int,
    "epochs.weighted": int,
    "split.fractions": _tuple_of(float),
    # moe.<name> sets ExperimentConfig.moe_<name>, MoeConfig's <name>.
    **{f.name.replace("_", ".", 1): type(f.default) for f in fields(ExperimentConfig)
       if f.name.startswith("moe_")},
    "data.path": str,
}

_DATA_KEYS = {
    "data.n_instances": int,
    "data.modality_dims": _tuple_of(int),
    "data.informativeness": _tuple_of(float),
    "data.noise_sigma": float,
    "data.task": str,
    "data.n_classes": int,
    "data.nonlinearity": str,
    "data.seed": int,
    "data.class_priors": _tuple_of(float),
}


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
        try:
            out[key] = allowed[key](value)
        except ValueError as exc:
            raise InvalidInputError(
                f"line {line_no}: field '{key}' has malformed value {value!r}"
            ) from exc
    return out


def read_config(path) -> tuple[bytes, str]:
    """A config file's bytes and their UTF-8 text, a leading byte-order mark
    dropped. A command reads its config once: it parses the text, and its
    manifest records the bytes."""
    try:
        data = Path(path).read_bytes()
        return data, data.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc


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
    # Field name from key: dots become underscores.
    kwargs = {key.replace(".", "_"): value for key, value in values.items()
              if key in _EXPERIMENT_KEYS}
    return ExperimentConfig(data=data_spec, **kwargs)


def load_experiment_config(path) -> ExperimentConfig:
    return build_experiment_config(parse_config_text(read_config(path)[1]))


def parse_data_config(text: str) -> tuple[SyntheticSpec, tuple[float, ...] | None, int]:
    """The dataset a config text describes: (data spec, split.fractions or
    None, split seed). Experiment keys are accepted and ignored, so an
    experiment config with an inline spec generates its own dataset.
    split.seed is read only here; it defaults to data.seed."""
    values = parse_config_text(text, {**_EXPERIMENT_KEYS, **_DATA_KEYS, "split.seed": int})
    spec = _build_data_spec(values, require=True)
    return spec, values.get("split.fractions"), values.get("split.seed", spec.seed)
