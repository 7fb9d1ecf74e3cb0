"""Command-line entry point: generate data, train variants, compare runs.

Exit codes: 0 success, 2 parse error or invalid data/config, 3 output-safety
refusal, 4 training failure, 5 partial comparison failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    config_content_hash,
    load_experiment_config,
    parse_config_text,
    _DATA_KEYS,
    _build_data_spec,
)
from .errors import BtwError, ConfigParseError, TrainingFailureError
from .moe import CLASSIFICATION, REGRESSION
from .reports import export_result, metric_columns
from .synthetic import generate, save_dataset, split
from .training import run_experiment

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_OUTPUT_SAFETY = 3
EXIT_TRAINING = 4
EXIT_PARTIAL_COMPARE = 5


def _check_out_dir(out_dir: str, force: bool) -> int:
    """Refuse a non-empty output directory without --force. The writers create
    the directory, so a run that fails first leaves nothing behind."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not force:
        print(
            f"error: output directory {out} is not empty (use --force to overwrite)",
            file=sys.stderr,
        )
        return EXIT_OUTPUT_SAFETY
    return EXIT_OK


def _write_manifest(out_dir, command: str, config_path, extra: dict) -> None:
    manifest = {
        "tool": "btwmoe",
        "tool_version": __version__,
        "command": command,
        "config_file": str(config_path),
        "config_sha256": config_content_hash(config_path),
        "config_echo": Path(config_path).read_text(),
        "outputs": sorted(
            str(p.relative_to(out_dir)) for p in Path(out_dir).rglob("*") if p.is_file()
        ),
    }
    manifest.update(extra)
    (Path(out_dir) / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def cmd_gen_data(args) -> int:
    allowed = dict(_DATA_KEYS)
    allowed["split.fractions"] = "floats"
    allowed["split.seed"] = int
    try:
        values = parse_config_text(Path(args.config).read_text(), allowed=allowed)
        spec = _build_data_spec(values, require=True)
    except (ConfigParseError, BtwError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    status = _check_out_dir(args.out, args.force)
    if status != EXIT_OK:
        return status
    dataset = generate(spec)
    if "split.fractions" in values:
        dataset = split(dataset, values["split.fractions"], values.get("split.seed", spec.seed))
    save_dataset(dataset, args.out)
    _write_manifest(args.out, "gen-data", args.config, {"seed": spec.seed})
    print(f"wrote dataset ({dataset.n_instances} instances, "
          f"{dataset.n_modalities} modalities) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    try:
        config = load_experiment_config(args.config)
    except (ConfigParseError, BtwError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    status = _check_out_dir(args.out, args.force)
    if status != EXIT_OK:
        return status
    try:
        result = run_experiment(config)
    except TrainingFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except BtwError as exc:  # data or config the run cannot use, e.g. a split too small
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    export_result(result, args.out)
    _write_manifest(args.out, "train", args.config, {"seed": config.seed,
                                                     "variant": config.variant})
    headline = "mae" if "mae" in result.test_bundle else "accuracy"
    print(f"{config.variant} seed {config.seed}: {len(result.records)} epochs, "
          f"test {headline} {result.test_bundle[headline]:.4f} -> {args.out}")
    return EXIT_OK


def _compare_cell(payload):
    config, cell_dir = payload
    try:
        result = run_experiment(config)
    except BtwError as exc:
        return config.variant, config.seed, None, str(exc)
    export_result(result, cell_dir)
    return config.variant, config.seed, result.test_bundle, None


def cmd_compare(args) -> int:
    try:
        config = load_experiment_config(args.config)
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        if not variants or not seeds:
            raise ConfigParseError("need at least one variant and one seed")
        variant_configs = [replace(config, variant=variant) for variant in variants]
    except (ConfigParseError, BtwError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    status = _check_out_dir(args.out, args.force)
    if status != EXIT_OK:
        return status

    cells = []
    for variant_config in variant_configs:
        for seed in seeds:
            cell_dir = Path(args.out) / variant_config.variant / f"seed_{seed}"
            cell_dir.mkdir(parents=True, exist_ok=True)
            cells.append((replace(variant_config, seed=seed), cell_dir))

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_compare_cell, cells))
    else:
        outcomes = [_compare_cell(cell) for cell in cells]

    failures = [(v, s, err) for v, s, _b, err in outcomes if err is not None]
    bundles: dict[str, list[dict]] = {}
    for variant, _seed, bundle, err in outcomes:
        if err is None:
            bundles.setdefault(variant, []).append(bundle)

    first_bundle = next((b for rows in bundles.values() for b in rows), None)
    task = REGRESSION if first_bundle is None or "mae" in first_bundle else CLASSIFICATION
    cols = metric_columns(task)
    summary_path = Path(args.out) / "summary.csv"
    with open(summary_path, "w", newline="") as fh:
        header = ["variant", "n_seeds"]
        for c in cols:
            header += [f"test_{c}_mean", f"test_{c}_std"]
        fh.write(",".join(header) + "\n")
        for variant in variants:
            rows = bundles.get(variant, [])
            if not rows:
                continue
            out_row = [variant, str(len(rows))]
            for c in cols:
                vals = np.array([r[c] for r in rows])
                out_row += [repr(float(vals.mean())), repr(float(vals.std()))]
            fh.write(",".join(out_row) + "\n")
    _write_manifest(args.out, "compare", args.config,
                    {"variants": variants, "seeds": seeds})
    print(f"summary -> {summary_path}")
    if failures:
        for variant, seed, err in failures:
            print(f"failed: {variant} seed {seed}: {err}", file=sys.stderr)
        return EXIT_PARTIAL_COMPARE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btwmoe",
        description="Bi-level modality weighting experiments on a small multimodal MoE",
    )
    parser.add_argument("--version", action="version", version=f"btwmoe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    p_gen.add_argument("--config", required=True, help="dataset spec file (data.* keys)")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--force", action="store_true")
    p_gen.set_defaults(func=cmd_gen_data)

    p_train = sub.add_parser("train", help="run one experiment variant")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--force", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_cmp = sub.add_parser("compare", help="run a variants x seeds grid and summarize")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--variants", required=True, help="comma-separated variant names")
    p_cmp.add_argument("--seeds", required=True, help="comma-separated integer seeds")
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--force", action="store_true")
    p_cmp.add_argument("--jobs", type=int, default=1)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
