"""Command-line entry point: generate data, train variants, compare runs.

Exit codes: 0 success, 2 parse error or invalid data/config, 3 output-safety
refusal, 4 training failure, 5 partial comparison failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import load_data_config, load_experiment_config
from .errors import BtwError, ConfigParseError, TrainingFailureError
from .reports import export_result, write_manifest, write_summary_csv
from .synthetic import generate, save_dataset, split
from .training import plan, run_planned

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_OUTPUT_SAFETY = 3
EXIT_TRAINING = 4
EXIT_PARTIAL_COMPARE = 5


class _OutputRefused(Exception):
    """The output path is unsafe to write; exits EXIT_OUTPUT_SAFETY."""


def _check_out_dir(out_dir: str, force: bool) -> None:
    """Refuse an output path that is or lies under a file, and a non-empty
    directory without --force. The writers create the directory, so a run
    that fails first leaves nothing behind."""
    out = Path(out_dir)
    blocker = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if blocker is not None:
        raise _OutputRefused(f"output path {out}: {blocker} is a file, not a directory")
    if out.exists() and any(out.iterdir()) and not force:
        raise _OutputRefused(f"output directory {out} is not empty (use --force to overwrite)")


def cmd_gen_data(args) -> int:
    spec, fractions, split_seed = load_data_config(args.config)
    dataset = generate(spec)
    if fractions is not None:
        dataset = split(dataset, fractions, split_seed)
    _check_out_dir(args.out, args.force)
    written = save_dataset(dataset, args.out)
    write_manifest(args.out, "gen-data", args.config, written, {"seed": spec.seed})
    print(f"wrote dataset ({dataset.n_instances} instances, "
          f"{dataset.n_modalities} modalities) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config, dataset = plan(load_experiment_config(args.config))
    _check_out_dir(args.out, args.force)
    result = run_planned(config, dataset)
    written = export_result(result, args.out)
    write_manifest(args.out, "train", args.config, written, {"seed": config.seed,
                                                             "variant": config.variant})
    headline = "mae" if "mae" in result.test_bundle else "accuracy"
    print(f"{config.variant} seed {config.seed}: {len(result.records)} epochs, "
          f"test {headline} {result.test_bundle[headline]:.4f} -> {args.out}")
    return EXIT_OK


def _compare_cell(payload):
    """Run one cell from its plan: (config, (config, dataset) or the plan's error, dir)."""
    config, planned, cell_dir = payload
    if isinstance(planned, BtwError):
        return config.variant, config.seed, None, str(planned), []
    try:
        result = run_planned(*planned)
    except BtwError as exc:
        return config.variant, config.seed, None, str(exc), []
    return config.variant, config.seed, result.test_bundle, None, export_result(result, cell_dir)


def cmd_compare(args) -> int:
    if args.jobs < 1:
        raise ConfigParseError("--jobs must be >= 1")
    config = load_experiment_config(args.config)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigParseError(f"--seeds: {exc}") from exc
    if not variants or not seeds:
        raise ConfigParseError("need at least one variant and one seed")
    for flag, values in (("--variants", variants), ("--seeds", seeds)):
        repeated = list(dict.fromkeys(str(v) for v in values if values.count(v) > 1))
        if repeated:
            raise ConfigParseError(f"{flag}: repeated {', '.join(repeated)}")
    cell_configs = [replace(config, variant=v, seed=s) for v in variants for s in seeds]
    # A cell that cannot be planned fails alone; an error every cell hits is
    # a usage error.
    plans = []
    for cell_config in cell_configs:
        try:
            plans.append(plan(cell_config))
        except BtwError as exc:
            plans.append(exc)
    if all(isinstance(planned, BtwError) for planned in plans):
        raise plans[0]
    _check_out_dir(args.out, args.force)

    # export_result makes a cell's directory, so a failed cell leaves none.
    out = Path(args.out)
    cells = [(cell, planned, out / cell.variant / f"seed_{cell.seed}")
             for cell, planned in zip(cell_configs, plans)]

    # The fork start method starts every worker up front, needed or not.
    workers = min(args.jobs, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_compare_cell, cells))
    else:
        outcomes = [_compare_cell(cell) for cell in cells]

    failures = [(v, s, err) for v, s, _b, err, _w in outcomes if err is not None]
    bundles: dict[str, list[dict]] = {}
    for variant, _seed, bundle, err, _w in outcomes:
        if err is None:
            bundles.setdefault(variant, []).append(bundle)

    out.mkdir(parents=True, exist_ok=True)
    summary_path = out / "summary.csv"
    write_summary_csv(summary_path, variants, bundles)
    written = [summary_path] + [path for *_, cell_written in outcomes for path in cell_written]
    write_manifest(args.out, "compare", args.config, written,
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
    p_gen.add_argument("--config", required=True,
                       help="config with an inline data spec (reads data.* and split.* keys)")
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
    try:
        return args.func(args)
    except (_OutputRefused, BtwError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _OutputRefused):
            return EXIT_OUTPUT_SAFETY
        # Any other package error is a config, or data, the command cannot use.
        return EXIT_TRAINING if isinstance(exc, TrainingFailureError) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
