"""Command-line entry point: generate data, train variants, compare runs.

compare runs its cells as jobs on training's lanes (open_lanes), one per
usable core, seed-major, and closes them once their cells are done; there
is no knob for the core count.

Exit codes: 0 success, 2 input the run cannot use (InvalidInputError, or a
malformed command line), 3 output-safety refusal, 4 training failure
(TrainingFailureError), 5 partial comparison failure. Exits 2 to 4 print one
`error:` line to stderr, after argparse's usage for a malformed command line.
NumPy's floating-point warnings stay silent: the checks that catch a
non-finite value name it in that line instead.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import build_experiment_config, parse_config_text, parse_data_config, read_config
from .errors import BtwError, InvalidInputError, TrainingFailureError
from .reports import export_result, write_manifest, write_summary_csv
from .synthetic import generate, save_dataset, split
from .training import _Job, _start, open_lanes, plan, run_planned

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
    config_bytes, text = read_config(args.config)
    spec, fractions, split_seed = parse_data_config(text)
    dataset = generate(spec)
    if fractions is not None:
        dataset = split(dataset, fractions, split_seed)
    _check_out_dir(args.out, args.force)
    written = save_dataset(dataset, args.out)
    write_manifest(args.out, "gen-data", config_bytes, written,
                   {"config_file": args.config, "seed": spec.seed})
    print(f"wrote dataset ({dataset.n_instances} instances, "
          f"{dataset.n_modalities} modalities) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config_bytes, text = read_config(args.config)
    config = build_experiment_config(parse_config_text(text))
    dataset = plan(config)
    _check_out_dir(args.out, args.force)
    result = run_planned(config, dataset)
    written = export_result(result, args.out)
    write_manifest(args.out, "train", config_bytes, written,
                   {"config_file": args.config, "seed": config.seed, "variant": config.variant})
    headline = "mae" if "mae" in result.test_bundle else "accuracy"
    print(f"{config.variant} seed {config.seed}: {len(result.records)} epochs, "
          f"test {headline} {result.test_bundle[headline]:.4f} -> {args.out}")
    return EXIT_OK


def _run_cell(config, dataset, cell_dir) -> tuple[dict, list[Path]]:
    """Run one planned cell: (test bundle, paths written). export_result makes
    the cell's directory, so a failed cell leaves none."""
    result = run_planned(config, dataset)
    return result.test_bundle, export_result(result, cell_dir)


def cmd_compare(args) -> int:
    config_bytes, text = read_config(args.config)
    config = build_experiment_config(parse_config_text(text))
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"--seeds: {exc}") from exc
    if not variants or not seeds:
        raise InvalidInputError("need at least one variant and one seed")
    for flag, values in (("--variants", variants), ("--seeds", seeds)):
        repeated = list(dict.fromkeys(str(v) for v in values if values.count(v) > 1))
        if repeated:
            raise InvalidInputError(f"{flag}: repeated {', '.join(repeated)}")
    # Seed-major, so the lanes' contiguous shares hold whole seeds.
    cells = [replace(config, variant=v, seed=s) for s in seeds for v in variants]
    # A cell that cannot be planned fails alone; an error every cell hits is
    # a usage error.
    plans = []
    for cell in cells:
        try:
            plans.append(plan(cell))
        except BtwError as exc:
            plans.append(exc)
    if all(isinstance(planned, BtwError) for planned in plans):
        raise plans[0]
    _check_out_dir(args.out, args.force)

    out = Path(args.out)
    jobs = [_Job(f"{cell.variant}/seed_{cell.seed}", 0, __name__, "_run_cell",
                 (cell, planned, out / cell.variant / f"seed_{cell.seed}"))
            for cell, planned in zip(cells, plans) if not isinstance(planned, BtwError)]
    bundles: dict[str, list[dict]] = {}
    failures = []
    written = []
    with open_lanes(len(jobs)) as lanes:
        results = iter(_start(lanes, jobs))
        for cell, planned in zip(cells, plans):
            try:
                if isinstance(planned, BtwError):
                    raise planned
                bundle, cell_written = next(results)()
            except BtwError as exc:  # its plan, its run or its lane failed
                failures.append(f"failed: {cell.variant} seed {cell.seed}: {exc}")
            else:
                bundles.setdefault(cell.variant, []).append(bundle)
                written += cell_written

    out.mkdir(parents=True, exist_ok=True)
    summary_path = out / "summary.csv"
    write_summary_csv(summary_path, variants, bundles)
    write_manifest(args.out, "compare", config_bytes, [summary_path] + written,
                   {"config_file": args.config, "variants": variants, "seeds": seeds})
    print(f"summary -> {summary_path}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return EXIT_PARTIAL_COMPARE if failures else EXIT_OK


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
    p_cmp.set_defaults(func=cmd_compare)
    # No option of compare looks like a number, so a value such as "-1,0" is
    # the value of --seeds, which the seed check then rejects by name.
    p_cmp._negative_number_matcher = re.compile(r"-\d")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error, help or version
        return exc.code
    try:
        # Forked lanes inherit this state.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (_OutputRefused, BtwError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _OutputRefused):
            return EXIT_OUTPUT_SAFETY
        # Any other package error is input the command cannot use.
        return EXIT_TRAINING if isinstance(exc, TrainingFailureError) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
