"""Command-line front-end: run sweeps, ablations, traces, and data checks."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .dataset import load_dataset
from .harness import (
    ABLATIONS,
    DataError,
    ExperimentConfig,
    knn_problems,
    load_base,
    run_experiment,
    write_results,
    write_traces,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument("--output", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="master seed (overrides the config)")


def _workers(text: str) -> int:
    """--workers: an integer of at least 1, else a usage error."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def _add_sweep(parser: argparse.ArgumentParser) -> None:
    """Options of the commands that run a whole sweep (run, ablate)."""
    _add_common(parser)
    parser.add_argument("--workers", type=_workers, default=1, help="parallel trial processes")
    parser.add_argument(
        "--traces", action="store_true", help="also write trace_<runid>.csv per trial"
    )


def _load_config(args) -> Optional[ExperimentConfig]:
    """The config the command runs: the --config file with the --output and
    --seed overrides, narrowed for `trace` to its one trial. None when there
    is no --config (validate-data only)."""
    if args.config is None:
        return None
    cfg = ExperimentConfig.from_file(args.config)
    if getattr(args, "output", None):
        cfg = replace(cfg, output_dir=args.output)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.command == "trace":  # each value not given is the first configured
        cfg = replace(
            cfg,
            lam_grid=(args.lam if args.lam is not None else cfg.lam_grid[0],),
            beta_grid=(args.beta if args.beta is not None else cfg.beta_grid[0],),
            r_grid=(args.r if args.r is not None else cfg.r_grid[0],),
            knn_grid=(args.k if args.k is not None else cfg.knn_grid[0],),
            rates=(args.rate if args.rate is not None else cfg.rates[0],),
            repeats=1,
        )
    return cfg


def _report(records, paths) -> int:
    """Print the output paths and the trial tally; return how many trials
    succeeded."""
    failed = [t.run_id for r in records for t in r.trials if t.error]
    print(f"wrote {paths['trials']}")
    print(f"wrote {paths['aggregate']}")
    print(f"wrote {paths['manifest']}")
    total = sum(r.n_trials for r in records)
    wall = sum(t.wall_seconds for r in records for t in r.trials)
    print(f"{total - len(failed)}/{total} trials succeeded in {wall:.1f}s")
    for run_id in failed:
        print(f"  failed: {run_id}")
    return total - len(failed)


def _cmd_run(args, cfg: ExperimentConfig) -> int:
    """`run` (which=None) and `ablate --which`. Exit status 1 when no trial
    succeeded; the rows of failed trials are written either way."""
    records = run_experiment(cfg, args.which, workers=args.workers, keep_states=args.traces)
    paths = write_results(records, cfg.output_dir, cfg)
    if args.traces:
        write_traces(records, cfg.output_dir)
    return 0 if _report(records, paths) else 1


def _cmd_trace(args, cfg: ExperimentConfig) -> int:
    """One trial of the full model, its trace written as trace_<runid>.csv."""
    records = run_experiment(cfg, keep_states=True)
    paths = write_traces(records, cfg.output_dir)
    for p in paths:
        print(f"wrote {p}")
    trial = records[0].trials[0]
    if trial.error:
        print(f"trial failed: {trial.error}")
        return 1
    # fit stops before max_iter only on tol
    if trial.iterations < cfg.max_iter:
        stop = f"converged in {trial.iterations} iterations"
    else:
        stop = f"stopped at max_iter={cfg.max_iter}"
    print(f"{stop}; acc={trial.acc:.4f} nmi={trial.nmi:.4f} purity={trial.purity:.4f}")
    return 0


def _cmd_validate_data(args, cfg: Optional[ExperimentConfig]) -> int:
    """Check and describe the data of a config, loaded and masked as `run`
    does it, or of the --view files."""
    if cfg is None and not args.view:
        print("no view files given (use --config or --view)", file=sys.stderr)
        return 2
    try:
        if cfg is not None:
            ds = load_base(cfg)
            problems = knn_problems(cfg, ds)
        else:
            ds = load_dataset(args.view, args.availability or None, args.labels)
            problems = []
    except (OSError, ValueError) as exc:
        problems = [exc]
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"OK: {ds.n_views} views, {ds.n} samples")
    for view, ids in zip(ds.views, ds.availability):
        print(
            f"  view {view.view_id}: {view.n_features} features, "
            f"{view.n_available}/{ds.n} instances available"
        )
    if ds.labels is not None:
        print(f"  labels: {ds.n_classes} classes")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="imvc",
        description="incomplete multi-view clustering experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured sweep")
    _add_sweep(p_run)
    p_run.set_defaults(func=_cmd_run, which=None)

    p_abl = sub.add_parser("ablate", help="run the sweep with one component off")
    _add_sweep(p_abl)
    p_abl.add_argument("--which", required=True, choices=ABLATIONS)
    p_abl.set_defaults(func=_cmd_run)

    p_trace = sub.add_parser("trace", help="one fit, objective trace to CSV")
    _add_common(p_trace)
    p_trace.add_argument("--rate", type=float, help="mask rate (default: first configured)")
    p_trace.add_argument("--lam", type=float)
    p_trace.add_argument("--beta", type=float)
    p_trace.add_argument("--r", type=float)
    p_trace.add_argument("--k", type=int)
    p_trace.set_defaults(func=_cmd_trace)

    p_val = sub.add_parser("validate-data", help="check dataset files and report shapes")
    p_val.add_argument("--config", help="experiment config (JSON)")
    p_val.add_argument("--view", action="append", default=[], help="view .npy or CSV (repeatable)")
    p_val.add_argument(
        "--availability", action="append", default=[], help="availability sidecar (repeatable)"
    )
    p_val.add_argument("--labels", help="label .npy or CSV")
    p_val.set_defaults(func=_cmd_validate_data)

    args = parser.parse_args(argv)
    # a rejected config, data file or output directory is one INVALID line and
    # exit status 1, for every command; a trial that fails is a row of trials.csv
    try:
        cfg = _load_config(args)
        made = []
        if args.command != "validate-data":  # the output directory, before any trial
            out = Path(cfg.output_dir)
            made = [path for path in (out, *out.parents) if not path.exists()]
            out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args, cfg)
    except DataError as exc:  # raised before any trial: remove the directories made
        for path in made:
            path.rmdir()
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
