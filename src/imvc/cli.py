"""Command-line front-end: run sweeps, ablations, traces, and data checks."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .dataset import load_dataset, normalize_views
from .harness import (
    ABLATIONS,
    ExperimentConfig,
    knn_problems,
    run_ablation,
    run_experiment,
    run_sweep,
    write_results,
    write_traces,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument("--output", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="master seed (overrides the config)")
    parser.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    parser.add_argument(
        "--traces", action="store_true", help="also write trace_<runid>.csv per trial"
    )


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    if getattr(args, "output", None):
        cfg = replace(cfg, output_dir=args.output)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    return cfg


def _report(records, paths) -> None:
    failed = [t.run_id for r in records for t in r.trials if t.error]
    print(f"wrote {paths['trials']}")
    print(f"wrote {paths['aggregate']}")
    print(f"wrote {paths['manifest']}")
    total = sum(r.n_trials for r in records)
    wall = sum(r.wall_seconds for r in records)
    print(f"{total - len(failed)}/{total} trials succeeded in {wall:.1f}s")
    for run_id in failed:
        print(f"  failed: {run_id}")


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    records = run_experiment(cfg, workers=args.workers, keep_states=args.traces)
    paths = write_results(records, cfg.output_dir, cfg)
    if args.traces:
        write_traces(records, cfg.output_dir)
    _report(records, paths)
    return 0


def _cmd_ablate(args) -> int:
    cfg = _load_config(args)
    records = run_ablation(cfg, args.which, workers=args.workers, keep_states=args.traces)
    paths = write_results(records, cfg.output_dir, cfg)
    if args.traces:
        write_traces(records, cfg.output_dir)
    _report(records, paths)
    return 0


def _cmd_trace(args) -> int:
    cfg = _load_config(args)
    single = replace(
        cfg,
        lam_grid=(args.lam if args.lam is not None else cfg.lam_grid[0],),
        beta_grid=(args.beta if args.beta is not None else cfg.beta_grid[0],),
        r_grid=(args.r if args.r is not None else cfg.r_grid[0],),
        knn_grid=(args.k if args.k is not None else cfg.knn_grid[0],),
        rates=(args.rate if args.rate is not None else cfg.rates[0],),
        repeats=1,
    )
    records = run_sweep(single, variant="trace", keep_states=True)
    paths = write_traces(records, single.output_dir)
    for p in paths:
        print(f"wrote {p}")
    trial = records[0].trials[0]
    if trial.error:
        print(f"trial failed: {trial.error}")
        return 1
    print(
        f"converged in {trial.iterations} iterations; "
        f"acc={trial.acc:.4f} nmi={trial.nmi:.4f} purity={trial.purity:.4f}"
    )
    return 0


def _cmd_validate_data(args) -> int:
    cfg = ExperimentConfig.from_file(args.config) if args.config else None
    if cfg is not None:
        views, avail, labels = cfg.view_paths, cfg.availability_paths, cfg.label_path
        normalize = cfg.normalize
    else:
        views, avail, labels = args.view, args.availability or None, args.labels
        normalize = "none"
    if not views:
        print("no view files given (use --config or --view)", file=sys.stderr)
        return 2
    try:
        ds = load_dataset(views, avail, labels)
        ds = normalize_views(ds, normalize)
        problems = knn_problems(cfg, ds) if cfg is not None else []
    except ValueError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
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
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_abl = sub.add_parser("ablate", help="run the sweep with one component off")
    _add_common(p_abl)
    p_abl.add_argument("--which", required=True, choices=ABLATIONS)
    p_abl.set_defaults(func=_cmd_ablate)

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
    p_val.add_argument("--view", action="append", default=[], help="view CSV (repeatable)")
    p_val.add_argument(
        "--availability", action="append", default=[], help="availability sidecar (repeatable)"
    )
    p_val.add_argument("--labels", help="label CSV")
    p_val.set_defaults(func=_cmd_validate_data)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
