"""Experiment harness: crossed sweeps over masks and solver parameters.

A declarative JSON config describes the dataset files, the masking protocol
(rates x repeats), the solver parameter grid, and the scoring setup. Each
trial runs the full pipeline (mask, graphs, solver, k-means, scores) and
lands as one row in trials.csv; per-grid-point aggregates go to aggregate.csv
and the resolved config to manifest.json. Given one machine and
one master seed, trials.csv is byte-identical across runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import (
    MASK_PROTOCOLS,
    MaskSpec,
    MultiViewDataset,
    apply_mask,
    load_dataset,
    normalize_views,
)
from .graph import build_fused_graphs
from .metrics import evaluate_clustering
from .solver import SolverConfig, SolverState, fit, write_trace

ABLATIONS = ("weight", "sparsity", "graph")

DEFAULT_RATES = {"random-missing": (0.1, 0.3, 0.5), "paired-sample": (0.3, 0.5, 0.7)}
# desk-scale slices of the full candidate sets
DEFAULT_LAM_GRID = (0.001, 0.1, 10.0)
DEFAULT_BETA_GRID = (1e-05, 0.001, 0.1)
DEFAULT_R_GRID = (2.0, 5.0, 9.0)
DEFAULT_KNN_GRID = (5,)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep needs, resolvable from a JSON file."""

    view_paths: tuple[str, ...]
    availability_paths: Optional[tuple[str, ...]] = None
    label_path: Optional[str] = None
    normalize: str = "none"
    protocol: str = "random-missing"
    rates: tuple[float, ...] = DEFAULT_RATES["random-missing"]
    repeats: int = 5
    lam_grid: tuple[float, ...] = DEFAULT_LAM_GRID
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID
    r_grid: tuple[float, ...] = DEFAULT_R_GRID
    knn_grid: tuple[int, ...] = DEFAULT_KNN_GRID
    gamma: float = 1.0
    n_components: Optional[int] = None
    max_iter: int = 300
    tol: float = 1e-6
    kmeans_restarts: int = 20
    output_dir: str = "imvc-out"
    master_seed: int = 0

    def __post_init__(self):
        if not self.view_paths:
            raise ValueError("config needs at least one view file")
        if self.protocol not in MASK_PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if not self.rates:
            raise ValueError("config needs at least one mask rate")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        for name, grid in (
            ("lam", self.lam_grid),
            ("beta", self.beta_grid),
            ("r", self.r_grid),
            ("k", self.knn_grid),
        ):
            if not grid:
                raise ValueError(f"empty {name} grid")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        ds = raw.get("dataset", {})
        mask = raw.get("mask", {})
        solver = raw.get("solver", {})
        metrics = raw.get("metrics", {})
        protocol = mask.get("protocol", "random-missing")
        known = {"dataset", "mask", "solver", "metrics", "clusters", "output", "master_seed"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            view_paths=tuple(ds.get("views", ())),
            availability_paths=(
                tuple(ds["availability"]) if ds.get("availability") else None
            ),
            label_path=ds.get("labels"),
            normalize=ds.get("normalize", "none"),
            protocol=protocol,
            rates=tuple(mask.get("rates", DEFAULT_RATES[protocol])),
            repeats=int(mask.get("repeats", 5)),
            lam_grid=tuple(solver.get("lam", DEFAULT_LAM_GRID)),
            beta_grid=tuple(solver.get("beta", DEFAULT_BETA_GRID)),
            r_grid=tuple(solver.get("r", DEFAULT_R_GRID)),
            knn_grid=tuple(solver.get("k", DEFAULT_KNN_GRID)),
            gamma=float(solver.get("gamma", 1.0)),
            n_components=raw.get("clusters"),
            max_iter=int(solver.get("max_iter", 300)),
            tol=float(solver.get("tol", 1e-6)),
            kmeans_restarts=int(metrics.get("restarts", 20)),
            output_dir=raw.get("output", "imvc-out"),
            master_seed=int(raw.get("master_seed", 0)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class TrialOutcome:
    run_id: str
    variant: str
    protocol: str
    rate: float
    repeat: int
    mask_seed: int
    solver_seed: int
    lam: float
    beta: float
    r: float
    knn: int
    gamma: float
    iterations: int = 0
    acc: Optional[float] = None
    nmi: Optional[float] = None
    purity: Optional[float] = None
    error: str = ""
    wall_seconds: float = 0.0
    state: Optional[SolverState] = None


@dataclass(frozen=True)
class RunRecord:
    """Aggregate over the repeats of one (grid point, rate) cell."""

    variant: str
    protocol: str
    rate: float
    lam: float
    beta: float
    r: float
    knn: int
    gamma: float
    trials: tuple[TrialOutcome, ...]
    acc_mean: float
    acc_std: float
    nmi_mean: float
    nmi_std: float
    purity_mean: float
    purity_std: float
    iterations_mean: float
    wall_seconds: float
    n_failed: int

    @property
    def n_trials(self) -> int:
        return len(self.trials)


def derive_seed(*parts) -> int:
    """Stable, order-sensitive hash of the given parts into an RNG seed."""
    key = "|".join(repr(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") >> 1


def _mask_seed(cfg: ExperimentConfig, rate: float, repeat: int) -> int:
    return derive_seed(cfg.master_seed, "mask", float(rate), repeat)


def _aggregate(trials: Sequence[TrialOutcome]) -> RunRecord:
    first = trials[0]
    ok = [t for t in trials if not t.error]

    def stats(values):
        if not ok:
            return float("nan"), float("nan")
        arr = np.array(values)
        return float(arr.mean()), float(arr.std())

    acc_mean, acc_std = stats([t.acc for t in ok])
    nmi_mean, nmi_std = stats([t.nmi for t in ok])
    purity_mean, purity_std = stats([t.purity for t in ok])
    iters_mean = float(np.mean([t.iterations for t in ok])) if ok else float("nan")
    return RunRecord(
        variant=first.variant,
        protocol=first.protocol,
        rate=first.rate,
        lam=first.lam,
        beta=first.beta,
        r=first.r,
        knn=first.knn,
        gamma=first.gamma,
        trials=tuple(trials),
        acc_mean=acc_mean,
        acc_std=acc_std,
        nmi_mean=nmi_mean,
        nmi_std=nmi_std,
        purity_mean=purity_mean,
        purity_std=purity_std,
        iterations_mean=iters_mean,
        wall_seconds=float(sum(t.wall_seconds for t in trials)),
        n_failed=len(trials) - len(ok),
    )


def _run_trial(
    base: MultiViewDataset,
    cfg: ExperimentConfig,
    outcome: TrialOutcome,
    keep_state: bool,
) -> TrialOutcome:
    start = time.perf_counter()
    try:
        masked = apply_mask(
            base, MaskSpec(protocol=cfg.protocol, rate=outcome.rate, seed=outcome.mask_seed)
        )
        # the ablations switch a term off through its own weight; the row
        # keeps the configured beta and gamma
        gamma = 0.0 if outcome.variant == "no-graph" else outcome.gamma
        graphs = build_fused_graphs(masked, k=outcome.knn, gamma=gamma)
        n_components = cfg.n_components or base.n_classes
        solver_cfg = SolverConfig(
            lam=outcome.lam,
            beta=0.0 if outcome.variant == "no-sparsity" else outcome.beta,
            r=outcome.r,
            n_components=n_components,
            max_iter=cfg.max_iter,
            tol=cfg.tol,
            seed=outcome.solver_seed,
            weight_on=outcome.variant != "no-weight",
        )
        state = fit(masked, graphs, solver_cfg)
        scores = evaluate_clustering(
            state.consensus,
            base.labels,
            k=n_components,
            restarts=cfg.kmeans_restarts,
            seed=derive_seed(outcome.solver_seed, "kmeans"),
        )
        return replace(
            outcome,
            iterations=state.n_iterations,
            acc=scores.acc,
            nmi=scores.nmi,
            purity=scores.purity,
            wall_seconds=time.perf_counter() - start,
            state=state if keep_state else None,
        )
    except Exception as exc:  # per-trial failures must not kill the sweep
        message = f"{type(exc).__name__}: {exc}".replace("\n", "; ")
        return replace(
            outcome,
            error=message,
            wall_seconds=time.perf_counter() - start,
        )


def _load_base_dataset(cfg: ExperimentConfig) -> MultiViewDataset:
    ds = load_dataset(cfg.view_paths, cfg.availability_paths, cfg.label_path)
    ds = normalize_views(ds, cfg.normalize)
    if ds.labels is None:
        raise ValueError("experiments need a label file for scoring")
    if cfg.n_components is None and ds.n_classes is None:
        raise ValueError("set 'clusters' in the config or provide labels")
    return ds


def knn_problems(cfg: ExperimentConfig, base: MultiViewDataset) -> list[str]:
    """Check every configured mask up front: one message per (rate, repeat,
    view) whose masked view has too few instances for the largest k.

    The masks are the ones run_sweep draws, from the same seeds. gamma = 0
    builds identity graphs with no neighbor search, so any k is fine there.
    """
    if cfg.gamma == 0.0:
        return []
    k = max(cfg.knn_grid)
    problems = []
    for rate in cfg.rates:
        for rep in range(cfg.repeats):
            spec = MaskSpec(protocol=cfg.protocol, rate=rate, seed=_mask_seed(cfg, rate, rep))
            for view in apply_mask(base, spec).views:
                if k >= view.n_available:
                    problems.append(
                        f"rate {rate!r}, repeat {rep}, view {view.view_id}: k={k} needs at "
                        f"least {k + 1} available instances, the mask leaves {view.n_available}"
                    )
    return problems


def _grid(cfg: ExperimentConfig):
    return list(
        itertools.product(cfg.lam_grid, cfg.beta_grid, cfg.r_grid, cfg.knn_grid)
    )


def _rate_tag(rate: float) -> str:
    return repr(float(rate)).replace(".", "p")


def run_sweep(
    cfg: ExperimentConfig,
    variant: str = "full",
    workers: int = 1,
    keep_states: bool = False,
) -> list[RunRecord]:
    """Run every (grid point x rate x repeat) trial and aggregate the repeats.

    Trials are independent; with workers > 1 they execute on a thread pool,
    but rows are always collected in sweep order so the output is identical.
    """
    base = _load_base_dataset(cfg)
    grid = _grid(cfg)
    pending: list[TrialOutcome] = []
    for gi, (lam, beta, r, knn) in enumerate(grid):
        grid_key = f"lam={lam!r},beta={beta!r},r={r!r},k={knn!r}"
        for rate in cfg.rates:
            for rep in range(cfg.repeats):
                pending.append(
                    TrialOutcome(
                        run_id=f"{variant}-g{gi:03d}-r{_rate_tag(rate)}-t{rep:02d}",
                        variant=variant,
                        protocol=cfg.protocol,
                        rate=float(rate),
                        repeat=rep,
                        mask_seed=_mask_seed(cfg, rate, rep),
                        solver_seed=derive_seed(
                            cfg.master_seed, "solver", grid_key, float(rate), rep
                        ),
                        lam=float(lam),
                        beta=float(beta),
                        r=float(r),
                        knn=int(knn),
                        gamma=float(cfg.gamma),
                    )
                )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(
                pool.map(lambda t: _run_trial(base, cfg, t, keep_states), pending)
            )
    else:
        done = [_run_trial(base, cfg, t, keep_states) for t in pending]

    records = []
    for start in range(0, len(done), cfg.repeats):
        records.append(_aggregate(done[start : start + cfg.repeats]))
    return records


def run_experiment(
    cfg: ExperimentConfig, workers: int = 1, keep_states: bool = False
) -> list[RunRecord]:
    """The full (un-ablated) sweep."""
    return run_sweep(cfg, variant="full", workers=workers, keep_states=keep_states)


def run_ablation(
    cfg: ExperimentConfig, which: str, workers: int = 1, keep_states: bool = False
) -> list[RunRecord]:
    """The same sweep with one model component disabled.

    which: 'weight' (uniform view weights, never updated), 'sparsity'
    (beta = 0: no l1 term) or 'graph' (gamma = 0: identity graphs, so no
    neighbor search and no limit on k).
    """
    if which not in ABLATIONS:
        raise ValueError(f"unknown ablation {which!r}; expected one of {ABLATIONS}")
    return run_sweep(cfg, variant=f"no-{which}", workers=workers, keep_states=keep_states)


_TRIAL_COLUMNS = (
    "run_id",
    "variant",
    "protocol",
    "rate",
    "repeat",
    "mask_seed",
    "solver_seed",
    "lam",
    "beta",
    "r",
    "k",
    "gamma",
    "iterations",
    "acc",
    "nmi",
    "purity",
    "error",
)

# wall-clock time lives on the in-memory records only, so that every output
# file is byte-identical across reruns with the same master seed
_AGGREGATE_COLUMNS = (
    "variant",
    "protocol",
    "rate",
    "lam",
    "beta",
    "r",
    "k",
    "gamma",
    "n_trials",
    "n_failed",
    "acc_mean",
    "acc_std",
    "nmi_mean",
    "nmi_std",
    "purity_mean",
    "purity_std",
    "iterations_mean",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_results(records: Sequence[RunRecord], out_dir: str | Path, cfg: ExperimentConfig) -> dict:
    """Write trials.csv, aggregate.csv and manifest.json; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    trial_lines = [",".join(_TRIAL_COLUMNS)]
    for rec in records:
        for t in rec.trials:
            row = [
                t.run_id,
                t.variant,
                t.protocol,
                _fmt(t.rate),
                str(t.repeat),
                str(t.mask_seed),
                str(t.solver_seed),
                _fmt(t.lam),
                _fmt(t.beta),
                _fmt(t.r),
                str(t.knn),
                _fmt(t.gamma),
                str(t.iterations),
                _fmt(t.acc),
                _fmt(t.nmi),
                _fmt(t.purity),
                '"%s"' % t.error.replace('"', "'") if t.error else "",
            ]
            trial_lines.append(",".join(row))
    trials_path = out / "trials.csv"
    trials_path.write_text("\n".join(trial_lines) + "\n")

    agg_lines = [",".join(_AGGREGATE_COLUMNS)]
    for rec in records:
        agg_lines.append(
            ",".join(
                [
                    rec.variant,
                    rec.protocol,
                    _fmt(rec.rate),
                    _fmt(rec.lam),
                    _fmt(rec.beta),
                    _fmt(rec.r),
                    str(rec.knn),
                    _fmt(rec.gamma),
                    str(rec.n_trials),
                    str(rec.n_failed),
                    _fmt(rec.acc_mean),
                    _fmt(rec.acc_std),
                    _fmt(rec.nmi_mean),
                    _fmt(rec.nmi_std),
                    _fmt(rec.purity_mean),
                    _fmt(rec.purity_std),
                    _fmt(rec.iterations_mean),
                ]
            )
        )
    aggregate_path = out / "aggregate.csv"
    aggregate_path.write_text("\n".join(agg_lines) + "\n")

    import scipy

    from . import __version__ as pkg_version

    manifest = {
        "config": asdict(cfg),
        "versions": {
            "imvc": pkg_version,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "n_records": len(records),
        "n_trials": int(sum(r.n_trials for r in records)),
        "n_failed": int(sum(r.n_failed for r in records)),
        "failed_runs": [t.run_id for r in records for t in r.trials if t.error],
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return {
        "trials": str(trials_path),
        "aggregate": str(aggregate_path),
        "manifest": str(manifest_path),
    }


def write_traces(records: Sequence[RunRecord], out_dir: str | Path) -> list[str]:
    """One trace_<runid>.csv per kept solver state, as written by
    solver.write_trace (iteration, objective, e_v..., alpha_v...)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for rec in records:
        for t in rec.trials:
            if t.state is not None:
                p = out / f"trace_{t.run_id}.csv"
                write_trace(t.state, p)
                paths.append(str(p))
    return paths
