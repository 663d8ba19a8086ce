"""Experiment harness: crossed sweeps over masks and solver parameters.

A declarative JSON config describes the dataset files, the masking protocol
(rates x repeats), the solver parameter grid, and the scoring setup. Each
trial runs the full pipeline (mask, graphs, solver, k-means, scores) and
lands as one row in trials.csv; per-grid-point aggregates go to aggregate.csv
and the resolved config to manifest.json. Given one machine and
one master seed, trials.csv is byte-identical across runs.

The mask depends only on (rate, repeat) and the graphs only on the mask and
k, so run_experiment runs the trials group by group, and each process that
runs them keeps the last group it built on its _Sweep. A group's trials run
in chunks, each chunk's fits in lockstep as one solver.fit call. The output
columns are the fields of TrialOutcome (trials.csv) and RunRecord
(aggregate.csv) in order, less the in-memory ones; each ablation is the one
model switch in _VARIANTS that it turns off.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import json
import math
import multiprocessing
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, fields, replace
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

# Each variant and the model switch it turns off, as the value it runs with:
# the graph build reads gamma from here and SolverConfig beta and weight_on.
# The rows keep the configured beta and gamma.
_VARIANTS = {
    "full": {},
    "no-weight": {"weight_on": False},
    "no-sparsity": {"beta": 0.0},
    "no-graph": {"gamma": 0.0},
}
ABLATIONS = tuple(name.removeprefix("no-") for name in _VARIANTS if name != "full")

DEFAULT_RATES = {"random-missing": (0.1, 0.3, 0.5), "paired-sample": (0.3, 0.5, 0.7)}
# desk-scale slices of the full candidate sets
DEFAULT_LAM_GRID = (0.001, 0.1, 10.0)
DEFAULT_BETA_GRID = (1e-05, 0.001, 0.1)
DEFAULT_R_GRID = (2.0, 5.0, 9.0)
DEFAULT_KNN_GRID = (5,)


# The config file's keys: each section's keys, and the top-level ones that
# are not sections, map to the ExperimentConfig field they set.
_CONFIG_SECTIONS = {
    "dataset": {
        "views": "view_paths",
        "availability": "availability_paths",
        "labels": "label_path",
        "normalize": "normalize",
    },
    "mask": {"protocol": "protocol", "rates": "rates", "repeats": "repeats"},
    "solver": {
        "lam": "lam_grid",
        "beta": "beta_grid",
        "r": "r_grid",
        "k": "knn_grid",
        "gamma": "gamma",
        "max_iter": "max_iter",
        "tol": "tol",
    },
    "metrics": {"restarts": "kmeans_restarts"},
}
_CONFIG_TOP_LEVEL = {
    "clusters": "n_components",
    "output": "output_dir",
    "master_seed": "master_seed",
}


def _integer(key: str, value) -> int:
    """A config integer, named by its key: 3 and 3.0 are taken, 2.5 and
    true are errors rather than truncated or counted as 1."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _number(key: str, value):
    """A config number, named by its key, as given: a grid value's repr
    names its trials' seeds. Strings, null, booleans, NaN and infinities are
    errors rather than compared or run."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return value


def _path(key: str, value) -> str:
    """A config file path, named by its key: a number, null or a list is an
    error here rather than a TypeError when the file is opened."""
    if not isinstance(value, (str, os.PathLike)):
        raise ValueError(f"{key} must be a path, got {value!r}")
    return os.fspath(value)


def _list(key: str, values, convert) -> tuple:
    """A config list, each value passed through convert."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {values!r}")
    return tuple(convert(key, value) for value in values)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep needs, resolvable from a JSON file. rates=None
    takes the protocol's DEFAULT_RATES."""

    view_paths: tuple[str, ...] = ()
    availability_paths: Optional[tuple[str, ...]] = None
    label_path: Optional[str] = None
    normalize: str = "none"
    protocol: str = "random-missing"
    rates: Optional[tuple[float, ...]] = None
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
        object.__setattr__(self, "view_paths", _list("views", self.view_paths, _path))
        if self.availability_paths is not None:  # an empty list of sidecars is None
            paths = _list("availability", self.availability_paths, _path) or None
            object.__setattr__(self, "availability_paths", paths)
        if self.label_path is not None:
            object.__setattr__(self, "label_path", _path("labels", self.label_path))
        object.__setattr__(self, "output_dir", _path("output", self.output_dir))
        object.__setattr__(self, "repeats", _integer("repeats", self.repeats))
        object.__setattr__(self, "max_iter", _integer("max_iter", self.max_iter))
        object.__setattr__(self, "kmeans_restarts", _integer("restarts", self.kmeans_restarts))
        object.__setattr__(self, "master_seed", _integer("master_seed", self.master_seed))
        object.__setattr__(self, "knn_grid", _list("k", self.knn_grid, _integer))
        object.__setattr__(self, "lam_grid", _list("lam", self.lam_grid, _number))
        object.__setattr__(self, "beta_grid", _list("beta", self.beta_grid, _number))
        object.__setattr__(self, "r_grid", _list("r", self.r_grid, _number))
        object.__setattr__(self, "gamma", float(_number("gamma", self.gamma)))
        object.__setattr__(self, "tol", float(_number("tol", self.tol)))
        if self.n_components is not None:
            object.__setattr__(self, "n_components", _integer("clusters", self.n_components))
            if self.n_components < 1:
                raise ValueError(f"clusters must be at least 1, got {self.n_components}")
        if not self.view_paths:
            raise ValueError("config needs at least one view file")
        if self.protocol not in MASK_PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.rates is None:
            object.__setattr__(self, "rates", DEFAULT_RATES[self.protocol])
        object.__setattr__(self, "rates", _list("rates", self.rates, _number))
        if not self.rates:
            raise ValueError("config needs at least one mask rate")
        # a rate names its trials' run ids and trace files
        if len(set(self.rates)) < len(self.rates):
            raise ValueError(f"rates must be distinct, got {list(self.rates)}")
        for rate in self.rates:  # the mask's own checks of each rate
            MaskSpec(protocol=self.protocol, rate=rate)
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
        if min(self.knn_grid) < 1:
            raise ValueError(f"k must be at least 1, got {min(self.knn_grid)}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if self.kmeans_restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.kmeans_restarts}")
        # the solver's own checks of lam, beta, r, max_iter and tol, on every
        # grid point; the cluster count may come from the labels later
        for lam, beta, r in itertools.product(self.lam_grid, self.beta_grid, self.r_grid):
            SolverConfig(
                lam=lam, beta=beta, r=r, n_components=1, max_iter=self.max_iter, tol=self.tol
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config of a parsed JSON file. Keys left out take the field
        defaults; an unknown key, at the top level or in a section, is an
        error."""
        top = {key: value for key, value in raw.items() if key not in _CONFIG_SECTIONS}
        parts = [("", top, _CONFIG_TOP_LEVEL)]
        parts += [
            (f" in section {s!r}", raw.get(s, {}), keys) for s, keys in _CONFIG_SECTIONS.items()
        ]
        settings = {}
        for where, values, keys in parts:
            unknown = set(values) - set(keys)
            if unknown:
                raise ValueError(f"unknown config keys{where}: {sorted(unknown)}")
            settings.update((keys[key], value) for key, value in values.items())
        return cls(**settings)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's row, less its wall time (wall_seconds, see _run_trial) and
    solver state."""

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
    k: int
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
    """Aggregate over the repeats of one (grid point, rate) cell: the fields
    up to iterations_mean are its aggregate.csv row."""

    variant: str
    protocol: str
    rate: float
    lam: float
    beta: float
    r: float
    k: int
    gamma: float
    n_trials: int
    n_failed: int
    acc_mean: float
    acc_std: float
    nmi_mean: float
    nmi_std: float
    purity_mean: float
    purity_std: float
    iterations_mean: float
    trials: tuple[TrialOutcome, ...]


# the fields kept in memory only: wall-clock time and solver states stay off
# the files, so that every output file is byte-identical across reruns with
# the same master seed
_IN_MEMORY = ("wall_seconds", "state", "trials")
_TRIAL_COLUMNS = tuple(f.name for f in fields(TrialOutcome) if f.name not in _IN_MEMORY)
_AGGREGATE_COLUMNS = tuple(f.name for f in fields(RunRecord) if f.name not in _IN_MEMORY)
# the columns that name a cell: the same for every trial of it
_CELL_COLUMNS = tuple(name for name in _AGGREGATE_COLUMNS if name in _TRIAL_COLUMNS)


def derive_seed(*parts) -> int:
    """Stable, order-sensitive hash of the given parts into an RNG seed."""
    key = "|".join(repr(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") >> 1


def _mask_seed(cfg: ExperimentConfig, rate: float, repeat: int) -> int:
    return derive_seed(cfg.master_seed, "mask", float(rate), repeat)


def _aggregate(trials: Sequence[TrialOutcome]) -> RunRecord:
    """The record of one cell; its scores average the trials that succeeded
    and are NaN when none did."""
    ok = [t for t in trials if not t.error]
    scores = {}
    for name in ("acc", "nmi", "purity"):
        values = np.array([getattr(t, name) for t in ok])
        scores[f"{name}_mean"], scores[f"{name}_std"] = (
            (float(values.mean()), float(values.std())) if ok else (float("nan"), float("nan"))
        )
    return RunRecord(
        **{name: getattr(trials[0], name) for name in _CELL_COLUMNS},
        n_trials=len(trials),
        n_failed=len(trials) - len(ok),
        **scores,
        iterations_mean=float(np.mean([t.iterations for t in ok])) if ok else float("nan"),
        trials=tuple(trials),
    )


def _group(trial: TrialOutcome) -> tuple:
    """The trial's (rate, repeat, k) group: the trials that share one mask
    and one set of fused graphs."""
    return trial.rate, trial.repeat, trial.k


@dataclass
class _Sweep:
    """One sweep (one variant) as the process that runs its trials holds it:
    the base dataset, the config, whether trials keep their solver states,
    and the last group this process built with its masked dataset and fused
    graphs, or the build's exception. Built in the calling process for one
    worker, and by the pool initializer in each worker process."""

    base: MultiViewDataset
    cfg: ExperimentConfig
    keep_states: bool
    group: Optional[tuple] = None
    built: object = None

    def problem(self, outcome: TrialOutcome):
        """The masked dataset and fused graphs of the outcome's group, built
        only when the group differs from the last one. A failed build is kept
        and raised again to every trial of its group."""
        if _group(outcome) != self.group:
            try:
                masked = apply_mask(
                    self.base,
                    MaskSpec(protocol=self.cfg.protocol, rate=outcome.rate, seed=outcome.mask_seed),
                )
                gamma = _VARIANTS[outcome.variant].get("gamma", outcome.gamma)
                self.built = masked, build_fused_graphs(masked, k=outcome.k, gamma=gamma)
            except Exception as exc:
                self.built = exc
            self.group = _group(outcome)
        if isinstance(self.built, Exception):
            raise self.built.with_traceback(None)
        return self.built


def _error(exc: Exception) -> str:
    """A failure as its trial's error text."""
    return f"{type(exc).__name__}: {exc}".replace("\n", "; ")


def _scored(
    sweep: _Sweep, outcome: TrialOutcome, state: SolverState, n_components: int
) -> TrialOutcome:
    """The outcome of one fitted trial: its k-means scores, or its error."""
    if state.error is not None:
        return replace(outcome, error=_error(state.error))
    try:
        scores = evaluate_clustering(
            state.consensus,
            sweep.base.labels,
            k=n_components,
            restarts=sweep.cfg.kmeans_restarts,
            seed=derive_seed(outcome.solver_seed, "kmeans"),
        )
    except Exception as exc:  # per-trial failures must not kill the sweep
        return replace(outcome, error=_error(exc))
    return replace(
        outcome,
        iterations=state.n_iterations,
        acc=scores.acc,
        nmi=scores.nmi,
        purity=scores.purity,
        state=state if sweep.keep_states else None,
    )


def _run_trial(sweep: _Sweep, chunk: Sequence[TrialOutcome]) -> list[TrialOutcome]:
    """Run one chunk of a group's trials: their fits in lockstep, as one fit
    call, then each trial's k-means and scores. (The name is the one
    perfbench/tracing.py times as harness.trial.)

    A failure becomes the error of the trials it ends: a failed group build
    or batch set-up, of every trial in the chunk; a failed fit or scoring, of
    its own trial. The trials' wall times add up to the chunk's: the first
    trial counts the group build (when this chunk made it), and each trial
    its fit's share of the lockstep sweeps (SolverState.seconds) and its own
    k-means and scoring.
    """
    start = time.perf_counter()
    cfg = sweep.cfg
    n_components = sweep.base.n_classes if cfg.n_components is None else cfg.n_components
    try:
        masked, graphs = sweep.problem(chunk[0])
        solver_cfgs = []
        for outcome in chunk:
            switch = _VARIANTS[outcome.variant]
            solver_cfgs.append(
                SolverConfig(
                    lam=outcome.lam,
                    beta=switch.get("beta", outcome.beta),
                    r=outcome.r,
                    n_components=n_components,
                    max_iter=cfg.max_iter,
                    tol=cfg.tol,
                    seed=outcome.solver_seed,
                    weight_on=switch.get("weight_on", True),
                )
            )
        states = fit(masked, graphs, solver_cfgs)
    except Exception as exc:  # per-trial failures must not kill the sweep
        wall = time.perf_counter() - start
        return [
            replace(outcome, error=_error(exc), wall_seconds=wall if j == 0 else 0.0)
            for j, outcome in enumerate(chunk)
        ]
    build = time.perf_counter() - start - sum(state.seconds for state in states)
    done = []
    for j, (outcome, state) in enumerate(zip(chunk, states)):
        scoring = time.perf_counter()
        outcome = _scored(sweep, outcome, state, n_components)
        wall = (build if j == 0 else 0.0) + state.seconds + time.perf_counter() - scoring
        done.append(replace(outcome, wall_seconds=wall))
    return done


# the sweep a worker process serves, set by the pool initializer
_worker_sweep: Optional[_Sweep] = None


def _cap_blas_threads(threads: int) -> None:
    """Cap the threads of the OpenBLAS that numpy's wheels bundle (in
    numpy.libs) at threads. Where numpy has no such library, under another
    BLAS for one, this does nothing."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*scipy_openblas*")):
        setter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(threads)
            return


def _init_worker(
    base: MultiViewDataset, cfg: ExperimentConfig, keep_states: bool, processes: int
) -> None:
    """Set up one of `processes` workers: its sweep, and its share of the
    CPUs as BLAS threads, so the workers do not oversubscribe them."""
    global _worker_sweep
    _worker_sweep = _Sweep(base, cfg, keep_states)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    _cap_blas_threads(max(1, (cpus or 1) // processes))


def _worker_trial(chunk: list[TrialOutcome]) -> list[TrialOutcome]:
    return _run_trial(_worker_sweep, chunk)


class DataError(ValueError):
    """A sweep's data files cannot be read or normalized, or give no labels
    to score with."""


def load_base(cfg: ExperimentConfig) -> MultiViewDataset:
    """The configured dataset, loaded and normalized, that every trial of a
    sweep masks."""
    if cfg.label_path is None:
        raise DataError("experiments need a label file for scoring")
    try:
        base = load_dataset(cfg.view_paths, cfg.availability_paths, cfg.label_path)
        return normalize_views(base, cfg.normalize)
    except (OSError, ValueError) as exc:
        raise DataError(exc) from exc


def knn_problems(cfg: ExperimentConfig, base: MultiViewDataset) -> list[str]:
    """Check every configured mask up front: one message per (rate, repeat,
    view) whose masked view has too few instances for the largest k.

    The masks are the ones run_experiment draws, from the same seeds.
    gamma = 0 builds identity graphs with no neighbor search, so any k is
    fine there.
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


def _rate_tag(rate: float) -> str:
    return repr(float(rate)).replace(".", "p")


def run_experiment(
    cfg: ExperimentConfig,
    ablation: Optional[str] = None,
    workers: int = 1,
    keep_states: bool = False,
) -> list[RunRecord]:
    """Run every (grid point x rate x repeat) trial and aggregate the repeats.

    ablation=None runs the full model; otherwise one model component is off:
    'weight' (uniform view weights, never updated), 'sparsity' (beta = 0: no
    l1 term) or 'graph' (gamma = 0: identity graphs, so no neighbor search
    and no limit on k).

    Trials run group by group, in sorted (rate, repeat, k) order. Each
    group's trials are split into min(workers, trials) contiguous chunks (one
    chunk for one worker), and a chunk's fits run in lockstep as one fit
    call; a process builds each group's mask and graphs once for the chunks
    of that group it runs. With workers > 1 the chunks are handed out in that
    order, one at a time, to min(workers, trials) worker processes (forked
    where the platform allows, else spawned); one worker, or one trial, runs
    in this process. A group's build is deterministic, a fit in a batch gives
    what it gives alone, and rows are collected in sweep order, so the output
    does not depend on workers.
    """
    if ablation is not None and ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}; expected one of {ABLATIONS}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    variant = "full" if ablation is None else f"no-{ablation}"
    base = load_base(cfg)
    grid = itertools.product(cfg.lam_grid, cfg.beta_grid, cfg.r_grid, cfg.knn_grid)
    pending: list[TrialOutcome] = []
    for gi, (lam, beta, r, k) in enumerate(grid):
        grid_key = f"lam={lam!r},beta={beta!r},r={r!r},k={k!r}"
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
                        k=k,
                        gamma=float(cfg.gamma),
                    )
                )

    # stable: each group's trials keep their sweep order
    order = sorted(range(len(pending)), key=lambda i: _group(pending[i]))
    processes = min(workers, len(pending))
    chunks = [
        [pending[i] for i in chunk]
        for _, members in itertools.groupby(order, key=lambda i: _group(pending[i]))
        for chunk in np.array_split(list(members), processes)
        if chunk.size
    ]
    if processes > 1:
        # fork where the platform has it: a forked worker starts at once with
        # this process's imports and dataset, a spawned one first re-imports
        # numpy, scipy and imvc
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        with ProcessPoolExecutor(
            max_workers=processes,
            mp_context=multiprocessing.get_context(method),
            initializer=_init_worker,
            initargs=(base, cfg, keep_states, processes),
        ) as pool:
            results = list(pool.map(_worker_trial, chunks))
    else:
        sweep = _Sweep(base, cfg, keep_states)
        results = [_run_trial(sweep, chunk) for chunk in chunks]
    for i, outcome in zip(order, itertools.chain.from_iterable(results)):
        pending[i] = outcome

    return [
        _aggregate(pending[start : start + cfg.repeats])
        for start in range(0, len(pending), cfg.repeats)
    ]


def _cell(row, name: str) -> str:
    """One CSV cell: floats as repr, None empty, and the error text, the one
    cell that can hold a comma, quoted with its own quotes made apostrophes."""
    value = getattr(row, name)
    if name == "error":
        return '"%s"' % value.replace('"', "'") if value else ""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, columns: Sequence[str], rows) -> None:
    lines = [",".join(columns)]
    lines += [",".join(_cell(row, name) for name in columns) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_results(records: Sequence[RunRecord], out_dir: str | Path, cfg: ExperimentConfig) -> dict:
    """Write trials.csv, aggregate.csv and manifest.json; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trials_path = out / "trials.csv"
    _write_csv(trials_path, _TRIAL_COLUMNS, [t for rec in records for t in rec.trials])
    aggregate_path = out / "aggregate.csv"
    _write_csv(aggregate_path, _AGGREGATE_COLUMNS, records)

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
