"""Experiment harness: crossed sweeps over masks and solver parameters.

A declarative JSON config describes the dataset files, the masking protocol
(rates x repeats), the solver grid and the scoring setup; each key's row in
_CONFIG_KEYS is its check, and a real value's range is the one that the
object using it states (MaskSpec, SolverConfig, the graph build's gamma).
Each trial runs the full pipeline (mask, graphs, solver, k-means, scores)
into one row of trials.csv; one CSV writer writes it, the per-grid-point
aggregate.csv and the kept traces (failed fits' too) as trace_<runid>.csv.
The resolved config goes to manifest.json.
One machine and one master seed give byte-identical output files, whatever
the number of workers or of usable CPUs.

The mask depends only on (rate, repeat) and the graphs only on the mask and
k, so run_experiment groups the rows by (rate, repeat, k) as it makes them
and runs the groups in sorted order, each in strided chunks of at most 16
trials; each chunk builds the group's mask and graphs and runs its fits as
one solver.fit call. The group alone fixes its chunks, so a trial's batch is
the same whatever the number of workers.
The output columns are the fields of TrialOutcome (trials.csv) and RunRecord
(aggregate.csv) in order, less the in-memory ones; each ablation is the one
model switch in _VARIANTS that it turns off.

in_workers is imvc's one process pool, and a sweep's chunks its only items:
the data files are read in the calling process (dataset.load_dataset), so a
run forks once, whatever its input format. It makes a run's whole CPU
decision: the processes (fork, else the calling process), each one's share
of the usable CPUs, which a chunk runs on as threads (dataset.thread_map),
and one OpenBLAS thread (one_blas_thread) in this process and every worker.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, asdict, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .dataset import (
    MASK_PROTOCOLS,
    NORMALIZE_MODES,
    MaskSpec,
    MultiViewDataset,
    _count,
    _integer,
    _kept_ids,
    _real,
    apply_mask,
    load_dataset,
    normalize_views,
)
from .graph import _gamma, build_fused_graphs
from .metrics import evaluate_clustering
from .solver import SolverConfig, SolverState, fit

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
# the most trials in one chunk, and so in one lockstep batch (run_experiment)
_CHUNK_TRIALS = 16


def _path(key: str, value) -> str:
    """A config file path, named by its key: a number, null or a list is an
    error here rather than a TypeError when the file is opened."""
    if not isinstance(value, (str, os.PathLike)):
        raise ValueError(f"{key} must be a path, got {value!r}")
    return os.fspath(value)


def _one_of(choices: tuple):
    """The check of a config value that must be one of choices."""

    def check(key: str, value):
        if value not in choices:
            raise ValueError(f"{key} must be one of {choices}, got {value!r}")
        return value

    return check


def _list_of(convert, empty: Optional[str] = "empty {} grid", distinct: bool = True):
    """The check of a config list, each value passed through convert. empty
    is the error of an empty list, formatted with the key; None allows one.
    If distinct, a value given twice is an error: in a grid it would run its
    cells twice."""

    def check(key: str, values) -> tuple:
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"{key} must be a list, got {values!r}")
        if empty is not None and not values:
            raise ValueError(empty.format(key))
        values = tuple(convert(key, value) for value in values)
        if distinct and len(set(values)) < len(values):
            raise ValueError(f"{key} must be distinct, got {list(values)}")
        return values

    return check


def _sidecars(key: str, values) -> Optional[tuple]:
    """A list of availability paths; an empty one is None, no sidecars."""
    return _list_of(_path, None, distinct=False)(key, values) or None


# The config file's keys, each with its section (None: the top level), the
# ExperimentConfig field it sets, and the check that converts its value; a
# rate's, lam's, beta's, r's and tol's range is checked by the MaskSpec and
# SolverConfig that ExperimentConfig builds. gamma and tol are stored as
# floats, as manifest.json states them.
_CONFIG_KEYS = {
    "views": (
        "dataset",
        "view_paths",
        _list_of(_path, "config needs at least one view file", distinct=False),
    ),
    "availability": ("dataset", "availability_paths", _sidecars),
    "labels": ("dataset", "label_path", _path),
    "normalize": ("dataset", "normalize", _one_of(NORMALIZE_MODES)),
    "protocol": ("mask", "protocol", _one_of(MASK_PROTOCOLS)),
    "rates": ("mask", "rates", _list_of(_real, "config needs at least one mask rate")),
    "repeats": ("mask", "repeats", _count),
    "lam": ("solver", "lam_grid", _list_of(_real)),
    "beta": ("solver", "beta_grid", _list_of(_real)),
    "r": ("solver", "r_grid", _list_of(_real)),
    "k": ("solver", "knn_grid", _list_of(_count)),
    "gamma": ("solver", "gamma", _gamma),
    "max_iter": ("solver", "max_iter", _integer),
    "tol": ("solver", "tol", lambda key, value: float(_real(key, value))),
    "restarts": ("metrics", "kmeans_restarts", _count),
    "clusters": (None, "n_components", _count),
    "output": (None, "output_dir", _path),
    "master_seed": (None, "master_seed", _integer),
}


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
        defaults = {f.name: f.default for f in fields(self)}
        for key, (_, name, check) in _CONFIG_KEYS.items():
            value = getattr(self, name)
            if value is not None or defaults[name] is not None:  # None: not set
                object.__setattr__(self, name, check(key, value))
        # the rules that join keys: the protocol's default rates, the mask's
        # checks of each rate, and the solver's of each grid point (lam, beta,
        # r, max_iter, tol; the cluster count may come from the labels later)
        if self.rates is None:
            object.__setattr__(self, "rates", DEFAULT_RATES[self.protocol])
        for rate in self.rates:
            MaskSpec(protocol=self.protocol, rate=rate)
        for lam, beta, r in itertools.product(self.lam_grid, self.beta_grid, self.r_grid):
            SolverConfig(
                lam=lam, beta=beta, r=r, n_components=1, max_iter=self.max_iter, tol=self.tol
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config of a parsed JSON file. Keys left out take the field
        defaults; an unknown key, at the top level or in a section, is an
        error, as is a config or a section that is not a JSON object."""
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {raw!r}")
        sections = dict.fromkeys(section for section, _, _ in _CONFIG_KEYS.values() if section)
        top = {key: value for key, value in raw.items() if key not in sections}
        settings = {}
        for section in (None, *sections):
            values = raw.get(section, {}) if section else top
            if not isinstance(values, dict):
                raise ValueError(f"section {section!r} must be a JSON object, got {values!r}")
            keys = {key: name for key, (s, name, _) in _CONFIG_KEYS.items() if s == section}
            unknown = set(values) - set(keys)
            if unknown:
                where = f" in section {section!r}" if section else ""
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


def _error(exc: Exception) -> str:
    """A failure as its trial's error text."""
    return f"{type(exc).__name__}: {exc}".replace("\n", "; ")


class _Base:
    """A sweep's loaded dataset (load_base), held for its chunks, which mask
    it: it lets go of the dataset once all chunks have drawn their masks in
    this process, so a serial run's last chunk keeps only the masked copies.
    A forked worker runs only some chunks (in_workers sends each one a chunk
    first), and the parent none, so both keep it."""

    def __init__(self, dataset: MultiViewDataset, chunks: int):
        self._dataset = dataset
        self._left = chunks

    def mask(self, spec: MaskSpec) -> MultiViewDataset:
        dataset = self._dataset
        self._left -= 1
        if self._left == 0:
            self._dataset = None
        return apply_mask(dataset, spec)


def _run_trial(
    base: _Base,
    cfg: ExperimentConfig,
    keep_states: bool,
    threads: int,
    chunk: Sequence[TrialOutcome],
) -> list[TrialOutcome]:
    """Run one chunk of a group's trials on the sweep's loaded dataset (held
    by base, which the chunk masks through) and config: their fits in
    lockstep, as one fit call, then each trial's k-means and scores, keeping
    its solver state if keep_states. (The name is the one
    perfbench/tracing.py times as harness.trial.)

    threads is the chunk's process's share of the CPUs (in_workers): the
    graph build, the fit and each k-means run their views or restarts on
    that many threads, which each stage starts and joins itself, so no
    thread outlives its stage. The chunk runs at one OpenBLAS thread
    (in_workers), so the rows and states do not depend on threads.

    The chunk builds its group's mask and graphs from its first trial. A
    failure becomes the error of the trials it ends: a failed group build or
    batch set-up, of every trial in the chunk; a failed fit or scoring, of
    its own trial. The trials' wall times add up to the chunk's: the first
    trial counts the group build, and each trial its fit's share of the
    lockstep sweeps (SolverState.seconds) and its own k-means and scoring.
    """
    start = time.perf_counter()
    first = chunk[0]
    try:
        spec = MaskSpec(protocol=cfg.protocol, rate=first.rate, seed=first.mask_seed)
        masked = base.mask(spec)  # it holds the loaded dataset's labels
        n_components = masked.n_classes if cfg.n_components is None else cfg.n_components
        gamma = _VARIANTS[first.variant].get("gamma", first.gamma)
        graphs = build_fused_graphs(masked, k=first.k, gamma=gamma, threads=threads)
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
        states = fit(masked, graphs, solver_cfgs, threads=threads)
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
        outcome = replace(outcome, state=state if keep_states else None)
        if state.error is not None:
            outcome = replace(outcome, error=_error(state.error))
        else:
            try:
                scores = evaluate_clustering(
                    state.consensus,
                    masked.labels,
                    k=n_components,
                    restarts=cfg.kmeans_restarts,
                    seed=derive_seed(outcome.solver_seed, "kmeans"),
                    threads=threads,
                )
            except Exception as exc:  # per-trial failures must not kill the sweep
                outcome = replace(outcome, error=_error(exc))
            else:
                outcome = replace(
                    outcome,
                    iterations=state.n_iterations,
                    acc=scores.acc,
                    nmi=scores.nmi,
                    purity=scores.purity,
                )
        wall = (build if j == 0 else 0.0) + state.seconds + time.perf_counter() - scoring
        done.append(replace(outcome, wall_seconds=wall))
    return done


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
    """Check up front what would fail every trial: one message per view with
    fewer features than the cluster count (the configured clusters, else the
    number of label classes), then one per (rate, repeat, view) whose masked
    view has too few instances for the largest k.

    The masks are the ones run_experiment draws, from the same seeds.
    gamma = 0 builds identity graphs with no neighbor search, so any k is
    fine there.
    """
    c = base.n_classes if cfg.n_components is None else cfg.n_components
    problems = [
        f"view {view.view_id}: {view.n_features} features, fewer than the {c} clusters"
        for view in base.views
        if view.n_features < c
    ]
    if cfg.gamma == 0.0:
        return problems
    k = max(cfg.knn_grid)
    for rate in cfg.rates:
        for rep in range(cfg.repeats):
            spec = MaskSpec(protocol=cfg.protocol, rate=rate, seed=_mask_seed(cfg, rate, rep))
            for view, ids in zip(base.views, _kept_ids(base, spec)):
                if k >= ids.size:
                    problems.append(
                        f"rate {rate!r}, repeat {rep}, view {view.view_id}: k={k} needs at "
                        f"least {k + 1} available instances, the mask leaves {ids.size}"
                    )
    return problems


def _rate_tag(rate: float) -> str:
    return repr(float(rate)).replace(".", "p")


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads(threads: Optional[int] = None) -> Optional[int]:
    """Set the threads of numpy's bundled OpenBLAS (numpy.libs) if given, and
    return the count from before; under another BLAS, do nothing: None."""
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*scipy_openblas*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            before = lib.scipy_openblas_get_num_threads64_()
            if threads not in (None, before):
                lib.scipy_openblas_set_num_threads64_(threads)
            return before
    return None


@contextmanager
def one_blas_thread():
    """Run the block, and every process forked in it, at one OpenBLAS
    thread, and put this process's count back after it.

    Past a few thousand elements OpenBLAS splits a product or a dot over its
    threads, and the split changes the sums' bits; at one thread they do not
    depend on the host's CPUs, nor on which thread makes the call. A forked
    process inherits the count: one that set it itself would restart
    OpenBLAS's thread pool, which spins.
    """
    before = _blas_threads(1)
    try:
        yield
    finally:
        _blas_threads(before)


def _serve(run: Callable, items: Sequence, threads: int, conn, parent_ends: list) -> None:
    """A forked worker: run each item index its parent sends, until None, and
    send back the index with (True, run(threads, item)) or (False, error).

    It first closes the parent's pipe ends that it inherited at fork, so that
    each worker sees the end of its pipe once the parent closes its own end.
    """
    for end in parent_ends:
        end.close()
    for i in iter(conn.recv, None):
        try:
            outcome = (True, run(threads, items[i]))
        except Exception as exc:
            outcome = (False, exc)
        conn.send((i, outcome))


def in_workers(run: Callable, items: Sequence, processes: int) -> list:
    """[run(threads, item) for item in items]: the whole CPU decision of a run.

    The processes: min(processes, len(items)) forked workers, or this process
    alone where that is fewer than 2, without fork, or in a daemon process,
    which may start none (a spawned worker would first import numpy, scipy
    and imvc again and be sent its arrays). threads is each process's even
    share of the usable CPUs, max(1, usable_cpus() // processes), which run
    spreads its item over (dataset.thread_map). Every item runs at one
    OpenBLAS thread (one_blas_thread), set here before any worker forks and
    put back once they are joined; the workers inherit it.

    Each forked worker is sent one item index at a time, in item order, and
    its next one when it sends back the last. It inherits run, the items and
    their arrays at fork, so only indices go to it and only results come
    back. This thread reads the results: memory that a helper thread
    allocated would stay in that thread's malloc arena once freed and raise
    this process's peak RSS. Results, and the first error, are taken in item
    order, as a serial loop meets them.
    """
    processes = min(processes, len(items))
    if (
        processes < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        processes = 1
    threads = max(1, usable_cpus() // processes)
    with one_blas_thread():
        if processes == 1:
            return [run(threads, item) for item in items]
        context = multiprocessing.get_context("fork")
        order = iter(range(len(items)))
        workers, outcomes = [], {}
        try:
            for _ in range(processes):
                ours, theirs = context.Pipe()
                parent_ends = [ours] + [end for _, end in workers]
                worker = context.Process(
                    target=_serve, args=(run, items, threads, theirs, parent_ends)
                )
                worker.start()
                theirs.close()
                workers.append((worker, ours))
                ours.send(next(order))
            running = [ours for _, ours in workers]
            while running:
                for conn in multiprocessing.connection.wait(running):
                    try:
                        i, outcome = conn.recv()
                    except EOFError:  # the worker was sent None, or died
                        running.remove(conn)
                    else:
                        outcomes[i] = outcome
                        conn.send(next(order, None))
        finally:
            for worker, ours in workers:
                ours.close()
                worker.join()
    results = []
    for i in range(len(items)):
        if i not in outcomes:
            raise RuntimeError(f"a worker process ended before job {i} was done")
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


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
    group's trials are dealt into C = ceil(trials / _CHUNK_TRIALS) strided
    chunks (chunk j holds rows j, j + C, ...), whatever workers is, and each
    chunk is one item, _run_trial(base, cfg, keep_states, threads, chunk),
    that builds the group's mask and graphs and runs its fits in lockstep as
    one fit call. workers, an integer of at least 1, is checked first; the
    data files are then read in this process (load_base), so a run forks
    once, whatever its input format, and held for the chunks by a _Base,
    so a serial run's last chunk keeps one copy of the data. in_workers
    runs the chunks, in group order, on up to workers processes, and picks
    those processes, their share of the CPUs as threads and the one
    OpenBLAS thread. A group's
    build is deterministic, its chunks do not depend on workers, no stage's
    bits depend on its threads, and rows are put back by id, so the output
    depends neither on workers nor on the number of usable CPUs, on any
    BLAS kernel.
    """
    if ablation is not None and ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}; expected one of {ABLATIONS}")
    workers = _count("workers", workers)
    variant = "full" if ablation is None else f"no-{ablation}"
    grid = itertools.product(cfg.lam_grid, cfg.beta_grid, cfg.r_grid, cfg.knn_grid)
    pending: list[TrialOutcome] = []
    # the row ids of each (rate, repeat, k) group: one mask, one set of graphs
    groups: dict[tuple, list[int]] = {}
    for gi, (lam, beta, r, k) in enumerate(grid):
        grid_key = f"lam={lam!r},beta={beta!r},r={r!r},k={k!r}"
        for rate in cfg.rates:
            for rep in range(cfg.repeats):
                groups.setdefault((float(rate), rep, k), []).append(len(pending))
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

    chunk_ids = []
    for _, ids in sorted(groups.items()):
        parts = math.ceil(len(ids) / _CHUNK_TRIALS)
        chunk_ids += [ids[j::parts] for j in range(parts)]
    chunks = [[pending[i] for i in ids] for ids in chunk_ids]
    base = _Base(load_base(cfg), len(chunks))
    results = in_workers(partial(_run_trial, base, cfg, keep_states), chunks, workers)
    for ids, done in zip(chunk_ids, results):
        for i, outcome in zip(ids, done):
            pending[i] = outcome

    return [
        _aggregate(pending[start : start + cfg.repeats])
        for start in range(0, len(pending), cfg.repeats)
    ]


def _cell(value) -> str:
    """One CSV cell: floats as repr, None empty, anything else as str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_cell(value) for value in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _row(record, columns: Sequence[str]) -> list:
    """The record's values in columns. Its error text, the one cell that can
    hold a comma, is quoted, with its own double quotes made apostrophes."""
    error = getattr(record, "error", "")
    quoted = '"%s"' % error.replace('"', "'") if error else ""
    return [quoted if name == "error" else getattr(record, name) for name in columns]


def write_results(records: Sequence[RunRecord], out_dir: str | Path, cfg: ExperimentConfig) -> dict:
    """Write trials.csv, aggregate.csv and manifest.json; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trials_path = out / "trials.csv"
    trials = (t for rec in records for t in rec.trials)
    _write_csv(trials_path, _TRIAL_COLUMNS, (_row(t, _TRIAL_COLUMNS) for t in trials))
    aggregate_path = out / "aggregate.csv"
    _write_csv(aggregate_path, _AGGREGATE_COLUMNS, (_row(r, _AGGREGATE_COLUMNS) for r in records))

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


def write_trace(state: SolverState, path: str | Path) -> None:
    """Write one fit's traces as CSV: one row per iteration t of the state's
    objective_trace, with t, the objective, e per view and weight per view."""
    l = state.weights.size
    header = ["iteration", "objective", *(f"e_{v}" for v in range(l))]
    header += [f"alpha_{v}" for v in range(l)]
    table = np.column_stack([state.objective_trace, state.cost_trace, state.weight_trace])
    _write_csv(Path(path), header, ([t, *row] for t, row in enumerate(table.tolist())))


def write_traces(records: Sequence[RunRecord], out_dir: str | Path) -> list[str]:
    """One trace_<runid>.csv per kept solver state, as write_trace writes it."""
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
