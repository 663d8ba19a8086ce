"""Incomplete multi-view data: containers, masking, and I/O.

A dataset holds one feature matrix per view (features x available instances)
together with an availability list per view that maps each instance column to
its global sample id. Samples may be missing from any subset of views as long
as every sample is observed in at least one view. apply_mask simulates
incompleteness on a complete dataset under a MaskSpec: "random-missing" drops
instances from every view, "paired-sample" keeps both of two views for a
fraction of the samples.

On-disk interchange format (all plain text, no binary dependencies):
  * view file: CSV, no header, '.' decimal separator, m_v rows x n_v columns;
  * availability sidecar: one integer sample id per line, strictly ascending;
  * label file: CSV, a single column of n integers.

load_dataset and save_dataset read and write the files in parallel, each
file whole in one of up to as many forked processes as this process may use
CPUs. The arrays and the bytes are those of one process doing it all, which
is what happens where the platform has no fork.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import os
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

MASK_PROTOCOLS = ("random-missing", "paired-sample")
NORMALIZE_MODES = ("none", "unit-l2-column", "zscore-row")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, order="C", copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ViewMatrix:
    """Feature matrix of one view, shape (n_features, n_available)."""

    view_id: int
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(
                f"view {self.view_id}: data must be a 2-D matrix with at least "
                f"one row and one column, got shape {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            i, j = np.argwhere(~np.isfinite(data))[0]
            raise ValueError(
                f"view {self.view_id}: non-finite entry at row {i}, column {j}"
            )
        object.__setattr__(self, "data", _readonly(data))

    @property
    def n_features(self) -> int:
        return self.data.shape[0]

    @property
    def n_available(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MultiViewDataset:
    """Multi-view data with per-view availability over a global sample index.

    Attributes:
        views: one ViewMatrix per view.
        n: total number of samples (missing or not).
        availability: per view, the strictly increasing global sample ids of
            the columns in that view's data matrix.
        labels: optional ground-truth class ids, 0-based, length n.
    """

    views: tuple[ViewMatrix, ...]
    n: int
    availability: tuple[np.ndarray, ...]
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        views = tuple(self.views)
        if not views:
            raise ValueError("dataset needs at least one view")
        if len(self.availability) != len(views):
            raise ValueError(
                f"{len(views)} views but {len(self.availability)} availability lists"
            )
        avail = []
        covered = np.zeros(self.n, dtype=bool)
        for view, ids in zip(views, self.availability):
            ids = np.asarray(ids, dtype=np.int64)
            if ids.ndim != 1 or ids.size != view.n_available:
                raise ValueError(
                    f"view {view.view_id}: availability length {ids.size} does not "
                    f"match {view.n_available} data columns"
                )
            if ids.size and (ids[0] < 0 or ids[-1] >= self.n):
                raise ValueError(
                    f"view {view.view_id}: sample ids must lie in 0..{self.n - 1}"
                )
            if np.any(np.diff(ids) <= 0):
                raise ValueError(
                    f"view {view.view_id}: availability ids must be strictly increasing"
                )
            covered[ids] = True
            avail.append(_readonly(ids))
        if not covered.all():
            missing = int(np.flatnonzero(~covered)[0])
            raise ValueError(
                f"sample {missing} is available in no view; every sample must "
                "be observed in at least one view"
            )
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (self.n,):
                raise ValueError(f"labels must have length n={self.n}")
            if labels.min() < 0:
                raise ValueError("labels must be non-negative")
            labels = _readonly(labels)
        object.__setattr__(self, "views", views)
        object.__setattr__(self, "availability", tuple(avail))
        object.__setattr__(self, "labels", labels)

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def is_complete(self) -> bool:
        return all(ids.size == self.n for ids in self.availability)

    @property
    def n_classes(self) -> Optional[int]:
        if self.labels is None:
            return None
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class MaskSpec:
    """Incompleteness-simulation request: protocol, rate, and seed."""

    protocol: str
    rate: float
    seed: int = 0

    def __post_init__(self):
        if self.protocol not in MASK_PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; expected one of {MASK_PROTOCOLS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {self.rate}")
        if self.protocol == "random-missing" and self.rate == 1.0:
            raise ValueError("random-missing rate must be below 1: some instances must survive")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _subset_dataset(full: MultiViewDataset, kept: list[np.ndarray]) -> MultiViewDataset:
    views = tuple(
        ViewMatrix(view_id=v.view_id, data=v.data[:, ids])
        for v, ids in zip(full.views, kept)
    )
    return MultiViewDataset(
        views=views, n=full.n, availability=tuple(kept), labels=full.labels
    )


def _draw_random_missing(n: int, n_views: int, rate: float, rng: np.random.Generator) -> list[np.ndarray]:
    """Per-view kept-sample draws before the at-least-one-view repair."""
    n_keep = _round_half_up((1.0 - rate) * n)
    kept = []
    for _ in range(n_views):
        keep = rng.choice(n, size=n_keep, replace=False)
        kept.append(np.sort(keep))
    return kept


def _repair_coverage(n: int, kept: list[np.ndarray], rng: np.random.Generator) -> list[np.ndarray]:
    """Re-insert samples that lost every view into one uniformly chosen view."""
    covered = np.zeros(n, dtype=bool)
    for ids in kept:
        covered[ids] = True
    orphans = np.flatnonzero(~covered)
    if orphans.size == 0:
        return kept
    sets = [set(ids.tolist()) for ids in kept]
    for sample in orphans:
        sets[rng.integers(len(kept))].add(int(sample))
    return [np.array(sorted(s), dtype=np.int64) for s in sets]


def _random_missing_mask(full: MultiViewDataset, spec: MaskSpec) -> MultiViewDataset:
    """Remove a random fraction of instances from every view independently.

    Each view drops round(rate * n) instances uniformly at random; a sample
    that would lose all of its views gets one instance re-inserted into a
    uniformly chosen view. Deterministic for a fixed seed.
    """
    if not full.is_complete:
        raise ValueError("random-missing masks require a complete dataset")
    n, l = full.n, full.n_views
    n_remove = n - _round_half_up((1.0 - spec.rate) * n)
    if l * n_remove > n * (l - 1):
        raise ValueError(
            f"infeasible mask: removing {n_remove} instances from each of {l} views "
            f"cannot leave every one of {n} samples with at least one view"
        )
    rng = np.random.default_rng(spec.seed)
    kept = _draw_random_missing(n, l, spec.rate, rng)
    kept = _repair_coverage(n, kept, rng)
    return _subset_dataset(full, kept)


def _paired_sample_mask(full: MultiViewDataset, spec: MaskSpec) -> MultiViewDataset:
    """Keep both views for a random fraction of samples, one view for the rest.

    Two-view datasets only. The single-view remainder is split so the two
    views end up with available-instance counts differing by at most one.
    """
    if full.n_views != 2:
        raise ValueError(
            f"paired-sample masking supports exactly 2 views, got {full.n_views}"
        )
    if not full.is_complete:
        raise ValueError("paired-sample masks require a complete dataset")
    n = full.n
    n_paired = _round_half_up(spec.rate * n)
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(n)
    paired, singles = order[:n_paired], order[n_paired:]
    half = singles.size // 2
    if singles.size % 2 and rng.integers(2):
        half += 1
    kept = [
        np.sort(np.concatenate([paired, singles[:half]])).astype(np.int64),
        np.sort(np.concatenate([paired, singles[half:]])).astype(np.int64),
    ]
    return _subset_dataset(full, kept)


def apply_mask(full: MultiViewDataset, spec: MaskSpec) -> MultiViewDataset:
    """The dataset with spec's protocol applied.

    A random-missing spec at rate 0 returns the dataset unchanged, complete
    or not, so a config can run incomplete data from its availability
    sidecars. Any other spec needs a complete dataset.
    """
    if spec.protocol == "paired-sample":
        return _paired_sample_mask(full, spec)
    if spec.rate == 0.0:
        return full
    return _random_missing_mask(full, spec)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def start_method() -> str:
    """How imvc starts worker processes: fork where the platform has it, as a
    forked worker starts at once with this process's imports and data, else
    spawn, whose workers first import numpy, scipy and imvc again."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _serve(jobs: list[Callable], conn, parent_ends: list) -> None:
    """A forked file worker: run each job index its parent sends, until None,
    and send back the index with (True, result) or (False, error).

    It first closes the parent's pipe ends that it inherited at fork, so that
    each worker sees the end of its pipe once the parent closes its own end.
    """
    for end in parent_ends:
        end.close()
    for i in iter(conn.recv, None):
        try:
            outcome = (True, jobs[i]())
        except Exception as exc:
            outcome = (False, exc)
        conn.send((i, outcome))


def _per_file(jobs: list[Callable], sizes: list[int]) -> list:
    """[job() for job in jobs], each job one file, in min(jobs, usable CPUs)
    forked processes.

    Each worker is sent one job at a time, biggest size first, and its next
    one when it sends back the last. It inherits the jobs and their arrays at
    fork, so only indices go to it and only results come back. This thread
    reads them: memory that a helper thread allocated would stay in that
    thread's malloc arena once freed and raise this process's peak RSS.
    Results, and the first error, are taken in job order, as a serial loop
    meets them. With one CPU or one job, without fork, or in a daemon
    process, which may start none, the jobs run in this process: a spawned
    worker would first import numpy, scipy and imvc again and be sent its
    arrays.
    """
    processes = min(len(jobs), usable_cpus())
    if processes < 2 or start_method() != "fork" or multiprocessing.current_process().daemon:
        return [job() for job in jobs]
    context = multiprocessing.get_context("fork")
    order = iter(sorted(range(len(jobs)), key=lambda i: -sizes[i]))
    workers, outcomes = [], {}
    try:
        for _ in range(processes):
            ours, theirs = context.Pipe()
            parent_ends = [ours] + [end for _, end in workers]
            worker = context.Process(target=_serve, args=(jobs, theirs, parent_ends))
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
    for i in range(len(jobs)):
        if i not in outcomes:
            raise RuntimeError(f"a worker process ended before file job {i} was done")
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


def _file_size(path: Path) -> int:
    """The bytes of path; 0 for a file that cannot be read, whose job then
    raises the error."""
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _load_matrix(path: Path, dtype=np.float64, ndmin: int = 2) -> np.ndarray:
    """The numbers of a CSV file: views and labels as float matrices,
    availability sidecars as int64 vectors. Every fault in the file is one
    ValueError that names it."""
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, with its path
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", dtype=dtype, ndmin=ndmin)
    except ValueError as exc:
        raise ValueError(f"{path}: could not parse as a numeric CSV matrix: {exc}") from exc
    if data.size == 0:
        raise ValueError(f"{path}: the file holds no values")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: non-finite value at row {i}, column {j}")
    return data


def _load_labels(path: str | Path) -> np.ndarray:
    """The labels of a label file as contiguous 0-based class ids."""
    raw = _load_matrix(Path(path))
    if min(raw.shape) != 1:
        raise ValueError(f"{path}: label file must be a single column")
    flat = raw.reshape(-1)
    if np.any(flat != np.round(flat)):
        raise ValueError(f"{path}: labels must be integers")
    _, labels = np.unique(flat.astype(np.int64), return_inverse=True)
    return labels


def load_dataset(
    view_paths: Sequence[str | Path],
    availability_paths: Optional[Sequence[str | Path]] = None,
    label_path: Optional[str | Path] = None,
) -> MultiViewDataset:
    """Load a dataset from per-view CSV files.

    Without availability sidecars all views must share one column count, which
    becomes the sample count n. With sidecars, n is taken from the label file
    when present and from the largest sample id otherwise. Labels are remapped
    to contiguous 0-based integers. The files are parsed in parallel (see
    the module docstring); a fault is reported for the first faulty file in
    the order views, labels, sidecars.
    """
    if not view_paths:
        raise ValueError("need at least one view file")
    jobs = [partial(_load_matrix, Path(p)) for p in view_paths]
    if label_path is not None:
        jobs.append(partial(_load_labels, label_path))
    sidecars = availability_paths is not None and len(availability_paths) == len(view_paths)
    if sidecars:
        jobs += [partial(_load_matrix, Path(p), np.int64, ndmin=1) for p in availability_paths]
    # each job's first argument is its file
    loaded = iter(_per_file(jobs, [_file_size(Path(job.args[0])) for job in jobs]))
    matrices = [next(loaded) for _ in view_paths]
    labels = next(loaded) if label_path is not None else None

    if availability_paths is None:
        counts = {m.shape[1] for m in matrices}
        if len(counts) != 1:
            raise ValueError(
                "views have differing column counts "
                f"{sorted(m.shape[1] for m in matrices)} and no availability "
                "sidecar was given"
            )
        n = matrices[0].shape[1]
        avail = [np.arange(n, dtype=np.int64) for _ in matrices]
    else:
        if not sidecars:
            raise ValueError("one availability sidecar per view is required")
        avail = list(loaded)
        n = int(max(ids.max() for ids in avail)) + 1
        if labels is not None:
            n = max(n, labels.size)

    if labels is not None and labels.size != n:
        raise ValueError(
            f"label file has {labels.size} entries but the dataset has {n} samples"
        )
    views = tuple(ViewMatrix(view_id=v, data=m) for v, m in enumerate(matrices))
    return MultiViewDataset(views=views, n=n, availability=tuple(avail), labels=labels)


def save_dataset(ds: MultiViewDataset, directory: str | Path) -> dict:
    """Write a dataset in the interchange format, as view_<v>.csv,
    view_<v>.avail and labels.csv, in parallel (see the module docstring);
    returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict = {"views": [], "availability": [], "labels": None}
    jobs, sizes = [], []
    for view, ids in zip(ds.views, ds.availability):
        vp = directory / f"view_{view.view_id}.csv"
        ap = directory / f"view_{view.view_id}.avail"
        jobs += [
            partial(np.savetxt, vp, view.data, delimiter=",", fmt="%.17e"),
            partial(np.savetxt, ap, ids, fmt="%d"),
        ]
        sizes += [view.data.size, ids.size]
        paths["views"].append(str(vp))
        paths["availability"].append(str(ap))
    if ds.labels is not None:
        lp = directory / "labels.csv"
        jobs.append(partial(np.savetxt, lp, ds.labels, fmt="%d"))
        sizes.append(ds.labels.size)
        paths["labels"] = str(lp)
    _per_file(jobs, sizes)
    return paths


def normalize_views(ds: MultiViewDataset, mode: str = "none") -> MultiViewDataset:
    """Normalize each view's features.

    Modes: 'none' (identity), 'unit-l2-column' (each instance column scaled to
    unit norm; zero columns are left unchanged), 'zscore-row' (each feature row
    centered and scaled; constant rows become zero).
    """
    if mode not in NORMALIZE_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}; expected one of {NORMALIZE_MODES}")
    if mode == "none":
        return ds
    views = []
    for view in ds.views:
        data = view.data.copy()
        if mode == "unit-l2-column":
            norms = np.linalg.norm(data, axis=0)
            data = data / np.where(norms == 0.0, 1.0, norms)
        else:  # zscore-row
            mean = data.mean(axis=1, keepdims=True)
            std = data.std(axis=1, keepdims=True)
            data = (data - mean) / np.where(std == 0.0, 1.0, std)
        views.append(ViewMatrix(view_id=view.view_id, data=data))
    return MultiViewDataset(
        views=tuple(views), n=ds.n, availability=ds.availability, labels=ds.labels
    )
