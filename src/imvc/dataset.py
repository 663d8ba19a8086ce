"""Incomplete multi-view data: containers, masking, and I/O.

A dataset holds one feature matrix per view (features x available instances)
together with an availability list per view that maps each instance column to
its global sample id. Samples may be missing from any subset of views as long
as every sample is observed in at least one view. apply_mask simulates
incompleteness on a complete dataset under a MaskSpec: "random-missing" drops
instances from every view, "paired-sample" keeps both of two views for a
fraction of the samples.

On-disk interchange format; the suffix picks the reader. A .npy file is
read as np.save writes it (no pickled objects), any other file as CSV (no
header, '.' decimal separator):
  * view file: m_v rows x n_v columns of integers or floats, 2-D in .npy;
  * availability sidecar: one column of integer sample ids, non-negative and
    strictly ascending (a 1-D .npy array is one column, here and for labels);
  * label file: a single column of n integers.

in_workers is imvc's one process pool; harness.run_experiment runs a
sweep's chunks through it too. Its rule: fork, else the calling process,
and each forked worker inherits its share of the CPUs as OpenBLAS threads.
load_dataset reads the label file, the sidecars and the .npy views in the
calling process, then parses each CSV view whole in the pool, largest
first, so faults come in the order labels, sidecars, .npy views, CSV
views, and a load with no CSV view starts no process. save_dataset writes
.npy files, in the calling process. Without fork, or in a daemon process,
the calling process parses the CSV views too, with the same arrays.
"""

from __future__ import annotations

import ctypes
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


def _serve(jobs: list[Callable], conn, parent_ends: list) -> None:
    """A forked worker: run each job index its parent sends, until None, and
    send back the index with (True, result) or (False, error).

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


def in_workers(jobs: list[Callable], sizes: list[int], processes: int) -> list:
    """[job() for job in jobs], in min(processes, jobs) forked processes.

    Each worker is sent one job at a time, biggest size first (in job order
    among equal sizes), and its next one when it sends back the last. It
    inherits the jobs and their arrays at fork, so only indices go to it and
    only results come back, and its OpenBLAS threads: this process sets them
    to each worker's share of its usable CPUs (at least 1) just before it
    forks and puts its own back once they are joined, as a forked process
    that set them would restart OpenBLAS's thread pool, which spins. This
    thread reads the results: memory that a helper thread allocated would
    stay in that thread's malloc arena once freed and raise this process's
    peak RSS. Results, and the first error, are taken in job order, as a
    serial loop meets them. With fewer than 2 processes, without fork, or in
    a daemon process, which may start none, the jobs run in this process: a
    spawned worker would first import numpy, scipy and imvc again and be
    sent its arrays.
    """
    processes = min(processes, len(jobs))
    if (
        processes < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return [job() for job in jobs]
    context = multiprocessing.get_context("fork")
    order = iter(sorted(range(len(jobs)), key=lambda i: -sizes[i]))
    workers, outcomes = [], {}
    threads = _blas_threads(max(1, usable_cpus() // processes))
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
        _blas_threads(threads)
    results = []
    for i in range(len(jobs)):
        if i not in outcomes:
            raise RuntimeError(f"a worker process ended before job {i} was done")
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


def _file_size(path: Path) -> int:
    """The bytes of path, or 0 if it cannot be read: its job raises the error."""
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _load_matrix(path: Path, dtype=np.float64, vector=False) -> np.ndarray:
    """The numbers of a .npy or CSV file as a matrix, float64 (int64 for
    sidecars, whose .npy files hold integers); a 1-D .npy array is one column
    if vector, else refused. Every fault is one ValueError naming the file."""
    kinds = "iuf" if dtype == np.float64 else "iu"
    if path.suffix == ".npy":
        try:
            with open(path, "rb") as f:
                data = np.lib.format.read_array(f, allow_pickle=False)
        except (ValueError, MemoryError) as exc:  # a header may claim petabytes
            raise ValueError(f"{path}: could not parse as a .npy matrix: {exc}") from exc
        if data.dtype.kind not in kinds or data.ndim not in ((1, 2) if vector else (2,)):
            need = f"a {'1-D or ' if vector else ''}2-D array of kind {kinds!r}"
            raise ValueError(f"{path}: need {need}, got {data.ndim}-D {data.dtype}")
        data = (data[:, None] if data.ndim == 1 else data).astype(dtype, copy=False)
    else:
        try:
            with warnings.catch_warnings():
                # an empty file is reported below, with its path
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(path, delimiter=",", dtype=dtype, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: could not parse as a numeric CSV matrix: {exc}") from exc
    if data.size == 0:
        raise ValueError(f"{path}: the file holds no values")
    finite = np.isfinite(data)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: non-finite value at row {i}, column {j}")
    return data


def load_dataset(
    view_paths: Sequence[str | Path],
    availability_paths: Optional[Sequence[str | Path]] = None,
    label_path: Optional[str | Path] = None,
) -> MultiViewDataset:
    """Load a dataset from per-view .npy or CSV files.

    Without availability sidecars all views must share one column count, which
    becomes the sample count n; with them, n is the largest sample id + 1.
    Labels are remapped to contiguous 0-based integers. The arguments are
    checked first, then the label file, the sidecars and the .npy views are
    read and checked here, and only then are the CSV views parsed in the pool
    (see the module docstring): the first faulty file in that order is
    reported.
    """
    if not view_paths:
        raise ValueError("need at least one view file")
    if availability_paths is not None and len(availability_paths) != len(view_paths):
        raise ValueError("one availability sidecar per view is required")
    labels = None
    if label_path is not None:
        raw = _load_matrix(Path(label_path), vector=True)
        if min(raw.shape) != 1:
            raise ValueError(f"{label_path}: label file must be a single column")
        if np.any(raw != np.round(raw)):
            raise ValueError(f"{label_path}: labels must be integers")
        labels = np.unique(raw.reshape(-1).astype(np.int64), return_inverse=True)[1]
    avail = []
    for path in availability_paths or ():
        ids = _load_matrix(Path(path), np.int64, vector=True)
        if ids.shape[1] != 1 or ids[0, 0] < 0 or np.any(np.diff(ids, axis=0) <= 0):
            raise ValueError(
                f"{path}: an availability sidecar must be one column of strictly "
                "ascending, non-negative sample ids"
            )
        avail.append(ids[:, 0])
    paths = [Path(p) for p in view_paths]
    read = {v: _load_matrix(p) for v, p in enumerate(paths) if p.suffix == ".npy"}
    csv = [v for v in range(len(paths)) if v not in read]
    jobs = [partial(_load_matrix, paths[v]) for v in csv]
    read.update(zip(csv, in_workers(jobs, [_file_size(paths[v]) for v in csv], usable_cpus())))
    # each view read is dropped once its ViewMatrix holds a copy, so that
    # the load holds its data and one view more at most
    views = tuple(ViewMatrix(view_id=v, data=read.pop(v)) for v in range(len(paths)))

    if availability_paths is None:
        counts = [view.n_available for view in views]
        if len(set(counts)) != 1:
            raise ValueError(
                f"views have differing column counts {sorted(counts)} and no "
                "availability sidecar was given"
            )
        n = counts[0]
        avail = [np.arange(n, dtype=np.int64) for _ in views]
    else:
        n = max(int(ids[-1]) for ids in avail) + 1
    if labels is not None and labels.size != n:
        raise ValueError(
            f"label file has {labels.size} entries but the dataset has {n} samples"
        )
    return MultiViewDataset(views=views, n=n, availability=tuple(avail), labels=labels)


def save_dataset(ds: MultiViewDataset, directory: str | Path) -> dict:
    """Write a dataset as view_<v>.npy, avail_<v>.npy and labels.npy, in
    this process (see the module docstring); returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict = {"views": [], "availability": [], "labels": None}
    for view, ids in zip(ds.views, ds.availability):
        for key, stem, array in (("views", "view", view.data), ("availability", "avail", ids)):
            path = directory / f"{stem}_{view.view_id}.npy"
            np.save(path, array, allow_pickle=False)
            paths[key].append(str(path))
    if ds.labels is not None:
        paths["labels"] = str(directory / "labels.npy")
        np.save(paths["labels"], ds.labels, allow_pickle=False)
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
