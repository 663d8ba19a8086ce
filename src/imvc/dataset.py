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

load_dataset reads every file in the calling process, in the order labels,
sidecars, views (in view order, .npy and CSV alike), and reports the first
faulty file in that order; save_dataset writes .npy files. This module
starts no process: a sweep's process pool, CPU share and OpenBLAS rule are
the harness's. thread_map is a trial's threads, over which the graph build,
the fit and k-means run their views or restarts; called directly, the
library runs on the calling thread, at the caller's OpenBLAS threads, unless
it is given threads.

A scalar parameter is checked where it is used, by one rule of one family
that names it in its ValueError: _integer (3 and 3.0, not 2.5 or True),
_count (an integer of at least 1), _seed (a non-negative integer) and _real
(a number, not a bool, a string or None, in the range its user states).
"""

from __future__ import annotations

import contextvars
import math
import numbers
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

MASK_PROTOCOLS = ("random-missing", "paired-sample")
NORMALIZE_MODES = ("none", "unit-l2-column", "zscore-row")


def _integer(key: str, value) -> int:
    """An integer parameter, named by its key: 3 and 3.0 are taken; 2.5,
    True, NaN and the infinities are errors, not truncated or ignored."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _count(key: str, value) -> int:
    """An integer parameter of at least 1 (a count), named by its key."""
    value = _integer(key, value)
    if value < 1:
        raise ValueError(f"{key} must be at least 1, got {value!r}")
    return value


def _seed(key: str, value) -> int:
    """A random seed, named by its key: a non-negative integer."""
    value = _integer(key, value)
    if value < 0:
        raise ValueError(f"{key} must be non-negative, got {value!r}")
    return value


def _real(key: str, value, ok: Callable = math.isfinite, bound: str = "be a finite number"):
    """A real-valued parameter, named by its key, as given (a grid value's
    repr names its trials' seeds): a number, not a bool, that ok accepts;
    bound is ok's rule as the error states it ("lie in [0, 1]")."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    if not ok(value):
        raise ValueError(f"{key} must {bound}, got {value!r}")
    return value


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, order="C", copy=True)
    a.flags.writeable = False
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only in place (C-ordered first if it is not)."""
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _matrix(view_id: int, data: np.ndarray) -> np.ndarray:
    """data, if it is a 2-D matrix with at least one row and one column."""
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
        raise ValueError(
            f"view {view_id}: data must be a 2-D matrix with at least "
            f"one row and one column, got shape {data.shape}"
        )
    return data


@dataclass(frozen=True)
class ViewMatrix:
    """Feature matrix of one view, shape (n_features, n_available)."""

    view_id: int
    data: np.ndarray

    def __post_init__(self):
        data = _matrix(self.view_id, np.asarray(self.data, dtype=np.float64))
        if not np.all(np.isfinite(data)):
            i, j = np.argwhere(~np.isfinite(data))[0]
            raise ValueError(
                f"view {self.view_id}: non-finite entry at row {i}, column {j}"
            )
        object.__setattr__(self, "data", _readonly(data))

    @classmethod
    def _own(cls, view_id: int, data: np.ndarray) -> "ViewMatrix":
        """The view of a float64 array of finite values that the library has
        just made and hands over: it is made read-only in place (C-ordered
        first if it is not), neither copied nor checked for finiteness again.
        A caller's array goes through the constructor, which copies it."""
        data = _frozen(np.asarray(_matrix(view_id, data), dtype=np.float64))
        view = object.__new__(cls)
        object.__setattr__(view, "view_id", view_id)
        object.__setattr__(view, "data", data)
        return view

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
        self._settle(_readonly)

    @classmethod
    def _own(cls, views, n, availability, labels=None) -> "MultiViewDataset":
        """The dataset of id and label arrays that the library has just made
        and hands over: every check runs, and the arrays are made read-only
        in place rather than copied. A caller's arrays go through the
        constructor, which copies them."""
        ds = object.__new__(cls)
        fields = {"views": views, "n": n, "availability": availability, "labels": labels}
        for name, value in fields.items():
            object.__setattr__(ds, name, value)
        ds._settle(_frozen)
        return ds

    def _settle(self, keep: Callable[[np.ndarray], np.ndarray]) -> None:
        """Check the fields and store each id and label array as keep makes it."""
        n = _count("n", self.n)
        views = tuple(self.views)
        if not views:
            raise ValueError("dataset needs at least one view")
        view_ids = [view.view_id for view in views]
        if len(set(view_ids)) < len(view_ids):  # save_dataset names files by id
            raise ValueError(f"view ids must be distinct, got {view_ids}")
        if len(self.availability) != len(views):
            raise ValueError(
                f"{len(views)} views but {len(self.availability)} availability lists"
            )
        avail = []
        covered = np.zeros(n, dtype=bool)
        for view, ids in zip(views, self.availability):
            ids = np.asarray(ids, dtype=np.int64)
            if ids.ndim != 1 or ids.size != view.n_available:
                raise ValueError(
                    f"view {view.view_id}: availability length {ids.size} does not "
                    f"match {view.n_available} data columns"
                )
            if ids.size and (ids[0] < 0 or ids[-1] >= n):
                raise ValueError(f"view {view.view_id}: sample ids must lie in 0..{n - 1}")
            if np.any(np.diff(ids) <= 0):
                raise ValueError(
                    f"view {view.view_id}: availability ids must be strictly increasing"
                )
            covered[ids] = True
            avail.append(keep(ids))
        if not covered.all():
            missing = int(np.flatnonzero(~covered)[0])
            raise ValueError(
                f"sample {missing} is available in no view; every sample must "
                "be observed in at least one view"
            )
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (n,):
                raise ValueError(f"labels must have length n={n}")
            if labels.min() < 0:
                raise ValueError("labels must be non-negative")
            labels = keep(labels)
        object.__setattr__(self, "views", views)
        object.__setattr__(self, "n", n)
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
        _real("rate", self.rate, lambda rate: 0 <= rate <= 1, "lie in [0, 1]")
        if self.protocol == "random-missing" and self.rate == 1.0:
            raise ValueError("random-missing rate must be below 1: some instances must survive")
        object.__setattr__(self, "seed", _seed("seed", self.seed))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _subset_dataset(full: MultiViewDataset, kept: list[np.ndarray]) -> MultiViewDataset:
    views = tuple(
        # np.take, unlike v.data[:, ids], gathers into a C-ordered array
        ViewMatrix._own(v.view_id, np.take(v.data, ids, axis=1))
        for v, ids in zip(full.views, kept)
    )
    return MultiViewDataset._own(views, full.n, tuple(kept), full.labels)


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


def _random_missing_ids(full: MultiViewDataset, spec: MaskSpec) -> list[np.ndarray]:
    """Each view's kept sample ids when a random fraction of instances is
    removed from every view independently.

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
    return _repair_coverage(n, kept, rng)


def _paired_sample_ids(full: MultiViewDataset, spec: MaskSpec) -> list[np.ndarray]:
    """Each view's kept sample ids when both views are kept for a random
    fraction of samples and one view for the rest.

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
    return [
        np.sort(np.concatenate([paired, singles[:half]])).astype(np.int64),
        np.sort(np.concatenate([paired, singles[half:]])).astype(np.int64),
    ]


def _kept_ids(full: MultiViewDataset, spec: MaskSpec) -> Sequence[np.ndarray]:
    """Each view's sample ids that spec's protocol keeps, drawn without
    copying a view: full.availability itself for a random-missing spec at
    rate 0. Any other spec needs a complete dataset."""
    if spec.protocol == "paired-sample":
        return _paired_sample_ids(full, spec)
    if spec.rate == 0.0:
        return full.availability
    return _random_missing_ids(full, spec)


def apply_mask(full: MultiViewDataset, spec: MaskSpec) -> MultiViewDataset:
    """The dataset with spec's protocol applied (_kept_ids).

    A random-missing spec at rate 0 returns the dataset unchanged, complete
    or not, so a config can run incomplete data from its availability
    sidecars. Any other spec needs a complete dataset.
    """
    kept = _kept_ids(full, spec)
    return full if kept is full.availability else _subset_dataset(full, kept)


@contextmanager
def thread_map(threads: int):
    """A map over this thread and up to `threads` - 1 helper threads, as the
    with block's target; at one thread the calling thread runs every item
    and no helper starts. A call starts no more helpers than it has items
    beyond the first, and the helpers are joined when the block ends. Each
    call hands its items out in turn to whichever thread is free, runs them
    all, and returns the list of results in item order, or raises the first
    error in item order once every item has run. Each item runs in a copy
    of the context the map is called in, so np.errstate holds in the
    helpers too. The calling thread takes items as well, rather than wait:
    each helper's malloc arena and OpenBLAS buffer add to the peak RSS.

    Its callers run numpy work that releases the GIL. At one OpenBLAS thread
    (harness.one_blas_thread) each item gives the bits that it gives alone;
    at more, a product's bits could depend on the products run beside it.

    threads must be an integer of at least 1: the one check of the thread
    counts of the graph build, the fit and k-means.
    """
    threads = _count("threads", threads)
    with ThreadPoolExecutor(max(threads - 1, 1)) as helpers:
        yield partial(_shared_map, helpers, threads - 1)


def _shared_map(helpers: ThreadPoolExecutor, n_helpers: int, fn: Callable, *items) -> list:
    tasks = list(enumerate(zip(*items)))
    n_helpers = min(n_helpers, len(tasks) - 1)  # no helper without an item
    tasks = iter(tasks)
    lock = threading.Lock()
    done = {}

    def work():
        while True:
            with lock:
                task = next(tasks, None)
            if task is None:
                return
            i, args = task
            try:
                done[i] = (True, fn(*args))
            except Exception as exc:
                done[i] = (False, exc)

    context = contextvars.copy_context()
    futures = [helpers.submit(context.copy().run, work) for _ in range(n_helpers)]
    work()
    for future in futures:
        future.result()
    results = []
    for i in range(len(done)):
        ok, value = done[i]
        if not ok:
            raise value
        results.append(value)
    return results


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

    The views are numbered by their position in view_paths, 0, 1, ...,
    whatever id their files were saved under (save_dataset). Without
    availability sidecars all views must share one column count, which
    becomes the sample count n; with them, n is the largest sample id + 1.
    Labels are remapped to contiguous 0-based integers. The arguments are
    checked first, then the label file, the sidecars and each view are read
    and checked in that order, in this process: the first faulty file in
    that order is reported.
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
    # _load_matrix has checked each view it reads, which its ViewMatrix takes
    views = tuple(ViewMatrix._own(v, _load_matrix(Path(p))) for v, p in enumerate(view_paths))

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
    return MultiViewDataset._own(views, n, tuple(avail), labels)


def save_dataset(ds: MultiViewDataset, directory: str | Path) -> dict:
    """Write a dataset as view_<v>.npy, avail_<v>.npy and labels.npy, where
    <v> is each view's id; returns the written paths, views in dataset order.
    load_dataset numbers the views it reads by their position in its list,
    not by these ids."""
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
