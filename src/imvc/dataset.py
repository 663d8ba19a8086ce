"""Incomplete multi-view data: containers, masking, and I/O.

A dataset holds one feature matrix per view (features x available instances)
together with an availability list per view that maps each instance column to
its global sample id. Samples may be missing from any subset of views as long
as every sample is observed in at least one view.

On-disk interchange format (all plain text, no binary dependencies):
  * view file: CSV, no header, '.' decimal separator, m_v rows x n_v columns;
  * availability sidecar: one integer sample id per line, strictly ascending;
  * label file: CSV, a single column of n integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

MASK_PROTOCOLS = ("random-missing", "paired-sample")


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


def apply_random_missing_mask(full: MultiViewDataset, spec: MaskSpec) -> MultiViewDataset:
    """Remove a random fraction of instances from every view independently.

    Each view drops round(rate * n) instances uniformly at random; a sample
    that would lose all of its views gets one instance re-inserted into a
    uniformly chosen view. Deterministic for a fixed seed.
    """
    if spec.protocol != "random-missing":
        raise ValueError(f"expected a random-missing spec, got {spec.protocol!r}")
    if not full.is_complete:
        raise ValueError("random-missing masks require a complete dataset")
    if spec.rate >= 1.0:
        raise ValueError("rate must be < 1 (some instances have to survive)")
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


def apply_paired_sample_mask(full: MultiViewDataset, spec: MaskSpec) -> MultiViewDataset:
    """Keep both views for a random fraction of samples, one view for the rest.

    Two-view datasets only. The single-view remainder is split so the two
    views end up with available-instance counts differing by at most one.
    """
    if spec.protocol != "paired-sample":
        raise ValueError(f"expected a paired-sample spec, got {spec.protocol!r}")
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
    if spec.rate == 0.0 and spec.protocol == "random-missing":
        return full
    if spec.protocol == "random-missing":
        return apply_random_missing_mask(full, spec)
    return apply_paired_sample_mask(full, spec)


def _load_matrix(path: Path) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: could not parse as a numeric CSV matrix: {exc}") from exc
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: non-finite value at row {i}, column {j}")
    return data


def load_dataset(
    view_paths: Sequence[str | Path],
    availability_paths: Optional[Sequence[str | Path]] = None,
    label_path: Optional[str | Path] = None,
) -> MultiViewDataset:
    """Load a dataset from per-view CSV files.

    Without availability sidecars all views must share one column count, which
    becomes the sample count n. With sidecars, n is taken from the label file
    when present and from the largest sample id otherwise. Labels are remapped
    to contiguous 0-based integers.
    """
    if not view_paths:
        raise ValueError("need at least one view file")
    matrices = [_load_matrix(Path(p)) for p in view_paths]

    labels = None
    if label_path is not None:
        raw = _load_matrix(Path(label_path))
        if min(raw.shape) != 1:
            raise ValueError(f"{label_path}: label file must be a single column")
        flat = raw.reshape(-1)
        if np.any(flat != np.round(flat)):
            raise ValueError(f"{label_path}: labels must be integers")
        # remap to 0-based contiguous class ids
        _, labels = np.unique(flat.astype(np.int64), return_inverse=True)

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
        if len(availability_paths) != len(matrices):
            raise ValueError("one availability sidecar per view is required")
        avail = [
            np.loadtxt(Path(p), dtype=np.int64, ndmin=1) for p in availability_paths
        ]
        n = int(max(ids.max() for ids in avail)) + 1
        if labels is not None:
            n = max(n, labels.size)

    if labels is not None and labels.size != n:
        raise ValueError(
            f"label file has {labels.size} entries but the dataset has {n} samples"
        )
    views = tuple(ViewMatrix(view_id=v, data=m) for v, m in enumerate(matrices))
    return MultiViewDataset(views=views, n=n, availability=tuple(avail), labels=labels)


def save_dataset(ds: MultiViewDataset, directory: str | Path, stem: str = "view") -> dict:
    """Write a dataset in the interchange format; returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict = {"views": [], "availability": [], "labels": None}
    for view, ids in zip(ds.views, ds.availability):
        vp = directory / f"{stem}_{view.view_id}.csv"
        np.savetxt(vp, view.data, delimiter=",", fmt="%.17e")
        ap = directory / f"{stem}_{view.view_id}.avail"
        np.savetxt(ap, ids, fmt="%d")
        paths["views"].append(str(vp))
        paths["availability"].append(str(ap))
    if ds.labels is not None:
        lp = directory / "labels.csv"
        np.savetxt(lp, ds.labels, fmt="%d")
        paths["labels"] = str(lp)
    return paths


def normalize_views(ds: MultiViewDataset, mode: str = "none") -> MultiViewDataset:
    """Normalize each view's features.

    Modes: 'none' (identity), 'unit-l2-column' (each instance column scaled to
    unit norm; zero columns are left unchanged), 'zscore-row' (each feature row
    centered and scaled; constant rows become zero).
    """
    if mode == "none":
        return ds
    views = []
    for view in ds.views:
        data = view.data.copy()
        if mode == "unit-l2-column":
            norms = np.linalg.norm(data, axis=0)
            data = data / np.where(norms == 0.0, 1.0, norms)
        elif mode == "zscore-row":
            mean = data.mean(axis=1, keepdims=True)
            std = data.std(axis=1, keepdims=True)
            data = (data - mean) / np.where(std == 0.0, 1.0, std)
        else:
            raise ValueError(
                f"unknown normalization mode {mode!r}; expected 'none', "
                "'unit-l2-column' or 'zscore-row'"
            )
        views.append(ViewMatrix(view_id=view.view_id, data=data))
    return MultiViewDataset(
        views=tuple(views), n=ds.n, availability=ds.availability, labels=ds.labels
    )
