"""Similarity graphs over a view's available instances.

A per-view graph is built in two steps: a Gaussian-kernel k-nearest-neighbor
similarity matrix S (zero diagonal, symmetrized with an elementwise max), and
a fused matrix W = gamma * S + I whose row sums form the degree vector used by
the solver. gamma = 0 turns the graph off: W collapses to the identity, and
build_fused_graphs then skips the neighbor search.

Both matrices are stored as read-only scipy.sparse CSR arrays, with at most
2k (S) or 2k + 1 (W) nonzeros per row, so no n_v x n_v array is ever held.
The kNN search computes exact squared distances one block of rows at a time
(the block sized from a fixed byte budget), keeps the k nearest ids of each
row together with their squared distances, and takes the automatic sigma from
the same block distances. The kernel is evaluated on the n_v * k kNN pairs
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .dataset import ViewMatrix, _readonly

# bytes of one block of squared distances in the kNN search
_BLOCK_BYTES = 8 << 20
# instances whose pairwise distances set the automatic sigma
_SIGMA_INSTANCES = 2000


def _frozen_csr(m) -> sp.csr_array:
    """A canonical float64 CSR copy of m, with 32-bit indices where they fit,
    whose arrays reject writes."""
    m = sp.csr_array(m, dtype=np.float64, copy=True)
    m.sum_duplicates()  # sorted indices, no duplicates: nothing to fix later
    if max(m.shape[0], m.nnz) <= np.iinfo(np.int32).max:
        m.indices, m.indptr = m.indices.astype(np.int32), m.indptr.astype(np.int32)
    for a in (m.data, m.indices, m.indptr):
        a.flags.writeable = False
    return m


@dataclass(frozen=True)
class SimilarityGraph:
    """Symmetric kNN Gaussian similarity matrix (sparse CSR) with zero diagonal."""

    view_id: int
    s: sp.csr_array
    k: int
    sigma: float

    def __post_init__(self):
        s = _frozen_csr(self.s)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("similarity matrix must be square")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "s", s)


@dataclass(frozen=True)
class FusedGraph:
    """Fused graph W = gamma * S + I (sparse CSR) together with its degree vector.

    W must be square and exactly symmetric: the solver's graph-cost identity
    and its consensus update both rely on W = W^T.
    """

    view_id: int
    w: sp.csr_array
    gamma: float
    degree: np.ndarray

    def __post_init__(self):
        w = _frozen_csr(self.w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(
                f"view {self.view_id}: fused graph must be square, got shape {w.shape}"
            )
        if (w != w.T).nnz:
            raise ValueError(
                f"view {self.view_id}: fused graph must be exactly symmetric (W == W^T)"
            )
        object.__setattr__(self, "w", w)
        object.__setattr__(
            self, "degree", _readonly(np.asarray(self.degree, dtype=np.float64))
        )

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def is_identity(self) -> bool:
        return self.gamma == 0.0


def _sigma_sample(n: int) -> np.ndarray:
    """Ids of the instances whose pairwise distances set the automatic sigma:
    all of them, or _SIGMA_INSTANCES evenly spaced ones."""
    if n > _SIGMA_INSTANCES:
        return np.linspace(0, n - 1, _SIGMA_INSTANCES).astype(np.int64)
    return np.arange(n)


def gaussian_knn_graph(
    view: ViewMatrix, k: int = 5, sigma: Optional[float] = None
) -> SimilarityGraph:
    """Gaussian-kernel similarity restricted to k-nearest-neighbor pairs.

    s[i, j] = exp(-||x_i - x_j||^2 / (2 sigma^2)) whenever j is among the k
    nearest neighbors of i or vice versa, 0 elsewhere; the diagonal is 0.
    sigma=None picks the median pairwise Euclidean distance, read off the
    distances the neighbor search computes anyway; views above 2000 instances
    take it over 2000 evenly spaced ones, which keeps it deterministic.
    """
    n = view.n_available
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n_available={n}, got {k}")
    if sigma is not None and sigma <= 0:
        raise ValueError("sigma must be positive")

    pts = np.ascontiguousarray(view.data.T)  # cdist would copy it per block
    sample = _sigma_sample(n)
    neighbors = np.empty((n, k), dtype=np.int64)
    sq_knn = np.empty((n, k))
    pairs = []
    step = max(1, _BLOCK_BYTES // (8 * n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        sq = cdist(pts[lo:hi], pts, metric="sqeuclidean")
        if sigma is None:
            # this block's share of the sampled upper-triangle pairs
            a, b = np.searchsorted(sample, (lo, hi))
            upper = np.arange(a, b)[:, None] < np.arange(sample.size)
            pairs.append(sq[sample[a:b] - lo][:, sample][upper])
        sq[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # never pick yourself
        nb = np.argpartition(sq, k - 1, axis=1)[:, :k]
        neighbors[lo:hi] = nb
        sq_knn[lo:hi] = np.take_along_axis(sq, nb, axis=1)
    if sigma is None:
        dists = np.concatenate(pairs)
        sigma = float(np.median(np.sqrt(dists, out=dists), overwrite_input=True))
        if sigma == 0.0:
            raise ValueError(
                f"view {view.view_id}: degenerate sigma (median pairwise distance "
                "is zero; are the instances all identical?)"
            )

    kernel = np.exp(-sq_knn / (2.0 * sigma * sigma))
    indptr = np.arange(0, n * k + 1, k)  # row i holds its k neighbors
    knn = sp.csr_array((kernel.reshape(-1), neighbors.reshape(-1), indptr), shape=(n, n))
    return SimilarityGraph(
        view_id=view.view_id, s=knn.maximum(knn.T), k=k, sigma=float(sigma)
    )


def fuse_graph(sim: SimilarityGraph, gamma: float = 1.0) -> FusedGraph:
    """Fuse a similarity graph with the identity: W = gamma * S + I."""
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    w = gamma * sim.s + sp.eye_array(sim.s.shape[0], format="csr")
    return FusedGraph(view_id=sim.view_id, w=w, gamma=float(gamma), degree=w.sum(axis=1))


def identity_fused_graph(n: int, view_id: int = 0) -> FusedGraph:
    """The graph-off fused graph: W = I, unit degrees."""
    return FusedGraph(
        view_id=view_id, w=sp.eye_array(n, format="csr"), gamma=0.0, degree=np.ones(n)
    )


def build_fused_graphs(ds, k: int = 5, gamma: float = 1.0, sigma: Optional[float] = None):
    """Per-view fused graphs for a dataset (sigma=None: auto per view).

    gamma = 0 gives identity graphs (0 * S + I = I) without a neighbor search,
    so k and sigma are not used.
    """
    if gamma == 0.0:
        return tuple(identity_fused_graph(v.n_available, v.view_id) for v in ds.views)
    return tuple(fuse_graph(gaussian_knn_graph(v, k=k, sigma=sigma), gamma) for v in ds.views)
