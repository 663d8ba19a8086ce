"""Similarity graphs over a view's available instances.

A per-view graph is built in two steps: gaussian_knn_graph returns the
Gaussian-kernel k-nearest-neighbor similarity matrix S (zero diagonal,
symmetrized with an elementwise max) with its kernel width sigma, the median
pairwise distance of the view's instances, and build_fused_graphs fuses it
into W = gamma * S + I. FusedGraph, the one graph type the solver takes,
holds W and reads its degree vector d = W 1 and whether it is the identity
off W itself. gamma = 0 turns the graph off: W collapses to the identity,
and build_fused_graphs then skips the neighbor search.

Both matrices are stored as read-only scipy.sparse CSR arrays, with at most
2k (S) or 2k + 1 (W) nonzeros per row, so no n_v x n_v array is ever held.

The kNN search gives the same S and sigma, bit for bit, as exact cdist
distances over all pairs would, without computing all of them exactly. It
centres the points and screens one block of rows at a time (256 rows, fewer
where that would pass 32 MiB) with a GEMM, ||c_j||^2 - 2 c_i . c_j; with the
row's constant ||c_i||^2 added, its error against cdist's squared distance
is proven below a slack of 8 (m + 3) eps max_i ||c_i||^2 for m features.
The kNN candidates of a row are the columns screened within twice the slack
of an upper bound on the row's k-th smallest value: the k-th smallest of its
minima over strided groups of 16 columns, which is the k-th smallest value
itself unless two of the k nearest share a group. They, and the sampled
pairs in a band around sigma's middle ranks, are then recomputed exactly,
feature by feature, in cdist's own order of summation. A row whose k-th and
(k+1)-th exact candidates tie falls back to a full cdist row and
argpartition, so ties are broken as the plain search breaks them. The kernel
is evaluated on the n_v * k kNN pairs only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .dataset import ViewMatrix, _readonly

# rows of one block of screened squared distances in the kNN search: enough
# for the GEMM to run near the BLAS rate ...
_BLOCK_ROWS = 256
# ... but no more than fit in this many bytes
_BLOCK_BYTES = 32 << 20
# kNN candidate pairs re-checked exactly in one batch
_CHECK_PAIRS = 1 << 17
# columns per group in the bound on a row's k-th screened value
_GROUP_WIDTH = 16
# instances whose pairwise distances set sigma
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
class FusedGraph:
    """Fused graph W = gamma * S + I of one view (sparse CSR).

    W must be square and exactly symmetric: the solver's graph-cost identity
    and its consensus update both rely on W = W^T. The degree vector d = W 1
    and whether W is exactly the identity (explicit zeros allowed) are read
    off W here, once.
    """

    view_id: int
    w: sp.csr_array
    degree: np.ndarray = field(init=False)
    is_identity: bool = field(init=False)

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
        identity = np.count_nonzero(w.data) == w.shape[0] and np.all(w.diagonal() == 1.0)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "degree", _readonly(w.sum(axis=1)))
        object.__setattr__(self, "is_identity", bool(identity))

    @property
    def n(self) -> int:
        return self.w.shape[0]


def _sigma_sample(n: int) -> np.ndarray:
    """Ids of the instances whose pairwise distances set sigma: all of them,
    or _SIGMA_INSTANCES evenly spaced ones."""
    if n > _SIGMA_INSTANCES:
        return np.linspace(0, n - 1, _SIGMA_INSTANCES).astype(np.int64)
    return np.arange(n)


def _sq_distances(data: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Exact squared distances between instance columns rows[p] and cols[p]
    of a features x instances matrix.

    The squared differences are summed in feature order, one feature at a
    time, which is cdist's own arithmetic bit for bit; memory stays at a few
    arrays of one value per pair.
    """
    out = np.zeros(rows.size)
    for x in data:
        d = x[rows] - x[cols]
        d *= d
        out += d
    return out


def _kth_bound(a: np.ndarray, k: int) -> np.ndarray:
    """An upper bound on the k-th smallest value of each row of a.

    It is the k-th smallest of the row's minima over the strided column
    groups {t, t + g, t + 2 g, ...} (g groups of _GROUP_WIDTH columns, plus
    one group of the columns left over): k distinct entries lie at or below
    it, and it is the k-th smallest itself whenever the row's k smallest fall
    in distinct groups. Rows too short for 4k groups take the k-th smallest.
    """
    rows, n = a.shape
    g = n // _GROUP_WIDTH
    if g < 4 * k:
        return np.partition(a, k - 1, axis=1)[:, k - 1]
    mins = np.empty((rows, g + 1))
    np.min(a[:, : g * _GROUP_WIDTH].reshape(rows, _GROUP_WIDTH, g), axis=1, out=mins[:, :g])
    np.min(a[:, g * _GROUP_WIDTH :], axis=1, initial=np.inf, out=mins[:, g])
    return np.partition(mins, k - 1, axis=1)[:, k - 1]


def _candidates(a: np.ndarray, lo: int, k: int, slack: float):
    """(row, column) pairs that may hold the k nearest neighbors of rows
    lo:lo+len(a), given screened squared distances a (own column +inf) that,
    up to a constant per row, are within slack of the exact ones.

    Every j whose exact distance is at most the k-th smallest exact one has
    a[i, j] <= (k-th smallest of a[i]) + 2 slack, and so a[i, j] <= b + 2 slack
    for any bound b at or above that k-th smallest.
    """
    bound = _kth_bound(a, k)
    flat = np.flatnonzero(a <= (bound + 2.0 * slack)[:, None])
    rows, cols = np.divmod(flat, a.shape[1])
    rows += lo
    other = cols != rows  # own column: a candidate only if the bound is +inf
    return rows[other], cols[other]


def _nearest(data, pts, rows, cols, lo, hi, k):
    """The k nearest neighbors of rows lo:hi and their exact squared
    distances, from candidate pairs (rows, cols) that hold them.

    A row whose k-th and (k+1)-th exact candidates tie redoes the full row
    with cdist and argpartition, so the tie is broken as argpartition over
    all exact distances breaks it.
    """
    exact = _sq_distances(data, rows, cols)
    order = np.lexsort((exact, rows))
    cols, exact = cols[order], exact[order]
    counts = np.bincount(rows - lo, minlength=hi - lo)
    first = np.cumsum(counts) - counts
    take = first[:, None] + np.arange(k)
    nb, sq = cols[take], exact[take]
    after = exact[np.minimum(first + k, exact.size - 1)]
    for i in np.flatnonzero((counts > k) & (after == sq[:, -1])):
        row = cdist(pts[lo + i : lo + i + 1], pts, metric="sqeuclidean")
        row[0, lo + i] = np.inf
        nb[i] = np.argpartition(row, k - 1, axis=1)[0, :k]
        sq[i] = row[0, nb[i]]
    return nb, sq


def _median_distance(data, sample, approx, slack) -> float:
    """The exact median pairwise distance of the sampled instances, given the
    screened squared distances of their upper-triangle pairs (row by row)
    within slack of the exact ones.

    Pairs screened below the band around the middle ranks are below them
    exactly too, so only the band is re-checked; the result equals
    np.median over all exact distances.
    """
    size = approx.size
    upper = size // 2
    ranks = np.unique([(size - 1) // 2, upper])  # one rank if size is odd
    part = np.partition(approx, upper)
    # with two middle ranks, the lower one is the largest value before the upper
    a_low = part[:upper].max() if ranks.size > 1 else part[upper]
    low, high = a_low - 2.0 * slack, part[upper] + 2.0 * slack
    del part
    below = np.count_nonzero(approx < low)
    band = np.flatnonzero((approx >= low) & (approx <= high))
    # flat upper-triangle position -> sample positions t < u
    t = np.arange(sample.size)
    offsets = t * (sample.size - 1) - t * (t - 1) // 2
    ti = np.searchsorted(offsets, band, side="right") - 1
    ui = band - offsets[ti] + ti + 1
    exact = np.sort(_sq_distances(data, sample[ti], sample[ui]))
    return float(np.mean(np.sqrt(exact[ranks - below])))


def gaussian_knn_graph(view: ViewMatrix, k: int = 5) -> tuple[sp.csr_array, float]:
    """Gaussian-kernel similarity restricted to k-nearest-neighbor pairs, as
    (S, sigma): S is a read-only CSR array and sigma the kernel width used.

    s[i, j] = exp(-||x_i - x_j||^2 / (2 sigma^2)) whenever j is among the k
    nearest neighbors of i or vice versa, 0 elsewhere; the diagonal is 0.
    sigma is the median pairwise Euclidean distance; views above 2000
    instances take it over 2000 evenly spaced ones, which keeps it
    deterministic.

    S and sigma equal, bit for bit, what exact cdist distances over all
    pairs give. A GEMM over the centred points screens each block of rows
    within a proven slack of cdist, up to a constant per row; the kNN
    candidates (within twice the slack of a bound on each row's k-th value,
    from the minima of its column groups) and the pairs near sigma's middle
    ranks are recomputed exactly; a row whose k-th place is tied is redone
    with a full cdist row and argpartition. Data so large that the screen's
    squares would overflow is screened with cdist itself, at zero slack.
    """
    n = view.n_available
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n_available={n}, got {k}")

    data = view.data
    pts = np.ascontiguousarray(data.T)  # cdist would copy it per call
    cen = pts - pts.mean(axis=0)
    sqn = np.einsum("ij,ij->i", cen, cen)
    r2 = float(sqn.max())
    # With u = eps / 2 and R^2 = max ||c_i||^2, the screened value of a pair,
    # with the row constant ||c_i||^2 added exactly, is within (4 m + 3) u R^2
    # of the exact ||c_i - c_j||^2, rounding in the centring moves that by at
    # most 8 u R^2, and cdist's sum is within (m + 2) u * 4 R^2 of the exact
    # ||x_i - x_j||^2: (8 m + 19) u R^2 in all, which the slack covers twice
    # over (the tiny term covers underflow).
    screened = np.isfinite(8.0 * r2)
    fin = np.finfo(np.float64)
    slack = 8.0 * (data.shape[0] + 3) * (fin.eps * r2 + fin.tiny) if screened else 0.0
    # the constant per row that the screen leaves out
    row_add = sqn if screened else np.zeros(n)

    sample = _sigma_sample(n)
    approx = np.empty(sample.size * (sample.size - 1) // 2)
    filled = 0
    neighbors = np.empty((n, k), dtype=np.int64)
    sq_knn = np.empty((n, k))
    cand, done = [], 0  # candidate pairs of rows done:lo, not yet re-checked
    step = max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // (8 * n)))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        if screened:
            # ||c_j||^2 - 2 c_i . c_j: the row's constant ||c_i||^2 moves none
            # of its candidates, so only sigma's sampled pairs add it
            a = (-2.0 * cen[lo:hi]) @ cen.T  # scaling by -2 is exact
            a += sqn
        else:
            a = cdist(pts[lo:hi], pts, metric="sqeuclidean")
        # this block's sampled rows: their upper-triangle pairs, in order
        for t in range(*np.searchsorted(sample, (lo, hi))):
            i = sample[t]
            cols = slice(i + 1, None) if sample.size == n else sample[t + 1 :]
            end = filled + sample.size - 1 - t
            np.add(a[i - lo, cols], row_add[i], out=approx[filled:end])
            filled = end
        a[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # never pick yourself
        cand.append(_candidates(a, lo, k, slack))
        # re-check the candidates of several blocks at once: one pass over
        # the features per batch of pairs
        if hi == n or sum(r.size for r, _ in cand) >= _CHECK_PAIRS:
            rows, cols = (np.concatenate(c) for c in zip(*cand))
            neighbors[done:hi], sq_knn[done:hi] = _nearest(data, pts, rows, cols, done, hi, k)
            cand, done = [], hi
    sigma = _median_distance(data, sample, approx, slack)
    if sigma == 0.0:
        raise ValueError(
            f"view {view.view_id}: degenerate sigma (median pairwise distance "
            "is zero; are the instances all identical?)"
        )

    kernel = np.exp(-sq_knn / (2.0 * sigma * sigma))
    indptr = np.arange(0, n * k + 1, k)  # row i holds its k neighbors
    knn = sp.csr_array((kernel.reshape(-1), neighbors.reshape(-1), indptr), shape=(n, n))
    return _frozen_csr(knn.maximum(knn.T)), sigma


def build_fused_graphs(ds, k: int = 5, gamma: float = 1.0) -> tuple[FusedGraph, ...]:
    """Per-view fused graphs W = gamma * S + I of a dataset, sigma chosen
    per view.

    gamma = 0 gives identity graphs (0 * S + I = I) without a neighbor search,
    so k is not used.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    graphs = []
    for view in ds.views:
        eye = sp.eye_array(view.n_available, format="csr")
        w = eye if gamma == 0.0 else gamma * gaussian_knn_graph(view, k=k)[0] + eye
        graphs.append(FusedGraph(view_id=view.view_id, w=w))
    return tuple(graphs)
