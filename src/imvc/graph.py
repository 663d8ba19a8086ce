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
centres the points, scales them by a power of two so that the largest
coordinate lies in [1, 2), rounds them to float32, and screens one block of
rows at a time (256 rows, fewer where that would pass 32 MiB of float32)
with a float32 GEMM, (1 - kappa) ||y_j||^2 - 2 y_i . y_j. Up to the row's
constant ||y_i||^2, its error against cdist's squared distance is proven
below a slack that follows the norms of the two points, kappa (||y_i||^2 +
||y_j||^2) with kappa = (m + 10) 2^-24 for m features, so neither one far
point nor the units of the data widen the screen of the other rows. A row's
kNN candidates are the columns screened at or below its own threshold: an
upper bound on its k-th smallest screened value (the k-th smallest of its
minima over strided groups of 16 columns, which is the k-th smallest value
itself unless two of the k nearest share a group) plus a slack from its own
norm and that bound. They, and the sampled pairs in a band around sigma's
middle ranks, are then recomputed exactly, feature by feature, in cdist's
own order of summation; sampled points whose norm is far above both the
median norm and the sample's typical distance (they would widen sigma's
uniform band) are paired exactly instead. Among equal exact distances the
lower column index wins, so a tie at a row's k-th place has one answer on
every host. The kernel is evaluated on the n_v * k kNN pairs only, with
np.exp, whose last bit may still follow the SIMD code NumPy dispatches to.
A view whose squared distances could overflow float64 is rejected before
any of this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .dataset import ViewMatrix, _integer, _readonly, _real, thread_map

# rows of one block of screened squared distances in the kNN search: enough
# for the GEMM to run near the BLAS rate ...
_BLOCK_ROWS = 256
# ... but no more than fit in this many bytes of float32
_BLOCK_BYTES = 32 << 20
# kNN candidate pairs re-checked exactly in one batch
_CHECK_PAIRS = 1 << 17
# columns per group in the bound on a row's k-th screened value
_GROUP_WIDTH = 16
# instances whose pairwise distances set sigma
_SIGMA_INSTANCES = 2000
# one in this many of their screened squared distances is sampled to bracket
# the middle ranks
_BRACKET_STRIDE = 64
# sampled instances whose squared norm passes this many times both the
# sample's median squared norm and the median squared distance of a few
# evenly spaced ones (_SPREAD_INSTANCES) are paired exactly for sigma instead
# of widening its band
_HEAVY_NORM = 16.0
_SPREAD_INSTANCES = 64
# features the float32 screen's slack is proven for: (m + 10) 2^-24 < 1/16
_MAX_FEATURES = 1 << 20


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


def _sq_distances(a: np.ndarray, rows: np.ndarray, b: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Exact squared distances between column rows[p] of a and column cols[p]
    of b, two features x points matrices with the same features.

    The squared differences are summed in feature order, one feature at a
    time, which is cdist's own arithmetic bit for bit; memory stays at a few
    arrays of one value per pair. Both screens recompute with it what they
    leave in doubt: the kNN search here (a view's data as a and b), and
    k-means' assignment in metrics (points against centres).
    """
    out = np.zeros(rows.size)
    for x, y in zip(a, b):
        d = x[rows] - y[cols]
        d *= d
        out += d
    return out


def _round_up(x, dtype) -> np.ndarray:
    """x rounded to dtype, at or above x: +inf above dtype's range."""
    big = np.finfo(dtype).max
    return np.nextafter(np.clip(x, -big, big).astype(dtype), dtype.type(np.inf))


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
    mins = np.empty((rows, g + 1), dtype=a.dtype)
    np.min(a[:, : g * _GROUP_WIDTH].reshape(rows, _GROUP_WIDTH, g), axis=1, out=mins[:, :g])
    np.min(a[:, g * _GROUP_WIDTH :], axis=1, initial=np.inf, out=mins[:, g])
    return np.partition(mins, k - 1, axis=1)[:, k - 1]


def _candidates(a: np.ndarray, sqn: np.ndarray, k: int, kappa: float, tau: float):
    """(row, column) positions in a screened block a (own column +inf) that
    may hold the k nearest neighbors of its rows, whose squared norms are
    sqn: those at or below each row's threshold b + 2 kappa (n^2 + N^2) +
    2 tau, from a bound b on its k-th smallest value (see gaussian_knn_graph
    for the proof)."""
    bound = _kth_bound(a, k).astype(np.float64)
    # N: the largest norm of the k columns at or below the bound
    reach = np.sqrt(np.maximum(bound + (1.0 + kappa) * sqn + tau, 0.0))
    far = (np.sqrt(sqn) + reach) / (1.0 - math.sqrt(2.0 * kappa))
    limit = bound + 2.0 * kappa * (sqn + far * far) + 2.0 * tau
    flat = np.flatnonzero(a <= _round_up(limit, a.dtype)[:, None])
    return np.divmod(flat, a.shape[1])


def _nearest(data, rows, cols, lo, hi, k):
    """The k nearest neighbors of rows lo:hi and their exact squared
    distances, from candidate pairs (rows, cols) that hold them; among equal
    distances the lower column comes first."""
    exact = _sq_distances(data, rows, data, cols)
    order = np.lexsort((cols, exact, rows))
    cols, exact = cols[order], exact[order]
    counts = np.bincount(rows - lo, minlength=hi - lo)
    take = (np.cumsum(counts) - counts)[:, None] + np.arange(k)
    return cols[take], exact[take]


def _bracket(values: np.ndarray, ranks: np.ndarray) -> tuple:
    """Bounds on the values at these neighbouring ranks of sorted(values),
    from a sorted strided sample of one in _BRACKET_STRIDE of them: the
    sample's values 4 sqrt(sample size) + 1 ranks below and above its own
    ranks for them, and -inf and inf past the sample's ends. They hold the
    ranks unless the sample is far from typical of the values."""
    sample = np.sort(values[::_BRACKET_STRIDE])
    margin = 4 * math.isqrt(sample.size) + 1
    lo = ranks[0] * sample.size // values.size - margin
    hi = ranks[-1] * sample.size // values.size + margin
    return (sample[lo] if lo >= 0 else -np.inf), (sample[hi] if hi < sample.size else np.inf)


def _median_distance(data, sample, approx, slack, rest, scale) -> float:
    """The exact median pairwise distance of the sampled instances, given the
    screened squared distances of the upper-triangle pairs of `sample` (row
    by row), in units of 2^-scale and within slack of the exact ones, and the
    exact squared distances `rest` of the other sampled pairs.

    Pairs screened below the band around the middle ranks are below them
    exactly too, so only the band is re-checked; the result equals
    np.median over all exact distances. The middle ranks and the band are
    looked for among the screened values in a bracket of those ranks
    (_bracket), so that no copy of them all is made; where the bracket
    misses the ranks or the band, among all of them.
    """
    screened = np.concatenate((approx, np.ldexp(rest, scale))) if rest.size else approx
    size = screened.size
    ranks = np.unique([(size - 1) // 2, size // 2])  # one rank if size is odd
    for bottom, top in (_bracket(screened, ranks), (-np.inf, np.inf)):
        inside = screened >= bottom
        before = size - np.count_nonzero(inside)  # screened below the bracket
        inside &= screened <= top
        at = np.flatnonzero(inside)
        del inside
        values = screened[at]
        if before <= ranks[0] and ranks[-1] < before + at.size:
            middle = np.partition(values, ranks - before)[ranks - before]
            low = -_round_up(2.0 * slack - float(middle[0]), screened.dtype)
            high = _round_up(float(middle[-1]) + 2.0 * slack, screened.dtype)
            if bottom <= low and high <= top:
                break
    below = before + np.count_nonzero(values < low)
    band = at[(values >= low) & (values <= high)]
    known = band[band >= approx.size] - approx.size
    band = band[band < approx.size]
    # flat upper-triangle position -> sample positions t < u
    t = np.arange(sample.size)
    offsets = t * (sample.size - 1) - t * (t - 1) // 2
    ti = np.searchsorted(offsets, band, side="right") - 1
    ui = band - offsets[ti] + ti + 1
    exact = _sq_distances(data, sample[ti], data, sample[ui])
    exact = np.sort(np.concatenate((exact, rest[known])))
    return float(np.mean(np.sqrt(exact[ranks - below])))


def gaussian_knn_graph(view: ViewMatrix, k: int = 5) -> tuple[sp.csr_array, float]:
    """Gaussian-kernel similarity restricted to k-nearest-neighbor pairs, as
    (S, sigma): S is a read-only CSR array and sigma the kernel width used.

    s[i, j] = exp(-||x_i - x_j||^2 / (2 sigma^2)) whenever j is among the k
    nearest neighbors of i or vice versa, 0 elsewhere; the diagonal is 0.
    Among neighbors at equal distance the lower column index comes first.
    sigma is the median pairwise Euclidean distance; views above 2000
    instances take it over 2000 evenly spaced ones, which keeps it
    deterministic.

    S and sigma equal, bit for bit, what exact cdist distances over all
    pairs give. A float32 GEMM over the centred points, scaled by a power of
    two so that no float32 value over- or underflows at any scale of the
    data, screens each block of rows within a proven slack of cdist, up to a
    constant per row; the slack follows the norms of the two points of a
    pair. Each row's kNN candidates are the columns at or below its own
    threshold, from a bound on its k-th value (the minima of its column
    groups) and its norm; they and the pairs near sigma's middle ranks are
    recomputed exactly, and the few sampled points much farther from the
    centre than both the median one and the sample's typical distance are
    paired exactly for sigma. The neighbors and sigma do not depend on the
    SIMD code NumPy dispatches to; S's values go through np.exp, whose last
    bit may.

    Raises ValueError, before any numpy warning, when k is out of range,
    when the view's squared distances could overflow float64 (the sum of its
    features' squared ranges, which bounds them all, passes a quarter of the
    largest float64, so 2 sigma^2 stays finite too), when the view has 2^20
    features or more (beyond the screen's proof), and when sigma is zero.
    """
    n = view.n_available
    k = _integer("k", k)
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n_available={n}, got {k}")

    data = view.data
    m = data.shape[0]
    low, high = data.min(axis=1), data.max(axis=1)
    with np.errstate(over="ignore"):
        spans = high - low
        span_sq = float(np.sum(spans * spans))  # >= every squared distance
    if not span_sq <= np.finfo(np.float64).max / 4:
        raise ValueError(
            f"view {view.view_id}: squared distances overflow float64 (the "
            f"widest feature spans {spans.max():.3g}); rescale the view"
        )
    if m >= _MAX_FEATURES:
        raise ValueError(
            f"view {view.view_id}: {m} features, the kNN screen allows fewer "
            f"than {_MAX_FEATURES}"
        )
    pts = np.ascontiguousarray(data.T)  # instances x features, rows contiguous
    centre = low + (pts - low).mean(axis=0)  # no sum can overflow
    # the largest |fl(x - centre)|, as rounding is monotone
    peak = max(float(np.max(high - centre)), float(np.max(centre - low)))
    shift = 1 - math.frexp(peak)[1]  # 2^shift peak lies in [1, 2)
    cen = pts - centre
    del pts
    y = np.ldexp(cen, shift, out=cen).astype(np.float32)
    del cen
    sqn = np.einsum("ij,ij->i", y, y, dtype=np.float64)  # exact products
    # The screen's slack. With u = 2^-24, y_i the scaled float32 points,
    # n_i = ||y_i||, P_ij = ||y_i - y_j||^2 and E_ij cdist's squared distance
    # scaled by 2^(2 shift), a block holds a_ij = fl(fl(-2 y_i . y_j) + v_j)
    # with v_j = fl((1 - kappa) n_j^2). The dot product is within
    # gamma_m 2 n_i n_j <= gamma_m (n_i^2 + n_j^2) whatever its order of
    # summation (gamma_j = j u / (1 - j u)), and the roundings of v_j and of
    # the sum add u n_j^2 and u (n_j^2 + 2 n_i n_j), so
    #   (1) |a_ij + n_i^2 + kappa n_j^2 - P_ij| <= gamma_(m+4) (n_i^2 + n_j^2) + tau.
    # Centring in float64 and rounding to float32 move each coordinate by at
    # most (u + 2^-53) of itself, so ||y_i - y_j|| moves by (1 + 2^-28) u
    # (n_i + n_j) and P_ij by 4.01 u (n_i^2 + n_j^2) from the scaled exact
    # distance, which cdist's own rounding is within (m + 2) 2^-52
    # (n_i^2 + n_j^2) of; gamma_a + gamma_b <= gamma_(a+b) then gives
    #   (2) |a_ij + n_i^2 + kappa n_j^2 - E_ij| <= kappa (n_i^2 + n_j^2) + tau
    # for kappa = gamma_(m+10): one u more than needed, which covers the
    # float64 rounding of the norms and of the thresholds below. tau covers
    # underflow: 2^-149 per float32 operation, 2^-1074 per float64 one scaled
    # by 2^(2 shift) (capped where it already passes every screened value).
    #
    # kNN. Let b_i be at or above the k-th smallest a_i., and j a column with
    # E_ij at most the row's k-th smallest E_i. (own column left out). Of the
    # k columns l with a_il <= b_i one has E_il >= E_ij, as the largest of k
    # values is at least the k-th smallest, so by (2) twice a_ij <= a_il +
    # 2 kappa (n_i^2 + n_l^2) + 2 tau. By (1), P_il <= B_i + 2 kappa n_l^2
    # with B_i = b_i + (1 + kappa) n_i^2 + tau, so n_l <= n_i + sqrt(P_il)
    # gives n_l <= N_i = (n_i + sqrt(max(B_i, 0))) / (1 - sqrt(2 kappa)):
    # every such j has a_ij <= b_i + 2 kappa (n_i^2 + N_i^2) + 2 tau, a
    # threshold from row i alone. Every column tied with the row's k-th
    # smallest E is therefore a candidate, and _nearest keeps the lowest
    # indices among them.
    #
    # sigma. The sampled pair's screened value fl(a_ij + fl(n_i^2)) is, by
    # (2), within (3 kappa + 6 u) H^2 + tau < slack of E_ij when both norms
    # are at most H; the heavy points are paired exactly, so H is the largest
    # norm of the rest. A heavy point's squared norm passes _HEAVY_NORM times
    # both the median one (a far cluster moves the centre away from all the
    # other points) and the median squared distance (a majority of identical
    # points would make every other point heavy), so at least half the
    # sample is light.
    kappa = (m + 10) * 2.0**-24 / (1.0 - (m + 10) * 2.0**-24)
    tau = math.ldexp(m + 2.0, max(-140, 2 * min(shift, 600) - 1070))

    sample = _sigma_sample(n)
    few = sample[:: -(-sample.size // _SPREAD_INSTANCES)]
    pair = np.triu_indices(few.size, 1)
    spread = _sq_distances(data, few[pair[0]], data, few[pair[1]])
    spread = math.ldexp(float(np.median(spread)), 2 * shift)
    far = sqn[sample] > _HEAVY_NORM * max(spread, float(np.median(sqn[sample])))
    light, heavy = sample[~far], sample[far]
    # columns in the order light, heavy, the rest: a light row's pairs with
    # the later light points are one slice
    unsampled = np.ones(n, dtype=bool)
    unsampled[sample] = False
    order = np.concatenate((light, heavy, np.flatnonzero(unsampled)))
    place = np.empty(n, dtype=np.int64)
    place[order] = np.arange(n)
    y_cols = y[order]  # the rows too are read from here, so y can go
    del y
    fold = (sqn[order] * (1.0 - kappa)).astype(np.float32)
    sqn32 = sqn.astype(np.float32)

    approx = np.empty(light.size * (light.size - 1) // 2, dtype=np.float32)
    filled = 0
    neighbors = np.empty((n, k), dtype=np.int64)
    sq_knn = np.empty((n, k))
    cand, done = [], 0  # candidate pairs of rows done:lo, not yet re-checked
    step = max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // (4 * n)))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        a = (-2.0 * y_cols[place[lo:hi]]) @ y_cols.T  # scaling by -2 is exact
        a += fold
        # this block's light rows: their pairs with later light points
        for t in range(*np.searchsorted(light, (lo, hi))):
            end = filled + light.size - 1 - t
            np.add(a[light[t] - lo, t + 1 : light.size], sqn32[light[t]], out=approx[filled:end])
            filled = end
        a[np.arange(hi - lo), place[lo:hi]] = np.inf  # never pick yourself
        rows, cols = _candidates(a, sqn[lo:hi], k, kappa, tau)
        rows += lo
        cols = order[cols]
        other = cols != rows  # own column: a candidate only if its bound is +inf
        cand.append((rows[other], cols[other]))
        # re-check the candidates of several blocks at once: one pass over
        # the features per batch of pairs
        if hi == n or sum(r.size for r, _ in cand) >= _CHECK_PAIRS:
            rows, cols = (np.concatenate(c) for c in zip(*cand))
            neighbors[done:hi], sq_knn[done:hi] = _nearest(data, rows, cols, done, hi, k)
            cand, done = [], hi
        del a  # before the next block is made
    # a view's graph may be built beside another's: what the search alone
    # needed goes before sigma's step
    del y_cols, fold
    rest = np.empty(0)
    if heavy.size:
        pair = np.triu_indices(heavy.size, 1)
        rest = _sq_distances(
            data,
            np.concatenate((np.repeat(light, heavy.size), heavy[pair[0]])),
            data,
            np.concatenate((np.tile(heavy, light.size), heavy[pair[1]])),
        )
    slack = 4.0 * kappa * float(sqn[light].max()) + tau
    sigma = _median_distance(data, light, approx, slack, rest, 2 * shift)
    if sigma == 0.0:
        raise ValueError(
            f"view {view.view_id}: degenerate sigma (median pairwise distance "
            "is zero; are the instances all identical?)"
        )

    kernel = np.exp(-sq_knn / (2.0 * sigma * sigma))
    indptr = np.arange(0, n * k + 1, k)  # row i holds its k neighbors
    knn = sp.csr_array((kernel.reshape(-1), neighbors.reshape(-1), indptr), shape=(n, n))
    return _frozen_csr(knn.maximum(knn.T)), sigma


def _gamma(key: str, value) -> float:
    """The graph weight gamma, as a float: a finite number of at least 0."""
    return float(_real(key, value, lambda gamma: 0 <= gamma < math.inf, "be non-negative"))


def build_fused_graphs(
    ds, k: int = 5, gamma: float = 1.0, threads: int = 1
) -> tuple[FusedGraph, ...]:
    """Per-view fused graphs W = gamma * S + I of a dataset, sigma chosen
    per view, the views built on up to `threads` threads at once
    (dataset.thread_map); each graph is the one its view gives alone.

    gamma = 0 gives identity graphs (0 * S + I = I) without a neighbor search,
    so k is not used.
    """
    gamma = _gamma("gamma", gamma)

    def build(view: ViewMatrix) -> FusedGraph:
        eye = sp.eye_array(view.n_available, format="csr")
        w = eye if gamma == 0.0 else gamma * gaussian_knn_graph(view, k=k)[0] + eye
        return FusedGraph(view_id=view.view_id, w=w)

    with thread_map(threads) as each:
        return tuple(each(build, ds.views))
