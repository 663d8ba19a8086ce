import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scipy.sparse as sp
from scipy.spatial.distance import cdist

import imvc.graph
from imvc import FusedGraph, MultiViewDataset, ViewMatrix, build_fused_graphs, gaussian_knn_graph
from imvc.solver import _graph_cost

from synthetic import random_problem


def view_from_points(points):
    return ViewMatrix(view_id=0, data=np.asarray(points, dtype=float).T)


def brute_force_knn_kernel(points, k, sigma):
    """All-pairs kernel + kNN mask + max symmetrization, straight from the
    definitions."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    s = np.zeros((n, n))
    for i in range(n):
        d2 = [(np.linalg.norm(pts[i] - pts[j]) ** 2, j) for j in range(n) if j != i]
        d2.sort()
        for dist2, j in d2[:k]:
            s[i, j] = np.exp(-dist2 / (2 * sigma**2))
    return np.maximum(s, s.T)


# ------------------------------------------------------------------- kernels


def test_identical_neighbors_have_unit_similarity():
    pts = [[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]
    s = gaussian_knn_graph(view_from_points(pts), k=1)[0].toarray()
    assert s[0, 1] == 1.0 and s[1, 0] == 1.0


def test_kernel_value_at_sigma_sqrt2():
    # unit square: four sides of 1 and two diagonals of sqrt(2), so the
    # median distance sigma is 1 and each diagonal pair lies at sigma sqrt(2)
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    s, sigma = gaussian_knn_graph(view_from_points(pts), k=3)
    assert sigma == 1.0
    assert s[0, 3] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_collinear_points_match_brute_force():
    pts = [[0.0], [1.0], [2.2], [3.6], [5.2]]
    s, sigma = gaussian_knn_graph(view_from_points(pts), k=1)
    expect = brute_force_knn_kernel(pts, k=1, sigma=sigma)
    assert np.allclose(s.toarray(), expect, rtol=1e-14, atol=1e-15)


def test_random_cloud_matches_brute_force():
    rng = np.random.default_rng(4)
    for k in (1, 3, 6):
        pts = rng.normal(size=(14, 3))
        s, sigma = gaussian_knn_graph(view_from_points(pts), k=k)
        expect = brute_force_knn_kernel(pts, k=k, sigma=sigma)
        assert np.allclose(s.toarray(), expect, rtol=1e-13, atol=1e-15)


def test_graph_zero_diagonal_and_range():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20, 4))
    s = gaussian_knn_graph(view_from_points(pts), k=4)[0].toarray()
    assert np.all(np.diag(s) == 0.0)
    assert s.min() >= 0.0 and s.max() <= 1.0


def test_collinear_rows_have_at_most_2k_nonzeros():
    # the 2k bound is a 1-D geometry fact: at most k neighbors on each side
    rng = np.random.default_rng(2)
    pts = np.sort(rng.uniform(0, 10, size=24)).reshape(-1, 1)
    for k in (1, 2, 4):
        s, _ = gaussian_knn_graph(view_from_points(pts), k=k)
        nonzeros = (s.toarray() > 0).sum(axis=1)
        assert nonzeros.max() <= 2 * k


def test_kernel_monotone_in_distance():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(15, 2))
    s = gaussian_knn_graph(view_from_points(pts), k=4)[0].toarray()
    ii, jj = np.nonzero(s)
    dist = np.linalg.norm(pts[ii] - pts[jj], axis=1)
    order = np.argsort(dist)
    d_sorted, s_sorted = dist[order], s[ii, jj][order]
    for a in range(len(order) - 1):
        if d_sorted[a + 1] > d_sorted[a]:
            assert s_sorted[a + 1] < s_sorted[a]


def test_invalid_k_rejected():
    pts = [[0.0], [1.0], [2.0]]
    with pytest.raises(ValueError, match="k must satisfy"):
        gaussian_knn_graph(view_from_points(pts), k=3)
    with pytest.raises(ValueError, match="k must satisfy"):
        gaussian_knn_graph(view_from_points(pts), k=0)


@pytest.mark.parametrize("k", [2.5, True, float("nan"), float("inf")])
def test_a_k_that_is_not_an_integer_is_named(k):
    # 2.5 failed inside numpy ("'float' object cannot be interpreted as an
    # integer"), and True as "an integer is required"
    pts = np.random.default_rng(4).normal(size=(8, 2))
    message = f"^k must be an integer, got {k!r}$"
    with pytest.raises(ValueError, match=message):
        gaussian_knn_graph(view_from_points(pts), k=k)
    ds, _ = random_problem(9, l=2, n=8, c=2, k=2, gamma=0.0)
    with pytest.raises(ValueError, match=message):
        build_fused_graphs(ds, k=k)
    assert gaussian_knn_graph(view_from_points(pts), k=3.0)[0].nnz > 0


def test_symmetry_is_exact():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(30, 5))
    s = gaussian_knn_graph(view_from_points(pts), k=5)[0].toarray()
    assert np.array_equal(s, s.T)


# -------------------------------------------------------------------- screen


def test_overflowing_view_is_rejected_before_any_warning():
    # squared distances near 1e321 overflow float64, where cdist gives inf,
    # sigma inf and an all-NaN S; pytest turns any warning into an error
    data = np.random.default_rng(9).normal(size=(3, 40)) * 1e160
    view = ViewMatrix(view_id=2, data=data)
    message = "^view 2: squared distances overflow float64"
    with pytest.raises(ValueError, match=message):
        gaussian_knn_graph(view, k=5)
    ds = MultiViewDataset(views=(view,), n=40, availability=(np.arange(40),))
    with pytest.raises(ValueError, match=message):
        build_fused_graphs(ds, k=5)


def test_view_with_too_many_features_is_rejected():
    view = ViewMatrix(view_id=1, data=np.zeros((imvc.graph._MAX_FEATURES, 2)))
    with pytest.raises(ValueError, match="^view 1: 1048576 features"):
        gaussian_knn_graph(view, k=1)


def exact_pairs(monkeypatch, data):
    """Pairs the build recomputes exactly: kNN candidates and sigma's band."""
    count = 0
    exact = imvc.graph._sq_distances

    def counting(a, rows, b, cols):
        nonlocal count
        count += rows.size
        return exact(a, rows, b, cols)

    monkeypatch.setattr(imvc.graph, "_sq_distances", counting)
    gaussian_knn_graph(ViewMatrix(view_id=0, data=data), k=5)
    return count


def test_screen_stays_narrow_on_an_outlier_and_at_extreme_scales(monkeypatch):
    # above 2000 points sigma comes from the band of the sampled pairs; one
    # sampled point 100x from the centre, or the view's units, must not widen
    # the screen of every other pair
    x = np.random.default_rng(10).normal(size=(8, 2100))
    outlier = x.copy()
    outlier[:, 0] *= 100
    assert 0 in imvc.graph._sigma_sample(2100)
    plain = exact_pairs(monkeypatch, x)
    for variant in (outlier, x * 1e-25, x * 1e25):
        assert exact_pairs(monkeypatch, variant) <= 2 * plain


@pytest.mark.parametrize("features", [1, 240])
@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_sq_distances_between_two_matrices_are_cdists(features, scale):
    # k-means recomputes its points, a transposed C-ordered array, against
    # its centres, another matrix: the pairs must be cdist's, bit for bit
    rng = np.random.default_rng(features)
    points = rng.normal(size=(50, features)) * scale
    centres = rng.normal(size=(features, 7)) * scale
    rows, cols = rng.integers(50, size=300), rng.integers(7, size=300)
    want = cdist(points, centres.T, "sqeuclidean")[rows, cols]
    assert np.array_equal(imvc.graph._sq_distances(points.T, rows, centres, cols), want)


# ---------------------------------------------------------------------- ties


def test_tied_neighbors_go_to_the_lower_column():
    # instance 0 is at distance 1 from the five 1s (columns 2, 4, 5, 7, 9)
    # and nearer to none; every other instance has 2 neighbors nearer or
    # lower than it, so row 0 of S holds exactly its own 2 neighbors
    data = np.array([[0, 3, 1, 2, 1, 1, 2, 1, 3, 1]], dtype=float)
    s = gaussian_knn_graph(ViewMatrix(view_id=0, data=data), k=2)[0]
    assert s[[0]].indices.tolist() == [2, 4]


# builds graphs on views full of ties at the k-th place and prints each
# one's pattern and sigma
TIED_VIEWS = """
import numpy as np
from imvc import ViewMatrix, gaussian_knn_graph

for seed in range(60):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 4)), int(rng.integers(10, 80))
    if seed % 2:  # duplicate points
        data = rng.normal(size=(m, n))
        data[:, n // 2 :] = data[:, : n - n // 2]
    else:  # integer features
        data = rng.integers(0, 3, size=(m, n)).astype(float)
    s, sigma = gaussian_knn_graph(ViewMatrix(view_id=0, data=data), k=int(rng.integers(1, 9)))
    print(s.indptr.tolist(), s.indices.tolist(), sigma.hex())
"""


def test_tied_neighbors_do_not_depend_on_numpy_simd_dispatch():
    dispatch = pytest.importorskip("numpy._core._multiarray_umath").__cpu_dispatch__
    if not dispatch:
        pytest.skip("this numpy dispatches no SIMD code")
    env = {**os.environ, "PYTHONPATH": str(Path(imvc.graph.__file__).parents[1])}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    outputs = []
    for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(dispatch)}):
        done = subprocess.run(
            [sys.executable, "-c", TIED_VIEWS],
            env={**env, **disabled},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0 and not done.stderr, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------- auto sigma


def auto_sigma(points):
    return gaussian_knn_graph(view_from_points(points), k=1)[1]


def test_auto_sigma_two_points():
    pts = [[0.0, 0.0], [3.0, 4.0]]
    assert auto_sigma(pts) == pytest.approx(5.0)


def test_auto_sigma_three_distances():
    # collinear at 0, 1, 3: pairwise distances {1, 2, 3}, median 2
    pts = [[0.0], [1.0], [3.0]]
    assert auto_sigma(pts) == pytest.approx(2.0)


def test_auto_sigma_matches_full_median():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(40, 3))
    dists = [
        np.linalg.norm(pts[i] - pts[j])
        for i in range(40)
        for j in range(i + 1, 40)
    ]
    assert auto_sigma(pts) == pytest.approx(np.median(dists), rel=1e-12)


def test_auto_sigma_degenerate_points():
    with pytest.raises(ValueError, match="degenerate sigma"):
        auto_sigma(np.zeros((4, 2)))


# -------------------------------------------------------------------- fusion


def fused(w, view_id=0):
    return FusedGraph(view_id=view_id, w=w)


def eye(n):
    return sp.eye_array(n, format="csr")


def test_fuse_gamma_zero_gives_identity():
    rng = np.random.default_rng(7)
    s, _ = gaussian_knn_graph(view_from_points(rng.normal(size=(9, 2))), k=2)
    g = fused(0.0 * s + eye(9))
    assert np.array_equal(g.w.toarray(), np.eye(9))
    assert np.array_equal(g.degree, np.ones(9))
    assert g.is_identity
    # explicit zeros off the diagonal do not make W anything but I
    explicit = sp.csr_array((np.array([1.0, 0.0, 0.0, 1.0]), [0, 1, 0, 1], [0, 2, 4]))
    assert explicit.nnz == 4 and fused(explicit).is_identity
    assert not fused(s + eye(9)).is_identity
    assert not fused(2.0 * eye(3)).is_identity


def test_fuse_small_analytic_case():
    # two points at distance d: sigma = d, so S[0, 1] = exp(-1/2)
    view = view_from_points([[0.0, 0.0], [3.0, 4.0]])
    ds = MultiViewDataset(views=(view,), n=2, availability=(np.arange(2),))
    (g,) = build_fused_graphs(ds, k=1, gamma=2.0)
    off = 2.0 * np.exp(-0.5)
    assert np.array_equal(g.w.toarray(), np.array([[1.0, off], [off, 1.0]]))
    assert np.array_equal(g.degree, np.array([1.0 + off, 1.0 + off]))
    assert not g.is_identity


def test_fuse_degree_equals_row_and_column_sums():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(25, 3))
    s, _ = gaussian_knn_graph(view_from_points(pts), k=4)
    g = fused(1.7 * s + eye(25))
    assert np.array_equal(g.degree, g.w.sum(axis=1))
    # column sums see the same values in the same order once w.T is laid out
    # like w (w is exactly symmetric), so the equality is exact too
    assert np.array_equal(g.degree, g.w.T.tocsr().sum(axis=1))
    assert g.degree.min() >= 1.0
    with pytest.raises(ValueError, match="read-only"):
        g.degree[0] = 0.0


def test_fuse_rejects_negative_gamma():
    ds, _ = random_problem(9, l=2, n=6, c=2, k=2, gamma=0.0)
    with pytest.raises(ValueError, match="gamma must be non-negative, got -0.1"):
        build_fused_graphs(ds, k=2, gamma=-0.1)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
def test_fuse_rejects_nan_gamma(gamma):
    # NaN is not below 0 either: the check asks for the valid range, which
    # also ends below inf, where a fit would fail in its first sweep
    ds, _ = random_problem(9, l=2, n=6, c=2, k=2, gamma=0.0)
    with pytest.raises(ValueError, match=f"^gamma must be non-negative, got {gamma}$"):
        build_fused_graphs(ds, k=2, gamma=gamma)


def test_build_fused_graphs_gamma_zero_is_identity_for_any_k():
    # k = n is too large for a neighbor search, but gamma = 0 needs none
    ds, graphs = random_problem(11, l=2, n=6, c=2, k=6, gamma=0.0)
    for view, g in zip(ds.views, graphs):
        assert g.is_identity and g.view_id == view.view_id
        assert np.array_equal(g.w.toarray(), np.eye(view.n_available))
        assert np.array_equal(g.degree, np.ones(view.n_available))


def test_graphs_are_read_only_csr():
    rng = np.random.default_rng(10)
    s, _ = gaussian_knn_graph(view_from_points(rng.normal(size=(12, 2))), k=3)
    g = fused(s + eye(12))
    for m in (s, g.w, fused(eye(4)).w):
        assert m.format == "csr"
        with pytest.raises(ValueError, match="read-only"):
            m.data[0] = 2.0
    # every row holds its k neighbors, at most k more that chose it, and W's
    # unit diagonal
    assert np.diff(g.w.indptr).max() <= 2 * 3 + 1


def test_fused_graph_rejects_non_square_or_asymmetric():
    with pytest.raises(ValueError, match="must be square"):
        FusedGraph(view_id=2, w=np.ones((2, 3)))
    w = np.array([[1.0, 0.5], [np.nextafter(0.5, 1.0), 1.0]])  # one ulp off
    with pytest.raises(ValueError, match="view 2: fused graph must be exactly symmetric"):
        FusedGraph(view_id=2, w=w)
    ok = FusedGraph(view_id=2, w=np.maximum(w, w.T))
    assert ok.n == 2


def test_fused_graph_reads_degree_and_identity_off_w():
    w = np.array([[1.0, 0.5], [0.5, 1.0]])
    p, q = np.array([[1.0, 2.0]]), np.zeros((1, 2))
    g = FusedGraph(view_id=4, w=w)
    # degree and identity follow W, so no caller can hand in ones that disagree
    assert np.array_equal(g.degree, [1.5, 1.5]) and not g.is_identity
    # _graph_cost takes (B, ...) stacks: here a batch of one
    wp = (g.w @ p.T)[None]
    assert _graph_cost(p[None], q[None], wp, g).tolist() == [7.5] == [np.vdot(w, (p.T - q) ** 2)]
    eye = FusedGraph(view_id=4, w=np.eye(2))
    assert _graph_cost(p[None], q[None], None, eye).tolist() == [5.0]
    with pytest.raises(TypeError):
        FusedGraph(view_id=4, w=w, degree=np.ones(2))
