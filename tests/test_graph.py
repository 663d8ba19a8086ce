import numpy as np
import pytest

from imvc import (
    ViewMatrix,
    auto_sigma,
    fuse_graph,
    gaussian_knn_graph,
    identity_fused_graph,
)


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
    s = gaussian_knn_graph(view_from_points(pts), k=1, sigma=1.0).s.toarray()
    assert s[0, 1] == 1.0 and s[1, 0] == 1.0


def test_kernel_value_at_sigma_sqrt2():
    d = np.sqrt(2.0)
    pts = [[0.0], [d]]
    s = gaussian_knn_graph(view_from_points(pts), k=1, sigma=1.0).s.toarray()
    assert s[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_collinear_points_match_brute_force():
    pts = [[0.0], [1.0], [2.2], [3.6], [5.2]]
    sigma = 1.3
    g = gaussian_knn_graph(view_from_points(pts), k=1, sigma=sigma)
    expect = brute_force_knn_kernel(pts, k=1, sigma=sigma)
    assert np.allclose(g.s.toarray(), expect, rtol=1e-14, atol=1e-15)


def test_random_cloud_matches_brute_force():
    rng = np.random.default_rng(4)
    for k in (1, 3, 6):
        pts = rng.normal(size=(14, 3))
        sigma = 0.8
        g = gaussian_knn_graph(view_from_points(pts), k=k, sigma=sigma)
        expect = brute_force_knn_kernel(pts, k=k, sigma=sigma)
        assert np.allclose(g.s.toarray(), expect, rtol=1e-13, atol=1e-15)


def test_graph_zero_diagonal_and_range():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20, 4))
    s = gaussian_knn_graph(view_from_points(pts), k=4).s.toarray()
    assert np.all(np.diag(s) == 0.0)
    assert s.min() >= 0.0 and s.max() <= 1.0


def test_collinear_rows_have_at_most_2k_nonzeros():
    # the 2k bound is a 1-D geometry fact: at most k neighbors on each side
    rng = np.random.default_rng(2)
    pts = np.sort(rng.uniform(0, 10, size=24)).reshape(-1, 1)
    for k in (1, 2, 4):
        g = gaussian_knn_graph(view_from_points(pts), k=k, sigma=1.0)
        nonzeros = (g.s.toarray() > 0).sum(axis=1)
        assert nonzeros.max() <= 2 * k


def test_kernel_monotone_in_distance():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(15, 2))
    s = gaussian_knn_graph(view_from_points(pts), k=4, sigma=1.1).s.toarray()
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


def test_symmetry_is_exact():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(30, 5))
    s = gaussian_knn_graph(view_from_points(pts), k=5).s.toarray()
    assert np.array_equal(s, s.T)


# ---------------------------------------------------------------- auto sigma


def test_auto_sigma_two_points():
    pts = [[0.0, 0.0], [3.0, 4.0]]
    assert auto_sigma(view_from_points(pts)) == pytest.approx(5.0)


def test_auto_sigma_three_distances():
    # collinear at 0, 1, 3: pairwise distances {1, 2, 3}, median 2
    pts = [[0.0], [1.0], [3.0]]
    assert auto_sigma(view_from_points(pts)) == pytest.approx(2.0)


def test_auto_sigma_matches_full_median():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(40, 3))
    dists = [
        np.linalg.norm(pts[i] - pts[j])
        for i in range(40)
        for j in range(i + 1, 40)
    ]
    assert auto_sigma(view_from_points(pts)) == pytest.approx(np.median(dists), rel=1e-12)


def test_auto_sigma_degenerate_points():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError, match="degenerate sigma"):
        auto_sigma(view_from_points(pts))
    with pytest.raises(ValueError, match="degenerate sigma"):
        gaussian_knn_graph(view_from_points(pts), k=1)


# -------------------------------------------------------------------- fusion


def test_fuse_gamma_zero_gives_identity():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(9, 2))
    sim = gaussian_knn_graph(view_from_points(pts), k=2)
    fused = fuse_graph(sim, gamma=0.0)
    assert np.array_equal(fused.w.toarray(), np.eye(9))
    assert np.array_equal(fused.degree, np.ones(9))
    assert fused.is_identity


def test_fuse_small_analytic_case():
    from imvc import SimilarityGraph

    sim = SimilarityGraph(
        view_id=0, s=np.array([[0.0, 0.5], [0.5, 0.0]]), k=1, sigma=1.0
    )
    fused = fuse_graph(sim, gamma=1.0)
    assert np.array_equal(fused.w.toarray(), np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert np.array_equal(fused.degree, np.array([1.5, 1.5]))


def test_fuse_degree_equals_row_and_column_sums():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(25, 3))
    sim = gaussian_knn_graph(view_from_points(pts), k=4)
    fused = fuse_graph(sim, gamma=1.7)
    assert np.array_equal(fused.degree, fused.w.sum(axis=1))
    # column sums see the same values in the same order once w.T is laid out
    # like w (w is exactly symmetric), so the equality is exact too
    assert np.array_equal(fused.degree, fused.w.T.tocsr().sum(axis=1))
    assert fused.degree.min() >= 1.0


def test_fuse_rejects_negative_gamma():
    sim = gaussian_knn_graph(
        view_from_points(np.random.default_rng(9).normal(size=(6, 2))), k=2
    )
    with pytest.raises(ValueError, match="gamma"):
        fuse_graph(sim, gamma=-0.1)


def test_identity_fused_graph():
    fused = identity_fused_graph(5, view_id=3)
    assert fused.is_identity and fused.view_id == 3
    assert np.array_equal(fused.w.toarray(), np.eye(5))
    assert np.array_equal(fused.degree, np.ones(5))


def test_graphs_are_read_only_csr():
    rng = np.random.default_rng(10)
    sim = gaussian_knn_graph(view_from_points(rng.normal(size=(12, 2))), k=3)
    fused = fuse_graph(sim, gamma=1.0)
    for m in (sim.s, fused.w, identity_fused_graph(4).w):
        assert m.format == "csr"
        with pytest.raises(ValueError, match="read-only"):
            m.data[0] = 2.0
    # every row holds its k neighbors, at most k more that chose it, and W's
    # unit diagonal
    assert np.diff(fused.w.indptr).max() <= 2 * 3 + 1


def test_fused_graph_rejects_non_square_or_asymmetric():
    from imvc import FusedGraph

    with pytest.raises(ValueError, match="must be square"):
        FusedGraph(view_id=2, w=np.ones((2, 3)), gamma=1.0, degree=np.ones(2))
    w = np.array([[1.0, 0.5], [np.nextafter(0.5, 1.0), 1.0]])  # one ulp off
    with pytest.raises(ValueError, match="view 2: fused graph must be exactly symmetric"):
        FusedGraph(view_id=2, w=w, gamma=1.0, degree=w.sum(axis=1))
    ok = FusedGraph(view_id=2, w=np.maximum(w, w.T), gamma=1.0, degree=np.ones(2))
    assert ok.n == 2
