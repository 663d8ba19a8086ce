"""Property tests of the screened kNN graph build on random views.

The build must equal the dense reference (exact cdist over all pairs, ties
to the lower column) bit for bit in S and sigma, and S must be a valid similarity graph, on views
that stress the GEMM screen: integer features (exact ties at the k-th
place), a large common offset, duplicate points, one far outlier (a wide
slack), more than 2000 instances (the sampled sigma), one-row blocks and
narrow column groups (the candidates then come from the group-minimum bound
on a row's k-th value, which wider views take), and views scaled far below
and far above unit size (the float32 screen scales its points by a power of
two first).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imvc.graph
import reference
import scipy.sparse as sp

from imvc import FusedGraph, ViewMatrix, gaussian_knn_graph

KINDS = ("normal", "integer", "offset", "duplicates", "outlier", "tiny", "huge")


def examples(n: int) -> settings:
    """n deterministic examples: the suite gives the same verdict on every run."""
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


def make_data(kind: str, m: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "integer":
        return rng.integers(0, 3, size=(m, n)).astype(np.float64)
    x = rng.normal(size=(m, n))
    if kind == "offset":
        x += 1e6
    elif kind == "duplicates":
        x[:, n // 2 :] = x[:, : n - n // 2]
    elif kind == "outlier":
        x[:, rng.integers(n)] += 1e7
    elif kind == "tiny":
        x *= 1e-150
    elif kind == "huge":
        x *= 1e150
    return x


@st.composite
def problems(draw, n_range=(2, 60), m_max=6):
    n = draw(st.integers(*n_range))
    data = make_data(
        draw(st.sampled_from(KINDS)),
        draw(st.integers(1, m_max)),
        n,
        draw(st.integers(0, 2**32 - 1)),
    )
    k = draw(st.integers(1, min(n - 1, 12)))
    return ViewMatrix(view_id=0, data=data), k


def check_graph(view, k):
    try:
        s, want_sigma = reference.gaussian_knn_graph(view.data, k)
    except ValueError as want:  # all points identical: degenerate sigma
        with pytest.raises(ValueError) as got:
            gaussian_knn_graph(view, k=k)
        assert str(got.value) == str(want)
        return
    got, got_sigma = gaussian_knn_graph(view, k=k)
    assert got_sigma == want_sigma
    assert np.array_equal(got.toarray(), s)
    # a valid similarity graph: symmetric, zero diagonal, and every fused
    # degree at least 1 (a far outlier's kernel values may underflow to 0)
    assert (got != got.T).nnz == 0
    assert np.all(got.diagonal() == 0.0)
    fused = FusedGraph(view_id=0, w=got + sp.eye_array(got.shape[0]))
    assert fused.degree.min() >= 1.0


@examples(150)
@given(problems())
def test_graph_matches_reference_on_random_views(problem):
    check_graph(*problem)


@examples(40)
@given(problems(n_range=(2, 25)))
def test_graph_matches_reference_with_one_row_blocks(problem):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(imvc.graph, "_BLOCK_ROWS", 1)
        check_graph(*problem)


@examples(4)
@given(problems(n_range=(2001, 2040), m_max=3))
def test_graph_matches_reference_with_sampled_sigma(problem):
    check_graph(*problem)


@st.composite
def bound_problems(draw):
    """A column-group width and a problem whose rows split into at least 4k
    groups of that width, so that its candidates come from the bound."""
    width = draw(st.integers(2, 3))
    view, k = draw(problems(n_range=(8 * width, 60)))
    return width, view, min(k, view.n_available // (4 * width))


@examples(60)
@given(bound_problems())
def test_graph_matches_reference_through_the_group_bound(problem):
    width, view, k = problem
    assert view.n_available // width >= 4 * k
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(imvc.graph, "_GROUP_WIDTH", width)
        check_graph(view, k)


def test_group_bound_is_at_least_the_kth_smallest(monkeypatch):
    monkeypatch.setattr(imvc.graph, "_GROUP_WIDTH", 3)
    rng = np.random.default_rng(0)
    for n in (12, 13, 14, 40, 41):
        g = n // 3  # groups of 3 columns {t, t + g, t + 2g}, plus the rest
        group = np.where(np.arange(n) < 3 * g, np.arange(n) % g, g)
        for k in range(1, g // 4 + 2):
            ties = rng.integers(0, 4, size=(50, n)).astype(np.float64)
            spread = rng.normal(size=(50, n))  # distinct values
            for a in (ties, spread):
                bound = imvc.graph._kth_bound(a, k)
                kth = np.partition(a, k - 1, axis=1)[:, k - 1]
                assert np.all(bound >= kth)
                if g < 4 * k:  # too few groups: the k-th smallest itself
                    assert np.array_equal(bound, kth)
                elif a is spread:
                    # the k-th smallest exactly when the k smallest fall in
                    # distinct groups
                    smallest = np.argsort(a, axis=1)[:, :k]
                    distinct = np.array([np.unique(group[c]).size == k for c in smallest])
                    assert np.array_equal(bound == kth, distinct)
                    assert distinct.any() and (k == 1 or not distinct.all())
