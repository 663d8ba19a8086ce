"""Property tests of the screened kNN graph build on random views.

The build must equal the dense reference (exact cdist over all pairs) bit
for bit in S and sigma, and S must be a valid similarity graph, on views
that stress the GEMM screen: integer features (exact ties at the k-th
place), a large common offset, duplicate points, one far outlier (a wide
slack), more than 2000 instances (the sampled sigma) and one-row blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imvc.graph
import reference
import scipy.sparse as sp

from imvc import FusedGraph, ViewMatrix, gaussian_knn_graph

KINDS = ("normal", "integer", "offset", "duplicates", "outlier")


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
    sigma = draw(st.one_of(st.none(), st.floats(0.1, 10.0)))
    return ViewMatrix(view_id=0, data=data), k, sigma


def check_graph(view, k, sigma):
    try:
        s, want_sigma = reference.gaussian_knn_graph(view.data, k, sigma=sigma)
    except ValueError as want:  # all points identical: degenerate sigma
        with pytest.raises(ValueError) as got:
            gaussian_knn_graph(view, k=k, sigma=sigma)
        assert str(got.value) == str(want)
        return
    got, got_sigma = gaussian_knn_graph(view, k=k, sigma=sigma)
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
        mp.setattr(imvc.graph, "_BLOCK_BYTES", 1)
        check_graph(*problem)


@examples(4)
@given(problems(n_range=(2001, 2040), m_max=3))
def test_graph_matches_reference_with_sampled_sigma(problem):
    check_graph(*problem)
