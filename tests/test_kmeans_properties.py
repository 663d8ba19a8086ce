"""Property tests of the lockstep k-means restarts on random inputs.

_best_kmeans must give the labels and the inertia of the one-restart-at-a-time
reference bit for bit, on inputs that stress each step: integer features
(exact distance ties), a large common offset, duplicated points and
all-identical points (coincident k-means++ seeds and empty clusters), one
feature (where a cluster mean sums pairwise), and a max_iter small enough
that some restarts stop on it while others have converged.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import reference
from test_graph_properties import examples

from imvc.metrics import _best_kmeans

KINDS = ("normal", "integer", "offset", "duplicates", "identical")


def make_points(kind: str, c: int, n: int, seed: int) -> np.ndarray:
    """A c x n representation: one point per column."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        return rng.integers(0, 3, size=(c, n)).astype(np.float64)
    if kind == "identical":
        return np.full((c, n), rng.normal())
    x = rng.normal(size=(c, n))
    if kind == "offset":
        x += 1e6
    elif kind == "duplicates":
        x[:, n // 2 :] = x[:, : n - n // 2]
    return x


@st.composite
def problems(draw, n_range=(1, 40)):
    n = draw(st.integers(*n_range))
    rep = make_points(
        draw(st.sampled_from(KINDS)),
        draw(st.integers(1, 5)),
        n,
        draw(st.integers(0, 2**32 - 1)),
    )
    return dict(
        representation=rep,
        k=draw(st.integers(1, n)),
        restarts=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
        max_iter=draw(st.integers(0, 8)),
    )


def check_kmeans(problem):
    want_labels, want_inertia = reference.best_kmeans(**problem)
    labels, inertia = _best_kmeans(**problem)
    assert np.array_equal(labels, want_labels)
    assert inertia == want_inertia


@examples(300)
@given(problems())
def test_kmeans_matches_reference_on_random_points(problem):
    check_kmeans(problem)


@examples(30)
@given(problems(n_range=(130, 400)))
def test_kmeans_matches_reference_on_larger_inputs(problem):
    # past 128 points a one-feature mean and the inertia sum in pairwise blocks
    check_kmeans(problem)
