"""Property tests of the lockstep k-means restarts on random inputs.

_best_kmeans must give the labels and the inertia of the one-restart-at-a-time
reference bit for bit, on inputs that stress each step: integer features
(exact distance ties), a large common offset, duplicated points and
all-identical points (coincident k-means++ seeds and empty clusters), one
feature (where a cluster mean sums pairwise), and a max_iter small enough
that some restarts stop on it while others have converged. A second set
of inputs stresses the assignment screen: up to 12 features and 500
points, scales near 1e-150 and 1e150, points exactly halfway between two
others, and more clusters than distinct points, which forces duplicate
centres.
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


@examples(100)
@given(problems(), st.sampled_from((1, 2, 3, 20)), st.integers(2, 4))
def test_kmeans_gives_its_one_thread_result_on_any_thread_count(problem, restarts, threads):
    # the restarts split into contiguous parts, one per thread, and are
    # joined in restart order before the first smallest inertia is taken;
    # fewer restarts than threads included
    problem = {**problem, "restarts": restarts}
    want_labels, want_inertia = _best_kmeans(**problem)
    labels, inertia = _best_kmeans(**problem, threads=threads)
    assert np.array_equal(labels, want_labels)
    assert inertia == want_inertia


@st.composite
def screen_problems(draw):
    """Points on a lattice of even coordinates, each repeated, plus points
    exactly halfway between two of them, so that k-means++ seeds on the
    lattice leave the midpoints tied between two centres; k may exceed the
    distinct points, which forces duplicate centres. The lattice is scaled
    by 2^-498, 1 or 2^498 (about 1e-150 and 1e150), which keeps the
    midpoints exact, or by 1e-150 or 1e150."""
    c = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    corners = 2 * rng.integers(-2, 3, size=(draw(st.integers(1, 8)), c))
    n = draw(st.integers(2, 500))
    ends = rng.integers(0, len(corners), size=(n, 2))
    midpoints = (corners[ends[:, 0]] + corners[ends[:, 1]]) // 2
    pts = np.where(rng.random((n, 1)) < 0.5, corners[ends[:, 0]], midpoints)
    scale = draw(st.sampled_from((2.0**-498, 1.0, 2.0**498, 1e-150, 1e150)))
    return dict(
        representation=pts.T * scale,
        k=draw(st.integers(1, min(n, 12))),
        restarts=draw(st.sampled_from((1, 3, 20))),
        seed=draw(st.integers(0, 2**32 - 1)),
        max_iter=draw(st.integers(0, 30)),
    )


@examples(60)
@given(screen_problems())
def test_kmeans_matches_reference_on_ties_duplicates_and_extreme_scales(problem):
    check_kmeans(problem)
