"""Property tests of the two mask protocols and the view-weight update.

apply_mask must keep every sample in some view and give each view the
instance counts its protocol fixes: round((1 - rate) n) drawn per view for
random-missing, plus the orphans the coverage repair puts back, and
round(rate n) shared samples with single-view counts one apart for
paired-sample. update_weights must return simplex weights that never rank a
costlier view above a cheaper one.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_graph_properties import examples

from imvc import MaskSpec, MultiViewDataset, ViewMatrix, apply_mask
from imvc.dataset import _draw_random_missing
from imvc.solver import update_weights


def complete_dataset(n: int, l: int) -> MultiViewDataset:
    views = tuple(ViewMatrix(view_id=v, data=np.ones((1, n)) * v) for v in range(l))
    return MultiViewDataset(views=views, n=n, availability=(np.arange(n),) * l)


def half_up(x: float) -> int:
    return math.floor(x + 0.5)


def check_covered(masked: MultiViewDataset) -> None:
    covered = np.unique(np.concatenate(masked.availability))
    assert np.array_equal(covered, np.arange(masked.n))


@examples(200)
@given(
    n=st.integers(1, 60),
    l=st.integers(1, 5),
    rate=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_missing_counts(n, l, rate, seed):
    n_keep = half_up((1.0 - rate) * n)
    spec = MaskSpec("random-missing", rate, seed=seed)
    if rate > 0.0 and l * (n - n_keep) > n * (l - 1):
        with pytest.raises(ValueError, match="infeasible mask"):
            apply_mask(complete_dataset(n, l), spec)
        return
    masked = apply_mask(complete_dataset(n, l), spec)
    check_covered(masked)
    sizes = [ids.size for ids in masked.availability]
    assert min(sizes) >= n_keep
    if rate > 0.0:  # rate 0 returns the dataset as it is, with no draw
        drawn = _draw_random_missing(n, l, rate, np.random.default_rng(seed))
        orphans = n - np.unique(np.concatenate(drawn)).size
        assert sum(sizes) == l * n_keep + orphans
    for view, ids in zip(masked.views, masked.availability):
        assert view.n_available == ids.size


@examples(200)
@given(
    n=st.integers(2, 60),  # one sample cannot fill two views
    rate=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_paired_sample_counts(n, rate, seed):
    masked = apply_mask(complete_dataset(n, 2), MaskSpec("paired-sample", rate, seed=seed))
    check_covered(masked)
    a, b = masked.availability
    assert np.intersect1d(a, b).size == half_up(rate * n)
    assert abs(a.size - b.size) <= 1


@examples(300)
@given(
    costs=st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_subnormal=True)),
        min_size=1,
        max_size=6,
    ),
    r=st.floats(1.0, 50.0, exclude_min=True),
)
def test_weights_on_the_simplex_in_cost_order(costs, r):
    costs = np.array(costs)
    w = update_weights(costs, r)
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-12
    for i in range(costs.size):
        for j in range(costs.size):
            if costs[i] < costs[j]:
                assert w[i] >= w[j]
    zero = costs == 0.0
    if zero.any():  # zero-cost views share all the weight
        assert np.all(w[~zero] == 0.0)
        assert np.all(w[zero] == w[zero][0])
