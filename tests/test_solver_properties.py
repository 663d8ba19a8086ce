"""Property test of the solver's descent: on random masked problems up to
n = 2000 samples and 5 views, across mask rates and (lam, beta, r), no sweep
of fit may raise the objective by more than criterion 1's 1e-9 relative
tolerance.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from test_graph_properties import examples

from imvc import SolverConfig, fit

from synthetic import random_problem


@examples(40)
@given(
    n=st.integers(50, 2000),
    l=st.integers(2, 5),
    c=st.integers(2, 6),
    rate=st.sampled_from((0.0, 0.1, 0.3, 0.5)),
    k=st.integers(2, 10),
    lam=st.sampled_from((0.001, 0.1, 1.0, 10.0)),
    beta=st.sampled_from((0.0, 1e-05, 0.001, 0.1)),
    r=st.sampled_from((1.5, 2.0, 5.0, 9.0)),
    weight_on=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2000, l=5, c=6, rate=0.3, k=10, lam=10.0, beta=0.1, r=1.5, weight_on=True, seed=1)
@example(n=1999, l=2, c=2, rate=0.5, k=2, lam=0.001, beta=0.0, r=9.0, weight_on=False, seed=2)
def test_objective_never_increases(n, l, c, rate, k, lam, beta, r, weight_on, seed):
    ds, graphs = random_problem(seed, l=l, n=n, c=c, rate=rate, k=k)
    cfg = SolverConfig(
        lam=lam, beta=beta, r=r, n_components=c, max_iter=30, tol=0.0, seed=seed,
        weight_on=weight_on,
    )
    trace = fit(ds, graphs, cfg).objective_trace
    assert len(trace) == 31
    assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-9))
