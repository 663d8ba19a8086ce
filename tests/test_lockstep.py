"""fit runs a batch of fits in lockstep, sharing products across the batch.
A fit in a batch must give bit for bit what it gives alone: the same traces,
variables and error, whatever the batch holds and wherever it is split, and a
fit that fails must leave the others untouched.

fit evaluates its sweeps under np.errstate(over, invalid and divide ignored).
An overflowing fit (lam = 1e308) overflows inside the element-wise codes step
that the whole batch shares, so a RuntimeWarning there, which this suite's
filterwarnings = error turns into an exception, would end every fit of the
batch; with the warnings off, the fit's own objective check ends it alone.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from test_graph_properties import examples

from imvc.solver import SolverConfig, _FitFailed, fit, update_basis

from synthetic import masked_problem, multiview_blobs, random_problem

# the (m, n_v, c) shapes of a README grid group at n = 400 and n = 2000 and of
# scale-n4000, plus odd n_v
SHAPES = [
    (76, 280, 5),
    (240, 280, 5),
    (216, 1400, 10),
    (240, 2800, 10),
    (76, 281, 5),
    (216, 1401, 10),
]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and a.tobytes() == b.tobytes()
        and a.flags.f_contiguous == b.flags.f_contiguous
    )


def assert_same_fit(got, want):
    """Equal traces, variables (in the same memory layout) and error."""
    assert repr(got.error) == repr(want.error)
    for name in ("objective_trace", "cost_trace", "weight_trace", "consensus", "weights"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    for name in ("bases", "codes"):
        for g, w in zip(getattr(got, name), getattr(want, name)):
            assert same_bits(g, w), name


@pytest.mark.parametrize("m, n_v, c", SHAPES)
def test_transposed_xtu_is_utx_bit_for_bit(m, n_v, c):
    # a sweep computes X^T U for the codes and takes its transpose as the
    # cost's U^T X; a BLAS whose two GEMMs sum in different orders breaks that
    rng = np.random.default_rng(m * n_v + c)
    x = rng.normal(size=(m, n_v))
    for _ in range(3):
        u, _ = np.linalg.qr(rng.normal(size=(m, c)))
        assert same_bits(np.ascontiguousarray((x.T @ u).T), u.T @ x)


@examples(50)
@given(
    n=st.integers(30, 300),
    l=st.integers(2, 4),
    c=st.integers(1, 5),
    rate=st.sampled_from((0.0, 0.3, 0.5)),
    k=st.integers(2, 6),
    gamma=st.sampled_from((0.0, 1.0)),
    grid=st.lists(
        st.tuples(
            st.sampled_from((0.001, 0.1, 10.0)),
            st.sampled_from((0.0, 1e-05, 0.001, 0.1)),
            st.sampled_from((1.5, 2.0, 5.0, 9.0)),
            st.booleans(),
            st.sampled_from((0.0, 1e-06, 1e-03, 1e-02)),
            st.integers(1, 20),
        ),
        min_size=1,
        max_size=8,
    ),
    cuts=st.lists(st.integers(1, 7), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    n=281, l=3, c=5, rate=0.0, k=5, gamma=1.0,
    grid=[(0.001, 1e-05, 2.0, True, 1e-6, 20), (10.0, 0.1, 9.0, False, 1e-2, 20)],
    cuts=[], seed=1,
)
@example(
    n=280, l=2, c=3, rate=0.0, k=3, gamma=1.0,
    grid=[(0.1, 0.001, 5.0, True, 0.0, 7), (0.1, 0.0, 1.5, True, 1e-3, 20),
          (10.0, 1e-05, 2.0, False, 0.0, 3)],
    cuts=[1], seed=2,
)
def test_lockstep_fits_equal_lone_fits(n, l, c, rate, k, gamma, grid, cuts, seed):
    ds, graphs = random_problem(seed, l=l, n=n, c=c, rate=rate, k=k, gamma=gamma)
    cfgs = [
        SolverConfig(
            lam=lam, beta=beta, r=r, n_components=c, max_iter=max_iter, tol=tol,
            seed=seed + i, weight_on=weight_on,
        )
        for i, (lam, beta, r, weight_on, tol, max_iter) in enumerate(grid)
    ]
    bounds = [0, *sorted({cut for cut in cuts if cut < len(cfgs)}), len(cfgs)]
    batched = [
        state for a, b in zip(bounds, bounds[1:]) for state in fit(ds, graphs, cfgs[a:b])
    ]
    for cfg, got in zip(cfgs, batched):
        (want,) = fit(ds, graphs, [cfg])
        assert_same_fit(got, want)


def test_a_failing_fit_leaves_the_batch_and_the_others_carry_on():
    full = multiview_blobs(n=30, n_clusters=3, dims=(5, 6), noise=0.4, seed=3)
    masked, graphs = masked_problem(full, rate=0.3, mask_seed=5, k=5)
    params = [
        {"lam": 1.0},
        {"lam": 1e308},  # overflows in the shared codes step at sweep 1
        {"lam": 0.1, "r": 9.0},
        {"lam": 1.0, "r": 1e6},  # (1/2)^r underflows: no consensus at sweep 1
        {"lam": 10.0, "weight_on": False},
    ]
    cfgs = [
        SolverConfig(**{"beta": 0.001, "r": 3.0, **p}, n_components=3, max_iter=60, seed=i)
        for i, p in enumerate(params)
    ]
    batch = fit(masked, graphs, cfgs)
    errors = [f"{type(s.error).__name__}: {s.error}" if s.error else "" for s in batch]
    assert errors == [
        "",
        "ArithmeticError: objective diverged to nan at iteration 1",
        "",
        "ValueError: sample 0 carries no positive weight in any view (a_v^r is 0 "
        "at r=1000000.0 for view(s) 0, 1); the consensus update is infeasible",
        "",
    ]
    for cfg, got in zip(cfgs, batch):
        (want,) = fit(masked, graphs, [cfg])
        assert_same_fit(got, want)
    # a failed fit keeps what it had before the failing sweep: here its start
    assert batch[1].n_iterations == batch[3].n_iterations == 0


def test_codes_keep_the_layout_of_a_lone_fit():
    # C-ordered from initialize, F-ordered after a sweep, in a batch as alone:
    # the layout changes the bits of X P^T and of the sums over the codes
    ds, graphs = random_problem(3, l=2, n=40, c=3, k=3)
    cfgs = [SolverConfig(lam=1.0, beta=0.01, r=2.0, n_components=3, max_iter=1, seed=s)
            for s in range(3)]
    seen = []
    fit(ds, graphs, cfgs, callback=lambda i, it, bases, codes, *rest: seen.extend(codes))
    assert len(seen) == 6 and all(p.flags.f_contiguous and not p.flags.c_contiguous for p in seen)
    assert all(p.flags.f_contiguous for state in fit(ds, graphs, cfgs) for p in state.codes)


def test_a_block_update_names_the_fit_it_failed_for():
    rng = np.random.default_rng(0)
    codes = rng.normal(size=(3, 2, 6))
    codes[1, 0, 4] = np.nan
    with pytest.raises(_FitFailed) as failed:
        update_basis(rng.normal(size=(4, 6)), codes)
    assert failed.value.row == 1
    assert str(failed.value.error) == "non-finite values in the basis update target"


def test_a_batch_shares_its_latent_dimension():
    ds, graphs = random_problem(0, l=2, n=10, c=2, k=3)
    cfgs = [SolverConfig(lam=1.0, beta=0.0, r=2.0, n_components=c) for c in (2, 3)]
    with pytest.raises(ValueError, match="share n_components"):
        fit(ds, graphs, cfgs)
    assert fit(ds, graphs, []) == ()
