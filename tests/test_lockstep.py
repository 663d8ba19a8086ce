"""fit runs a batch of fits in lockstep, with one GEMM or sparse product per
view for the whole batch. A fit's last bits follow the batch it runs in, as a
GEMM's sums follow its shape, so a fit in a batch stays within rounding of the
same fit alone: the same error and iteration count, traces within 1e-12
relative and the same k-means labels, whatever the batch holds and wherever it
is split, and a fit that fails leaves the others to carry on.

fit evaluates its sweeps under np.errstate(over, invalid and divide ignored).
An overflowing fit (lam = 1e308) overflows inside the element-wise codes step
that the whole batch shares, so a RuntimeWarning there, which this suite's
filterwarnings = error turns into an exception, would end every fit of the
batch; with the warnings off, the fit's own objective check ends it alone.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from test_graph_properties import examples

import imvc.solver
from imvc import ViewMatrix, evaluate_clustering
from imvc.solver import SolverConfig, fit, update_basis

from synthetic import masked_problem, multiview_blobs, random_problem


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_fit(got, want):
    """Equal traces, variables and error, bit for bit."""
    assert repr(got.error) == repr(want.error)
    for name in ("objective_trace", "cost_trace", "weight_trace", "consensus", "weights"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    for name in ("bases", "codes"):
        for g, w in zip(getattr(got, name), getattr(want, name)):
            assert same_bits(g, w), name


def kmeans_labels(state):
    c, n = state.consensus.shape
    return evaluate_clustering(state.consensus, np.zeros(n, dtype=int), k=c, restarts=3).predicted


def assert_close_fit(got, want):
    """A fit in a batch against the same fit alone: the same error, traces
    of the same length within 1e-12 relative, and the same k-means labels."""
    assert repr(got.error) == repr(want.error)
    for name in ("objective_trace", "cost_trace", "weight_trace"):
        got_trace, want_trace = getattr(got, name), getattr(want, name)
        np.testing.assert_allclose(got_trace, want_trace, rtol=1e-12, err_msg=name)
    assert same_bits(kmeans_labels(got), kmeans_labels(want))


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
            # lam = 1e308 overflows in the codes step and r = 1e6 makes the
            # consensus infeasible: several fits of a batch fail in one sweep
            st.sampled_from((0.001, 0.1, 10.0, 1e308)),
            st.sampled_from((0.0, 1e-05, 0.001, 0.1)),
            st.sampled_from((1.5, 2.0, 5.0, 9.0, 1e6)),
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
def test_lockstep_fits_stay_within_rounding_of_lone_fits(n, l, c, rate, k, gamma, grid, cuts, seed):
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
        assert_close_fit(got, want)


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
        assert_close_fit(got, want)
    # a failed fit keeps what it had before the failing sweep: here its start
    assert batch[1].n_iterations == batch[3].n_iterations == 0


def _scaled_problem():
    """A problem whose view 1 is scaled by 1e160: X P^T overflows there in
    the first sweep for every fit, so every basis update fails."""
    ds, graphs = random_problem(5, l=2, n=12, c=2, rate=0.0, gamma=0.0)
    big = ViewMatrix(view_id=1, data=ds.views[1].data * 1e160)
    return dataclasses.replace(ds, views=(ds.views[0], big)), graphs


def test_a_basis_failure_in_every_fit_empties_the_batch_in_one_sweep():
    ds, graphs = _scaled_problem()
    cfgs = [SolverConfig(lam=1.0, beta=0.001, r=2.0, n_components=2, seed=s) for s in range(3)]
    states = fit(ds, graphs, cfgs)
    assert [f"{type(s.error).__name__}: {s.error}" for s in states] == [
        "ValueError: non-finite values in the basis update target"
    ] * 3
    assert [s.n_iterations for s in states] == [0, 0, 0]


def test_fits_failing_in_one_sweep_leave_together_with_their_first_error(monkeypatch):
    # at r = 1e6 the consensus update fails before the basis update would;
    # at r = 2 only the basis update fails. Both leave after one try of the
    # sweep, which no fit redoes
    ds, graphs = _scaled_problem()
    cfgs = [SolverConfig(lam=1.0, beta=0.001, r=r, n_components=2, seed=1) for r in (1e6, 2.0)]
    calls = []
    update_consensus = imvc.solver.update_consensus

    def counted(*args):  # the solver's loop looks it up by module name
        calls.append(args)
        return update_consensus(*args)

    monkeypatch.setattr(imvc.solver, "update_consensus", counted)
    states = fit(ds, graphs, cfgs)
    assert len(calls) == 1
    assert [f"{type(s.error).__name__}: {s.error}" for s in states] == [
        "ValueError: sample 0 carries no positive weight in any view (a_v^r is 0 "
        "at r=1000000.0 for view(s) 0, 1); the consensus update is infeasible",
        "ValueError: non-finite values in the basis update target",
    ]
    assert [s.n_iterations for s in states] == [0, 0]
    # a recorded error keeps no traceback, and so none of the batch's stacks
    assert all(s.error.__traceback__ is None for s in states)
    for cfg, got in zip(cfgs, states):
        (want,) = fit(ds, graphs, [cfg])
        assert_close_fit(got, want)


def test_a_block_update_names_the_fit_it_failed_for():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 6))
    codes = rng.normal(size=(6, 4, 2))  # (n_v, B, c): 4 fits
    codes[4, 1, 0] = np.nan
    codes[0, 3, 1] = np.inf
    bases, failed = update_basis(x, codes)
    assert sorted(failed) == [1, 3]
    assert all(str(e) == "non-finite values in the basis update target" for e in failed.values())
    # the fits that did not fail are within rounding of a lone fit's
    for j in (0, 2):
        (want,), none = update_basis(x, np.ascontiguousarray(codes[:, j : j + 1]))
        assert not none
        np.testing.assert_allclose(bases[j], want, rtol=0, atol=1e-12)


def test_a_batch_rebuilds_its_code_constants_for_the_fits_that_remain(monkeypatch):
    # fits 0 and 2 leave after sweeps 1 and 2: each codes update then takes
    # the constants of the fits still running, and the two that run on stay
    # within rounding of the same two fits run as their own batch
    ds, graphs = random_problem(23, l=2, n=60, c=3, rate=0.3, k=4)
    grid = [(0.1, 1e-3, 1), (10.0, 0.1, 4), (1.0, 0.0, 2), (0.001, 1e-5, 4)]
    cfgs = [
        SolverConfig(lam=lam, beta=beta, r=2.0, n_components=3, max_iter=m, tol=0.0, seed=i)
        for i, (lam, beta, m) in enumerate(grid)
    ]
    beta_of = {lam: beta for lam, beta, _ in grid}
    seen = []
    update_codes = imvc.solver.update_codes

    def checked(x, bases, gathered, graph, lam, h, thr):  # looked up by module name
        fits_lam = lam[:, 0]
        fits_beta = np.array([beta_of[value] for value in fits_lam])
        want = imvc.solver._code_constants(graph, fits_lam, fits_beta, 3)
        assert all(same_bits(g, w) for g, w in zip((lam, h, thr), want))
        seen.append(fits_lam.tolist())
        return update_codes(x, bases, gathered, graph, lam, h, thr)

    monkeypatch.setattr(imvc.solver, "update_codes", checked)
    batch = fit(ds, graphs, cfgs)
    # one call per view and sweep
    assert seen == [[0.1, 10.0, 1.0, 0.001]] * 2 + [[10.0, 1.0, 0.001]] * 2 + [[10.0, 0.001]] * 4
    monkeypatch.undo()
    for got, want in zip((batch[1], batch[3]), fit(ds, graphs, [cfgs[1], cfgs[3]])):
        assert got.n_iterations == 4
        assert_close_fit(got, want)


def test_a_batch_shares_its_latent_dimension():
    ds, graphs = random_problem(0, l=2, n=10, c=2, k=3)
    cfgs = [SolverConfig(lam=1.0, beta=0.0, r=2.0, n_components=c) for c in (2, 3)]
    with pytest.raises(ValueError, match="share n_components"):
        fit(ds, graphs, cfgs)
    assert fit(ds, graphs, []) == ()
