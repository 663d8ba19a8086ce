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

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from test_graph_properties import examples

import imvc.solver
from imvc import ViewMatrix
from imvc.solver import SolverConfig, fit, update_basis

from synthetic import masked_problem, multiview_blobs, random_problem


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


def test_codes_keep_the_layout_of_a_lone_fit(monkeypatch):
    # C-ordered from initialize, F-ordered after a sweep, in a batch as alone:
    # the layout changes the bits of X P^T and of the sums over the codes
    ds, graphs = random_problem(3, l=2, n=40, c=3, k=3)
    cfgs = [SolverConfig(lam=1.0, beta=0.01, r=2.0, n_components=3, max_iter=1, seed=s)
            for s in range(3)]
    seen = []
    update_codes = imvc.solver.update_codes

    def recorded(*args):  # the solver's loop looks it up by module name
        codes, xtu = update_codes(*args)
        seen.extend(codes)
        return codes, xtu

    monkeypatch.setattr(imvc.solver, "update_codes", recorded)
    fit(ds, graphs, cfgs)
    assert len(seen) == 6 and all(p.flags.f_contiguous and not p.flags.c_contiguous for p in seen)
    assert all(p.flags.f_contiguous for state in fit(ds, graphs, cfgs) for p in state.codes)


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
        assert_same_fit(got, want)


def test_a_block_update_names_the_fit_it_failed_for():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 6))
    codes = rng.normal(size=(4, 2, 6))
    codes[1, 0, 4] = np.nan
    codes[3, 1, 0] = np.inf
    bases, failed = update_basis(x, codes)
    assert sorted(failed) == [1, 3]
    assert all(str(e) == "non-finite values in the basis update target" for e in failed.values())
    # the rows that did not fail are those a lone fit gets
    for j in (0, 2):
        (want,), none = update_basis(x, codes[j : j + 1])
        assert not none and same_bits(bases[j], want)


def test_a_batch_shares_its_latent_dimension():
    ds, graphs = random_problem(0, l=2, n=10, c=2, k=3)
    cfgs = [SolverConfig(lam=1.0, beta=0.0, r=2.0, n_components=c) for c in (2, 3)]
    with pytest.raises(ValueError, match="share n_components"):
        fit(ds, graphs, cfgs)
    assert fit(ds, graphs, []) == ()
