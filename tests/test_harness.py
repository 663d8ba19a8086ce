import csv
import ctypes
import json
import multiprocessing
import os
import re
import signal
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import imvc.harness
from imvc import (
    ExperimentConfig,
    run_experiment,
    save_dataset,
    write_results,
    write_traces,
)
from imvc.harness import (
    _TRIAL_COLUMNS,
    TrialOutcome,
    _aggregate,
    derive_seed,
    in_workers,
    one_blas_thread,
    write_trace,
)
from imvc.solver import SolverConfig, SolverState, initialize

from synthetic import multiview_blobs, save_csv_dataset


def _blobs():
    return multiview_blobs(n=30, n_clusters=3, dims=(5, 6), noise=0.4, seed=3)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("blobs")
    paths = save_dataset(_blobs(), root)
    return root, paths


def make_config(paths, out, **overrides):
    raw = {
        "dataset": {"views": paths["views"], "labels": paths["labels"]},
        "clusters": 3,
        "mask": {"protocol": "random-missing", "rates": [0.3], "repeats": 2},
        "solver": {
            "lam": [1.0],
            "beta": [0.001],
            "r": [3.0],
            "k": [5],
            "max_iter": 60,
        },
        "metrics": {"restarts": 4},
        "output": str(out),
        "master_seed": 7,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in raw:
            raw[key].update(value)
        else:
            raw[key] = value
    return ExperimentConfig.from_dict(raw)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# --------------------------------------------------------------------- sweeps


def test_single_trial_sweep(data_dir, tmp_path):
    root, paths = data_dir
    cfg = make_config(paths, tmp_path / "out", mask={"rates": [0.3], "repeats": 1})
    records = run_experiment(cfg)
    assert len(records) == 1
    rec = records[0]
    assert rec.n_trials == 1 and rec.n_failed == 0
    assert rec.acc_std == 0.0 and rec.nmi_std == 0.0
    out = write_results(records, cfg.output_dir, cfg)
    trials = read_rows(tmp_path / "out" / "trials.csv")
    aggregate = read_rows(tmp_path / "out" / "aggregate.csv")
    assert len(trials) == 1 and len(aggregate) == 1
    assert trials[0]["variant"] == "full"
    assert float(trials[0]["acc"]) == rec.trials[0].acc
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["n_failed"] == 0


def test_sweep_deterministic_across_runs(data_dir, tmp_path):
    root, paths = data_dir
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfg = make_config(paths, out)
        write_results(run_experiment(cfg), cfg.output_dir, cfg)
    # every output file is byte-stable, not just trials.csv
    for name in ("trials.csv", "aggregate.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # manifests agree except for the two deliberately different output dirs
    manifests = []
    for out in (out1, out2):
        m = json.loads((out / "manifest.json").read_text())
        m["config"].pop("output_dir")
        manifests.append(m)
    assert manifests[0] == manifests[1]


def test_sweep_threaded_matches_serial(data_dir, tmp_path):
    root, paths = data_dir
    cfg1 = make_config(paths, tmp_path / "serial")
    write_results(run_experiment(cfg1, workers=1), cfg1.output_dir, cfg1)
    cfg2 = make_config(paths, tmp_path / "threaded")
    write_results(run_experiment(cfg2, workers=3), cfg2.output_dir, cfg2)
    assert (tmp_path / "serial" / "trials.csv").read_bytes() == (
        tmp_path / "threaded" / "trials.csv"
    ).read_bytes()


def test_aggregate_mean_recomputed_from_trials(data_dir, tmp_path):
    root, paths = data_dir
    cfg = make_config(paths, tmp_path / "out", mask={"rates": [0.3], "repeats": 5})
    records = run_experiment(cfg)
    write_results(records, cfg.output_dir, cfg)
    trials = read_rows(tmp_path / "out" / "trials.csv")
    aggregate = read_rows(tmp_path / "out" / "aggregate.csv")[0]
    for metric in ("acc", "nmi", "purity"):
        mean = np.mean([float(t[metric]) for t in trials])
        assert abs(mean - float(aggregate[f"{metric}_mean"])) <= 1e-12


def test_mask_seeds_shared_across_grid_points(data_dir, tmp_path):
    root, paths = data_dir
    cfg = make_config(
        paths, tmp_path / "out",
        solver={"lam": [0.5, 2.0], "beta": [0.001], "r": [3.0], "k": [5], "max_iter": 30},
    )
    records = run_experiment(cfg)
    assert len(records) == 2
    for t1, t2 in zip(records[0].trials, records[1].trials):
        assert t1.mask_seed == t2.mask_seed  # same masks, different grid point
        assert t1.solver_seed != t2.solver_seed


def test_failed_trials_recorded_and_sweep_continues(data_dir, tmp_path):
    root, paths = data_dir
    cfg = make_config(
        paths, tmp_path / "out",
        solver={"lam": [1.0], "beta": [0.001], "r": [3.0], "k": [5, 40], "max_iter": 30},
    )
    records = run_experiment(cfg)
    write_results(records, cfg.output_dir, cfg)
    good = [r for r in records if r.n_failed == 0]
    bad = [r for r in records if r.n_failed > 0]
    assert len(good) == 1 and len(bad) == 1
    assert all("k must satisfy" in t.error for t in bad[0].trials)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["n_failed"] == 2
    assert len(manifest["failed_runs"]) == 2
    rows = read_rows(tmp_path / "out" / "trials.csv")
    assert sum(1 for row in rows if row["error"]) == 2


def test_a_diverging_fit_fails_alone_in_its_batch(data_dir, tmp_path):
    # each group runs lam = 1.0 and lam = 1e308 as one batch; the second
    # overflows in the codes step the batch shares (see test_lockstep.py for
    # why that raises no RuntimeWarning), and the first must not notice
    root, paths = data_dir
    solver = {"lam": [1.0, 1e308], "beta": [0.001], "r": [3.0], "k": [5], "max_iter": 30}
    cfg = make_config(paths, tmp_path / "both", solver=solver)
    both = [t for rec in run_experiment(cfg, keep_states=True) for t in rec.trials]
    cfg = make_config(paths, tmp_path / "alone", solver={**solver, "lam": [1.0]})
    alone = [t for rec in run_experiment(cfg, keep_states=True) for t in rec.trials]
    assert [t.error for t in both if t.lam == 1e308] == [
        "ArithmeticError: objective diverged to nan at iteration 1"
    ] * 2
    kept = [t for t in both if t.lam == 1.0]
    assert len(kept) == len(alone) == 2
    for t, a in zip(kept, alone):
        assert not t.error and (t.acc, t.nmi, t.iterations) == (a.acc, a.nmi, a.iterations)
        assert t.state.objective_trace.tobytes() == a.state.objective_trace.tobytes()
        assert t.state.consensus.tobytes() == a.state.consensus.tobytes()


def test_a_trial_whose_kmeans_fails_carries_the_error_alone(data_dir, tmp_path, monkeypatch):
    # each (rate, repeat) group is one chunk of two trials; the second
    # trial's k-means raises, and the first keeps the scores it has alone
    root, paths = data_dir
    solver = {"lam": [0.5, 2.0], "beta": [0.001], "r": [3.0], "k": [5], "max_iter": 30}
    cfg = make_config(paths, tmp_path / "out", solver=solver)
    clean = [t for rec in run_experiment(cfg) for t in rec.trials]
    real = imvc.harness.evaluate_clustering
    calls = []

    def evaluate(representation, true_labels, **kwargs):
        calls.append(kwargs["seed"])
        if len(calls) % 2 == 0:
            raise ValueError("k-means could not run")
        return real(representation, true_labels, **kwargs)

    monkeypatch.setattr(imvc.harness, "evaluate_clustering", evaluate)
    trials = [t for rec in run_experiment(cfg) for t in rec.trials]
    assert len(calls) == len(trials) == len(clean) == 4
    for t, c in zip(trials, clean):
        assert t.run_id == c.run_id
        if t.lam == 2.0:
            assert t.error == "ValueError: k-means could not run"
            assert (t.acc, t.nmi, t.purity, t.iterations) == (None, None, None, 0)
        else:
            assert not t.error and (t.acc, t.nmi, t.purity) == (c.acc, c.nmi, c.purity)
            assert t.iterations == c.iterations > 0


def test_each_group_is_one_fit_call(data_dir, tmp_path, monkeypatch):
    root, paths = data_dir
    batches = []
    real = imvc.harness.fit

    def recorded(ds, graphs, cfgs, **kwargs):
        batches.append(sorted((cfg.lam, cfg.r) for cfg in cfgs))
        return real(ds, graphs, cfgs, **kwargs)

    monkeypatch.setattr(imvc.harness, "fit", recorded)
    solver = {"lam": [0.5, 2.0], "beta": [0.001], "r": [2.0, 3.0], "k": [5], "max_iter": 20}
    run_experiment(make_config(paths, tmp_path / "out", solver=solver))
    grid = [(0.5, 2.0), (0.5, 3.0), (2.0, 2.0), (2.0, 3.0)]
    assert batches == [grid, grid]  # one per (rate, repeat) group


def test_trial_wall_times_add_up_to_their_chunk(data_dir, tmp_path, monkeypatch):
    root, paths = data_dir
    chunks = []
    real = imvc.harness._run_trial

    def timed(*args):
        start = time.perf_counter()
        done = real(*args)
        chunks.append((time.perf_counter() - start, [t.wall_seconds for t in done]))
        return done

    monkeypatch.setattr(imvc.harness, "_run_trial", timed)
    solver = {"lam": [0.5, 2.0], "beta": [0.001], "r": [2.0, 3.0], "k": [5], "max_iter": 20}
    run_experiment(make_config(paths, tmp_path / "out", solver=solver))
    assert len(chunks) == 2
    for elapsed, walls in chunks:
        assert len(walls) == 4 and min(walls) > 0.0
        assert 0.9 * elapsed <= sum(walls) <= elapsed


def test_sweep_builds_mask_and_graphs_once_per_chunk(data_dir, tmp_path, monkeypatch):
    root, paths = data_dir
    log = tmp_path / "builds.log"
    build = imvc.harness.build_fused_graphs

    def counted(*args, **kwargs):
        # an O_APPEND file, as forked workers cannot append to the test's lists
        with open(log, "a") as fh:
            fh.write(f"{kwargs['k']}\n")
        return build(*args, **kwargs)

    monkeypatch.setattr(imvc.harness, "build_fused_graphs", counted)
    lam = [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
    solver = {"lam": lam, "beta": [0.001], "r": [2.0, 3.0], "k": [3, 5], "max_iter": 20}
    outputs = []
    for workers in (1, 2, 3):
        log.write_text("")
        out = tmp_path / f"workers{workers}"
        cfg = make_config(paths, out, mask={"rates": [0.2, 0.4], "repeats": 1}, solver=solver)
        write_results(run_experiment(cfg, workers=workers), cfg.output_dir, cfg)
        builds = len(log.read_text().split())
        # 4 (rate, repeat, k) groups of 18 trials for the sweep's 72: each
        # group splits into ceil(18 / 16) = 2 chunks at any workers, and
        # each chunk builds once
        groups = len(cfg.rates) * cfg.repeats * len(cfg.knn_grid)
        assert builds == groups * 2
        outputs.append([(out / name).read_bytes() for name in ("trials.csv", "aggregate.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_sweep_deals_each_group_into_strided_chunks(data_dir, tmp_path, monkeypatch):
    root, paths = data_dir
    log = tmp_path / "chunks.log"
    real = imvc.harness._run_trial

    def logged(*args):
        # an O_APPEND file, as forked workers cannot append to the test's lists
        with open(log, "a") as fh:
            fh.write(" ".join(t.run_id for t in args[-1]) + "\n")  # the chunk
        return real(*args)

    monkeypatch.setattr(imvc.harness, "_run_trial", logged)
    # one group of 33 trials, in rows g000-g032, and one of 16, in g000-g015
    lam = [0.1 * 1.5**i for i in range(33)]
    solver = {"lam": lam, "beta": [0.001], "r": [3.0], "k": [5], "max_iter": 20}
    for trials, want in (
        (33, {frozenset(range(j, 33, 3)) for j in range(3)}),  # ceil(33 / 16) = 3
        (16, {frozenset(range(16))}),
    ):
        solver["lam"] = lam[:trials]
        cfg = make_config(paths, tmp_path / "out", mask={"repeats": 1}, solver=solver)
        for workers in (1, 2, 3):
            log.write_text("")
            run_experiment(cfg, workers=workers)
            chunks = {
                frozenset(int(run_id.split("-")[1][1:]) for run_id in line.split())
                for line in log.read_text().splitlines()
            }
            assert chunks == want


def test_sweep_runs_groups_in_sorted_order(data_dir, tmp_path, monkeypatch):
    # rates and k given out of order: the groups run in sorted (rate, repeat,
    # k) order, not in the order their first rows are made, and the rows come
    # back in row order
    root, paths = data_dir
    log = []
    real = imvc.harness._run_trial

    def logged(*args):
        log.append({(t.rate, t.repeat, t.k) for t in args[-1]})  # the chunk
        return real(*args)

    monkeypatch.setattr(imvc.harness, "_run_trial", logged)
    solver = {"lam": [0.5, 2.0], "beta": [0.001], "r": [3.0], "k": [5, 3], "max_iter": 20}
    cfg = make_config(paths, tmp_path / "out", mask={"rates": [0.5, 0.1]}, solver=solver)
    records = run_experiment(cfg)
    assert log == [{(rate, rep, k)} for rate in (0.1, 0.5) for rep in (0, 1) for k in (3, 5)]
    rows = [(t.k, t.lam, t.rate, t.repeat) for rec in records for t in rec.trials]
    assert rows == [
        (k, lam, rate, rep)
        for lam in (0.5, 2.0)
        for k in (5, 3)
        for rate in (0.5, 0.1)
        for rep in (0, 1)
    ]


def test_failed_group_build_gives_each_trial_its_error(data_dir, tmp_path):
    root, paths = data_dir
    solver = {"lam": [0.5, 2.0], "beta": [0.001], "r": [3.0], "k": [5, 40, 22], "max_iter": 30}
    # the texts each trial recorded when every trial built its own graphs
    want = {
        ("5", "0"): "",
        ("5", "1"): "",
        ("40", "0"): "ValueError: k must satisfy 1 <= k < n_available=21, got 40",
        ("40", "1"): "ValueError: k must satisfy 1 <= k < n_available=23, got 40",
        ("22", "0"): "ValueError: k must satisfy 1 <= k < n_available=21, got 22",
        ("22", "1"): "ValueError: k must satisfy 1 <= k < n_available=22, got 22",
    }
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"workers{workers}"
        cfg = make_config(paths, out, solver=solver)
        write_results(run_experiment(cfg, workers=workers), cfg.output_dir, cfg)
        with open(out / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))  # the error texts hold commas
        assert len(rows) == 12
        for row in rows:
            assert row["error"] == want[row["k"], row["repeat"]]
        outputs.append([(out / name).read_bytes() for name in ("trials.csv", "aggregate.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_worker_processes_return_the_serial_states(data_dir, tmp_path):
    root, paths = data_dir
    solver = {"lam": [0.5, 2.0], "beta": [0.001], "r": [3.0], "k": [5], "max_iter": 30}
    cfg = make_config(paths, tmp_path / "out", solver=solver)
    serial, pooled = (
        [t for rec in run_experiment(cfg, workers=w, keep_states=True) for t in rec.trials]
        for w in (1, 2)
    )
    assert [t.run_id for t in pooled] == [t.run_id for t in serial]
    for s, p in zip(serial, pooled):
        assert p.state is not None
        assert np.array_equal(p.state.objective_trace, s.state.objective_trace)
        assert np.array_equal(p.state.consensus, s.state.consensus)


def _forks_needed():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the platform has no fork: every job runs in the calling process")


def test_without_fork_the_chunks_run_in_this_process(data_dir, tmp_path, monkeypatch):
    # where the platform has no fork, no worker is spawned instead: the
    # calling process runs the chunks (and reads the files) itself
    root, paths = data_dir
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    started = []

    def fork():
        started.append("fork")
        raise AssertionError("os.fork was called")

    def start(process):
        started.append(process)
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    outputs = []
    for workers in (1, 2):
        cfg = make_config(paths, tmp_path / f"workers{workers}", metrics={"restarts": 1})
        write_results(run_experiment(cfg, workers=workers), cfg.output_dir, cfg)
        outputs.append((tmp_path / f"workers{workers}" / "trials.csv").read_bytes())
    assert started == []
    assert outputs[0] == outputs[1]


def _rows(records):
    return [[getattr(t, name) for name in _TRIAL_COLUMNS] for rec in records for t in rec.trials]


def test_a_daemon_process_runs_the_chunks_itself(data_dir, tmp_path):
    # a daemon process may start no children: a pool worker runs a sweep of
    # two workers in itself and returns the serial rows
    _forks_needed()
    root, paths = data_dir
    solver = {"lam": [0.5, 2.0], "beta": [0.001], "r": [3.0], "k": [5], "max_iter": 30}
    cfg = make_config(paths, tmp_path / "out", solver=solver)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        pooled = pool.apply(run_experiment, (cfg,), {"workers": 2})
    assert _rows(pooled) == _rows(run_experiment(cfg))


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS in this process, or None where
    numpy bundles none."""
    libs = Path(np.__file__).parent.parent.glob("numpy.libs/*scipy_openblas*")
    for lib in sorted(libs):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter()
    return None


@pytest.mark.parametrize(
    "full, clusters, solver",
    [
        # big enough that OpenBLAS would thread the graph screen and the
        # solver's products (m n_v c above its 2^18 threshold) ...
        (
            multiview_blobs(n=360, n_clusters=6, dims=(100, 240), noise=0.6, seed=5),
            6,
            {"r": [2.0, 3.0, 5.0], "max_iter": 10},
        ),
        # ... and the cost's dot products (n_v c above 10^4)
        (multiview_blobs(n=1600, n_clusters=10, dims=(20, 30), seed=5), 10, {"max_iter": 5}),
    ],
    ids=["products", "dots"],
)
def test_workers_output_does_not_depend_on_their_blas_threads(tmp_path, full, clusters, solver):
    # every trial runs at one OpenBLAS thread, on the calling process's CPUs
    # or on a worker's share of them: the trials and every fit's traces are
    # the same at any number of workers
    paths = save_dataset(full, tmp_path / "data")
    outputs, traces = [], []
    for workers in (1, 2, 3):
        out = tmp_path / f"workers{workers}"
        cfg = make_config(paths, out, clusters=clusters, solver=solver, metrics={"restarts": 2})
        records = run_experiment(cfg, workers=workers, keep_states=True)
        write_results(records, cfg.output_dir, cfg)
        outputs.append((out / "trials.csv").read_bytes())
        names = ("objective_trace", "cost_trace", "weight_trace")
        trials = [t for rec in records for t in rec.trials]
        traces.append([[getattr(t.state, name).tobytes() for name in names] for t in trials])
    assert outputs[0] == outputs[1] == outputs[2]
    assert traces[0] == traces[1] == traces[2]
    assert all(not row["error"] for row in read_rows(tmp_path / "workers1" / "trials.csv"))


def _log_blas_threads(monkeypatch, module, name, log):
    """Wrap module.name so that each call, once it returns, appends its
    process's id, BLAS threads and threads to log: an O_APPEND file, as
    forked workers cannot append to the test's lists."""
    real = getattr(module, name)

    def logged(*args, **kwargs):
        result = real(*args, **kwargs)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {_blas_threads()} {len(os.listdir('/proc/self/task'))}\n")
        return result

    monkeypatch.setattr(module, name, logged)


def test_workers_take_their_share_of_blas_threads(tmp_path, monkeypatch):
    # the 3 chunks of 3 one-trial groups, each in one of 3 forked workers
    # on 3 usable CPUs (the CSV files are read in the calling process): every
    # worker inherits the sweep's one OpenBLAS thread and, on a share of 1
    # CPU, runs no thread but its own; one that set the count itself would
    # restart OpenBLAS's thread pool
    if _blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS with scipy_openblas symbols")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count a process's threads")
    _forks_needed()
    paths = save_csv_dataset(_blobs(), tmp_path / "csv")
    threads = _blas_threads()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    log = tmp_path / "threads.log"
    _log_blas_threads(monkeypatch, imvc.harness, "_run_trial", log)
    solver = {"lam": [1.0], "beta": [0.001], "r": [3.0], "k": [5], "max_iter": 20}
    cfg = make_config(paths, tmp_path / "out", mask={"repeats": 3}, solver=solver)
    run_experiment(cfg, workers=3)
    workers = [line.split() for line in log.read_text().splitlines()]
    assert len({pid for pid, _, _ in workers}) == 3  # one chunk per sweep worker
    assert str(os.getpid()) not in {pid for pid, _, _ in workers}
    assert [(blas, tasks) for _, blas, tasks in workers] == [("1", "1")] * 3
    assert _blas_threads() == threads  # the calling process keeps its own
    assert multiprocessing.active_children() == []


def test_a_lone_trial_runs_on_its_cpus_at_one_blas_thread(data_dir, tmp_path, monkeypatch):
    # one worker on 3 usable CPUs: each trial's graph build, fit and k-means
    # run on 3 threads, the calling one and 2 helpers, at one OpenBLAS
    # thread; no helper outlives its trial, and the caller keeps its count
    if _blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS with scipy_openblas symbols")
    root, paths = data_dir
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    threads, helpers, seen = _blas_threads(), [], []

    class Helpers(imvc.dataset.ThreadPoolExecutor):
        def __init__(self, max_workers):
            helpers.append(max_workers)
            super().__init__(max_workers)

    real = imvc.harness._run_trial

    def trial(*args):
        before = threading.active_count()
        done = real(*args)
        seen.append((_blas_threads(), threading.active_count() - before))
        return done

    monkeypatch.setattr(imvc.dataset, "ThreadPoolExecutor", Helpers)
    monkeypatch.setattr(imvc.harness, "_run_trial", trial)
    run_experiment(make_config(paths, tmp_path / "out", mask={"repeats": 1}))
    assert seen == [(1, 0)]
    assert helpers == [2, 2, 2]  # graphs, fit, k-means
    assert _blas_threads() == threads


@pytest.fixture
def forks(monkeypatch):
    """The processes forked."""
    _forks_needed()
    forked = []
    real = os.fork

    def fork():
        forked.append(True)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forked


def test_an_npy_load_leaves_the_sweep_one_pool(data_dir, tmp_path, monkeypatch, forks):
    # the data files, .npy or CSV, are read in the calling process: a sweep
    # forks only its chunks' workers, and sets the caller's OpenBLAS threads
    # once, to the sweep's one, and once back
    root, paths = data_dir
    csv = save_csv_dataset(_blobs(), tmp_path / "csv")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    sets = []
    real_blas = imvc.harness._blas_threads

    def blas(threads=None):
        sets.append(threads)
        return real_blas(threads)

    monkeypatch.setattr(imvc.harness, "_blas_threads", blas)
    for data in (paths, csv):
        del forks[:]
        del sets[:]
        run_experiment(make_config(data, tmp_path / "out"), workers=2)
        assert len(forks) == 2 and len(sets) == 2


def _square_late(threads, i):
    # the later an item of 5, the sooner it ends: results come back out of
    # item order
    time.sleep(0.02 * (5 - i))
    return i * i


def _fail_1_and_3(threads, i):
    square = _square_late(threads, i)
    if i in (1, 3):
        raise ValueError(f"item {i} failed")
    return square


@pytest.mark.parametrize("processes", [1, 3])
def test_in_workers_gives_results_and_the_first_error_in_job_order(forks, processes):
    assert in_workers(_square_late, range(5), processes) == [i * i for i in range(5)]
    assert len(forks) == (processes if processes > 1 else 0)
    with pytest.raises(ValueError, match="item 1 failed"):
        in_workers(_fail_1_and_3, range(5), processes)
    assert multiprocessing.active_children() == []


def _threads(threads, item):
    return threads


def test_each_process_gets_an_even_share_of_the_usable_cpus(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    # (processes asked for, items): no more processes than items, at least 1 CPU
    shares = {(1, 1): 6, (2, 10): 3, (4, 2): 3, (4, 10): 1, (8, 10): 1, (3, 1): 6}
    for (processes, items), share in shares.items():
        assert in_workers(_threads, range(items), processes) == [share] * items
    # without fork the items run in this process, on every usable CPU
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    del forks[:]
    assert in_workers(_threads, range(10), 2) == [6] * 10
    assert forks == [] and multiprocessing.active_children() == []


@pytest.mark.parametrize("processes", [1, 2])
def test_in_workers_runs_every_item_at_one_blas_thread(forks, processes):
    if _blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS with scipy_openblas symbols")
    threads = _blas_threads()
    assert in_workers(lambda threads, item: _blas_threads(), range(3), processes) == [1] * 3
    assert _blas_threads() == threads


def test_one_blas_thread_puts_the_callers_count_back_after_an_error():
    if _blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS with scipy_openblas symbols")
    threads = _blas_threads()
    imvc.harness._blas_threads(2)
    try:
        with pytest.raises(ValueError, match="inside"):
            with one_blas_thread():
                assert _blas_threads() == 1
                raise ValueError("inside")
        assert _blas_threads() == 2
    finally:
        imvc.harness._blas_threads(threads)
    assert _blas_threads() == threads


def test_a_worker_that_dies_is_an_error_and_leaves_no_process(forks):
    threads = _blas_threads()
    with pytest.raises(RuntimeError, match="ended before job 1 was done"):
        in_workers(lambda threads, item: os._exit(3) if item else "done", [0, 1], 2)
    assert len(forks) == 2 and multiprocessing.active_children() == []
    assert _blas_threads() == threads


def _refuse():
    raise ValueError("this result cannot be unpickled")


class _Refused:
    def __reduce__(self):
        return _refuse, ()


def test_an_error_while_collecting_stops_every_worker(forks):
    # job 0's result fails to unpickle in the parent while the other workers
    # wait for their next job; no worker may be left waiting, nor the parent
    # on it: the test fails by alarm after 60 s rather than hang

    def alarm(signum, frame):
        # not an OSError, which the join's waitpid would swallow
        pytest.fail("the workers were not stopped")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(60)
    try:
        with pytest.raises(ValueError, match="cannot be unpickled"):
            in_workers(lambda threads, make: make(), [_Refused, lambda: 1, lambda: 2], 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        left = multiprocessing.active_children()
        for child in left:
            child.kill()
            child.join()
    assert left == []


@pytest.mark.parametrize("workers", [0, -2])
def test_sweep_rejects_fewer_than_one_worker(data_dir, tmp_path, workers):
    root, paths = data_dir
    cfg = make_config(paths, tmp_path / "out")
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        run_experiment(cfg, workers=workers)


@pytest.mark.parametrize("workers", [2.5, "2", True], ids=["2.5", "str", "True"])
def test_sweep_names_workers_that_are_not_an_integer_before_any_load(tmp_path, workers):
    # 2.5 ran on 2 chunks and failed inside the pool on 4, "2" failed as
    # "'<' not supported", and True ran serially; the check comes before the
    # load, so a config whose files are missing fails on workers alone
    paths = {"views": [str(tmp_path / "view_0.npy")], "labels": str(tmp_path / "labels.npy")}
    cfg = make_config(paths, tmp_path / "out")
    with pytest.raises(ValueError, match=f"^workers must be an integer, got {workers!r}$"):
        run_experiment(cfg, workers=workers)


# --------------------------------------------------------------- output files


def _hand_trial(run_id, k, repeat, **result):
    return TrialOutcome(
        run_id=run_id, variant="no-sparsity", protocol="random-missing", rate=0.3,
        repeat=repeat, mask_seed=4611686018427387903, solver_seed=12, lam=0.1, beta=1e-05,
        r=2.0, k=k, gamma=1.0, **result,
    )


def test_write_results_csv_bytes(tmp_path):
    # the exact bytes of both files, from hand-built records: repr floats,
    # plain ints, None as an empty cell, one quoted error cell (its quotes
    # turned to apostrophes), and the NaN aggregates of a cell where every
    # trial failed; wall_seconds stays off the files
    records = [
        _aggregate([
            _hand_trial("a0", 5, 0, iterations=12, acc=0.75, nmi=0.1 + 0.2, purity=1.0,
                        wall_seconds=0.5),
            _hand_trial("a1", 5, 1, iterations=15, acc=0.5, nmi=0.2, purity=0.875),
            _hand_trial("a2", 5, 2, error='ValueError: k must satisfy "1 <= k < 21", got 30'),
        ]),
        _aggregate([
            _hand_trial("b0", 30, 0, error="ValueError: bad, worse"),
            _hand_trial("b1", 30, 1, error="ValueError: bad, worse"),
        ]),
    ]
    paths = write_results(records, tmp_path, ExperimentConfig(view_paths=("v.csv",)))
    seeds = "4611686018427387903,12"
    point = "0.1,1e-05,2.0"
    assert Path(paths["trials"]).read_bytes() == (
        "run_id,variant,protocol,rate,repeat,mask_seed,solver_seed,lam,beta,r,k,gamma,"
        "iterations,acc,nmi,purity,error\n"
        f"a0,no-sparsity,random-missing,0.3,0,{seeds},{point},5,1.0,12,0.75,0.30000000000000004,1.0,\n"
        f"a1,no-sparsity,random-missing,0.3,1,{seeds},{point},5,1.0,15,0.5,0.2,0.875,\n"
        f"a2,no-sparsity,random-missing,0.3,2,{seeds},{point},5,1.0,0,,,,"
        "\"ValueError: k must satisfy '1 <= k < 21', got 30\"\n"
        f"b0,no-sparsity,random-missing,0.3,0,{seeds},{point},30,1.0,0,,,,\"ValueError: bad, worse\"\n"
        f"b1,no-sparsity,random-missing,0.3,1,{seeds},{point},30,1.0,0,,,,\"ValueError: bad, worse\"\n"
    ).encode()
    assert Path(paths["aggregate"]).read_bytes() == (
        "variant,protocol,rate,lam,beta,r,k,gamma,n_trials,n_failed,acc_mean,acc_std,"
        "nmi_mean,nmi_std,purity_mean,purity_std,iterations_mean\n"
        f"no-sparsity,random-missing,0.3,{point},5,1.0,3,1,0.625,0.125,0.25,0.05000000000000002,"
        "0.9375,0.0625,13.5\n"
        f"no-sparsity,random-missing,0.3,{point},30,1.0,2,2,nan,nan,nan,nan,nan,nan,nan\n"
    ).encode()


# ------------------------------------------------------------------ ablations


def test_weight_ablation_single_view_matches_full(tmp_path):
    full = multiview_blobs(n=24, n_clusters=3, dims=(6,), noise=0.4, seed=5)
    paths = save_dataset(full, tmp_path / "data")
    cfg = make_config(
        paths, tmp_path / "out", mask={"protocol": "random-missing", "rates": [0.0], "repeats": 2}
    )
    full_records = run_experiment(cfg)
    ablated = run_experiment(cfg, ablation="weight")
    for fr, ar in zip(full_records, ablated):
        for ft, at in zip(fr.trials, ar.trials):
            assert ft.acc == at.acc and ft.nmi == at.nmi and ft.purity == at.purity
            assert ft.iterations == at.iterations


def test_sparsity_ablation_noop_when_beta_zero(data_dir, tmp_path):
    root, paths = data_dir
    cfg = make_config(
        paths, tmp_path / "out",
        solver={"lam": [1.0], "beta": [0.0], "r": [3.0], "k": [5], "max_iter": 40},
    )
    full_records = run_experiment(cfg)
    ablated = run_experiment(cfg, ablation="sparsity")
    for fr, ar in zip(full_records, ablated):
        for ft, at in zip(fr.trials, ar.trials):
            assert ft.acc == at.acc and ft.nmi == at.nmi and ft.purity == at.purity


def test_ablation_rows_carry_variant_label(data_dir, tmp_path):
    root, paths = data_dir
    cfg = make_config(paths, tmp_path / "out", mask={"rates": [0.3], "repeats": 1})
    records = run_experiment(cfg, ablation="graph")
    write_results(records, cfg.output_dir, cfg)
    rows = read_rows(tmp_path / "out" / "trials.csv")
    assert all(row["variant"] == "no-graph" for row in rows)


def test_graph_ablation_is_gamma_zero_and_needs_no_knn(data_dir, tmp_path):
    root, paths = data_dir
    # k = 29 leaves too few instances in the masked views for a kNN graph
    cfg = make_config(paths, tmp_path / "out", solver={"k": [29]})
    assert all(t.error for rec in run_experiment(cfg) for t in rec.trials)
    ablated = run_experiment(cfg, ablation="graph")
    plain = run_experiment(replace(cfg, gamma=0.0))
    for ar, pr in zip(ablated, plain, strict=True):
        for at, pt in zip(ar.trials, pr.trials, strict=True):
            assert not at.error and at.gamma == cfg.gamma
            assert (at.acc, at.nmi, at.purity, at.iterations) == (
                pt.acc, pt.nmi, pt.purity, pt.iterations
            )


def test_unknown_ablation_rejected(data_dir, tmp_path):
    root, paths = data_dir
    cfg = make_config(paths, tmp_path / "out")
    with pytest.raises(ValueError, match="unknown ablation"):
        run_experiment(cfg, ablation="everything")


# --------------------------------------------------------------------- traces


def test_trace_file_shape_and_roundtrip(data_dir, tmp_path):
    root, paths = data_dir
    cfg = make_config(paths, tmp_path / "out", mask={"rates": [0.3], "repeats": 1})
    records = run_experiment(cfg, keep_states=True)
    state = records[0].trials[0].state
    (path,) = write_traces(records, tmp_path / "traces")
    lines = Path(path).read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,e_0,e_1,alpha_0,alpha_1"
    assert len(lines) - 1 == state.n_iterations + 1
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == [float(v) for v in state.objective_trace]  # bit-exact roundtrip
    assert all(b <= a * (1 + 1e-9) for a, b in zip(values, values[1:]))


def test_write_traces_writes_failed_fits_too(data_dir, tmp_path):
    # at r=1e6 every a_v^r underflows to 0, so those fits fail in their first
    # sweep; each keeps its state, whose traces hold the initial one, and
    # writes its trace file, the same at 1 and 2 workers
    root, paths = data_dir
    cfg = make_config(paths, tmp_path / "out", solver={"r": [3.0, 1e6]})
    outputs = []
    for workers in (1, 2):
        records = run_experiment(cfg, workers=workers, keep_states=True)
        trials = [t for rec in records for t in rec.trials]
        assert [t.r for t in trials if t.error] == [1e6, 1e6]
        assert all("the consensus update is infeasible" in t.error for t in trials if t.error)
        written = write_traces(records, tmp_path / f"traces{workers}")
        assert [Path(p).name for p in written] == [f"trace_{t.run_id}.csv" for t in trials]
        for t, path in zip(trials, written):
            rows = Path(path).read_text().splitlines()[1:]  # iterations 0 .. n_iterations
            assert len(rows) == t.state.n_iterations + 1
            assert t.iterations == (0 if t.error else t.state.n_iterations)
            assert t.state.n_iterations == 0 or not t.error  # the failed fits end in sweep 1
        outputs.append([Path(p).read_bytes() for p in written])
    assert outputs[0] == outputs[1]


def test_trace_header_only_for_fresh_state(data_dir, tmp_path):
    full = multiview_blobs(n=20, n_clusters=2, dims=(4,), noise=0.3, seed=6)
    cfg = SolverConfig(lam=1.0, beta=0.01, r=2.0, n_components=2, seed=0)
    state = initialize(full, cfg)
    path = tmp_path / "empty.csv"
    write_trace(state, path)
    assert path.read_text() == "iteration,objective,e_0,alpha_0\n"


def test_trace_row_text(tmp_path):
    # the text of one row: the iteration as an int, every value as its repr
    state = SolverState(
        bases=(),
        codes=(),
        consensus=np.zeros((1, 2)),
        weights=np.array([0.1, 0.0]),
        objective_trace=np.array([0.1]),
        cost_trace=np.array([[1e-300, 0.0]]),
        weight_trace=np.array([[0.1, 0.0]]),
    )
    path = tmp_path / "trace.csv"
    write_trace(state, path)
    assert path.read_text() == (
        "iteration,objective,e_0,e_1,alpha_0,alpha_1\n0,0.1,1e-300,0.0,0.1,0.0\n"
    )


# --------------------------------------------------------------------- config


def test_config_defaults_and_unknown_keys(data_dir):
    root, paths = data_dir
    cfg = ExperimentConfig.from_dict(
        {"dataset": {"views": paths["views"], "labels": paths["labels"]}}
    )
    assert cfg.rates == (0.1, 0.3, 0.5)
    assert cfg.repeats == 5
    assert cfg.knn_grid == (5,)
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"dataset": {"views": ["x.csv"]}, "typo": 1})


def test_config_rejects_unknown_keys_in_sections():
    for section, key, value in (
        ("solver", "lamda", [5.0]),
        ("dataset", "lables", "labels.csv"),
        ("mask", "rate", [0.9]),
        ("metrics", "restart", 3),
    ):
        raw = {"dataset": {"views": ["x.csv"]}}
        raw.setdefault(section, {})[key] = value
        with pytest.raises(
            ValueError, match=f"unknown config keys in section '{section}': \\['{key}'\\]"
        ):
            ExperimentConfig.from_dict(raw)


def test_config_rates_default_to_the_protocol():
    # built directly or from a file, an unset rates takes the protocol's defaults
    for protocol, rates in (
        ("random-missing", (0.1, 0.3, 0.5)),
        ("paired-sample", (0.3, 0.5, 0.7)),
    ):
        assert ExperimentConfig(view_paths=("a",), protocol=protocol).rates == rates
        raw = {"dataset": {"views": ["a"]}, "mask": {"protocol": protocol}}
        assert ExperimentConfig.from_dict(raw).rates == rates
    assert ExperimentConfig(view_paths=("a",), rates=(0.2,)).rates == (0.2,)


def test_config_validation_errors():
    with pytest.raises(ValueError, match="at least one view"):
        ExperimentConfig(view_paths=())
    with pytest.raises(ValueError, match="empty lam grid"):
        ExperimentConfig(view_paths=("v.csv",), lam_grid=())
    with pytest.raises(ValueError, match="repeats"):
        ExperimentConfig(view_paths=("v.csv",), repeats=0)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("solver", "gamma", -1, "gamma must be non-negative, got -1"),
        ("solver", "k", [5, 0], "k must be at least 1, got 0"),
        ("solver", "lam", [1.0, 0.0], "lam must be positive, got 0.0"),
        ("solver", "beta", [-0.5], "beta must be non-negative, got -0.5"),
        ("solver", "r", [2.0, 1.0], "r must be greater than 1, got 1.0"),
        ("solver", "max_iter", 0, "max_iter must be at least 1, got 0"),
        ("solver", "tol", -1, "tol must be non-negative, got -1"),
        ("metrics", "restarts", 0, "restarts must be at least 1, got 0"),
        (None, "clusters", 0, "clusters must be at least 1, got 0"),
        (None, "clusters", -1, "clusters must be at least 1, got -1"),
        # integers are not truncated
        ("solver", "k", [5, 2.5], "k must be an integer, got 2.5"),
        ("mask", "repeats", 1.7, "repeats must be an integer, got 1.7"),
        ("solver", "max_iter", 10.5, "max_iter must be an integer, got 10.5"),
        ("metrics", "restarts", 3.5, "restarts must be an integer, got 3.5"),
        (None, "master_seed", 0.5, "master_seed must be an integer, got 0.5"),
        (None, "clusters", 2.5, "clusters must be an integer, got 2.5"),
        # two trials would share one run id and one trace file
        ("mask", "rates", [0.3, 0.3], "rates must be distinct, got [0.3, 0.3]"),
        # one cell run twice, under two run ids with one solver seed
        ("solver", "lam", [1.0, 1.0], "lam must be distinct, got [1.0, 1.0]"),
        # a value of the wrong type, named by its key
        ("mask", "repeats", True, "repeats must be an integer, got True"),
        ("solver", "beta", [True], "beta must be a finite number, got True"),
        ("solver", "r", [float("nan")], "r must be a finite number, got nan"),
        ("solver", "gamma", "1", "gamma must be a finite number, got '1'"),
        ("solver", "lam", 0.1, "lam must be a list, got 0.1"),
        ("mask", "rates", [-0.1], "rate must lie in [0, 1], got -0.1"),
        # names checked at load, not when the data is normalized or masked
        (
            "dataset",
            "normalize",
            "minmax",
            "normalize must be one of ('none', 'unit-l2-column', 'zscore-row'), got 'minmax'",
        ),
        (
            "mask",
            "protocol",
            "random",
            "protocol must be one of ('random-missing', 'paired-sample'), got 'random'",
        ),
    ],
)
def test_config_rejects_bad_values(section, key, value, message):
    # each of these used to pass the config and then fail every trial, or run
    # a truncated value, or run two trials under one run id
    raw = {"dataset": {"views": ["v.csv"]}}
    if section is None:
        raw[key] = value
    else:
        raw.setdefault(section, {})[key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_dict(raw)
    # the key's table row holds its rule, so direct construction says the same
    field = imvc.harness._CONFIG_KEYS[key][1]
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(view_paths=("v.csv",), **{field: value})


def test_config_table_sets_each_field_once():
    names = [name for _, name, _ in imvc.harness._CONFIG_KEYS.values()]
    assert sorted(names) == sorted(f.name for f in fields(ExperimentConfig))


def test_config_takes_integral_floats():
    raw = {
        "dataset": {"views": ["v.csv"]},
        "clusters": 3.0,
        "mask": {"repeats": 2.0},
        "solver": {"k": [5.0, 7], "max_iter": 40.0},
        "metrics": {"restarts": 4.0},
        "master_seed": 9.0,
    }
    cfg = ExperimentConfig.from_dict(raw)
    got = (cfg.n_components, cfg.repeats, *cfg.knn_grid, cfg.max_iter, cfg.kmeans_restarts,
           cfg.master_seed)
    assert got == (3, 2, 5, 7, 40, 4, 9)
    assert all(type(v) is int for v in got)


def test_config_from_file(data_dir, tmp_path):
    root, paths = data_dir
    raw = {
        "dataset": {"views": paths["views"], "labels": paths["labels"]},
        "mask": {"protocol": "paired-sample"},
        "master_seed": 9,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    cfg = ExperimentConfig.from_file(cfg_path)
    assert cfg.protocol == "paired-sample"
    assert cfg.rates == (0.3, 0.5, 0.7)  # paired defaults differ
    assert cfg.master_seed == 9


def test_experiments_require_labels(tmp_path):
    full = multiview_blobs(n=20, n_clusters=2, dims=(4,), noise=0.3, seed=8)
    unlabeled = type(full)(
        views=full.views, n=full.n, availability=full.availability, labels=None
    )
    paths = save_dataset(unlabeled, tmp_path / "data")
    cfg = make_config({**paths, "labels": None}, tmp_path / "out")
    with pytest.raises(ValueError, match="label file"):
        run_experiment(cfg)


# ---------------------------------------------------------------------- seeds


def test_derive_seed_stable_and_sensitive():
    assert derive_seed(1, "mask", 0.3, 0) == derive_seed(1, "mask", 0.3, 0)
    assert derive_seed(1, "mask", 0.3, 0) != derive_seed(1, "mask", 0.3, 1)
    assert derive_seed(1, "mask", 0.3, 0) != derive_seed(2, "mask", 0.3, 0)
    assert derive_seed(1, "mask", 0.3, 0) >= 0
