import csv
import json
import multiprocessing
import re
from dataclasses import replace

import numpy as np
import pytest

import imvc.harness
from imvc import (
    ExperimentConfig,
    initialize,
    run_ablation,
    run_experiment,
    save_dataset,
    write_results,
    write_traces,
)
from imvc.harness import derive_seed
from imvc.solver import SolverConfig, write_trace

from synthetic import multiview_blobs


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("blobs")
    full = multiview_blobs(n=30, n_clusters=3, dims=(5, 6), noise=0.4, seed=3)
    paths = save_dataset(full, root)
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


def test_sweep_builds_mask_and_graphs_once_per_group(data_dir, tmp_path, monkeypatch):
    root, paths = data_dir
    log = tmp_path / "builds.log"
    build = imvc.harness.build_fused_graphs

    def counted(*args, **kwargs):
        # an O_APPEND file, as forked workers cannot append to the test's lists
        with open(log, "a") as fh:
            fh.write(f"{kwargs['k']}\n")
        return build(*args, **kwargs)

    monkeypatch.setattr(imvc.harness, "build_fused_graphs", counted)
    solver = {"lam": [0.5, 2.0], "beta": [0.001], "r": [2.0, 3.0], "k": [3, 5], "max_iter": 20}
    outputs = []
    for workers in (1, 2, 3):
        log.write_text("")
        out = tmp_path / f"workers{workers}"
        cfg = make_config(paths, out, mask={"rates": [0.2, 0.4], "repeats": 2}, solver=solver)
        write_results(run_experiment(cfg, workers=workers), cfg.output_dir, cfg)
        builds = len(log.read_text().split())
        # 8 (rate, repeat, k) groups for the sweep's 32 trials: one build each
        # in-process, at most one per group and worker process otherwise
        groups = len(cfg.rates) * cfg.repeats * len(cfg.knn_grid)
        if workers == 1:
            assert builds == groups
        else:
            assert groups <= builds <= groups * workers
        outputs.append([(out / name).read_bytes() for name in ("trials.csv", "aggregate.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


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


def test_spawned_workers_match_serial(data_dir, tmp_path, monkeypatch):
    # where the platform has no fork, the workers are spawned
    root, paths = data_dir
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    outputs = []
    for workers in (1, 2):
        cfg = make_config(paths, tmp_path / f"workers{workers}", metrics={"restarts": 1})
        write_results(run_experiment(cfg, workers=workers), cfg.output_dir, cfg)
        outputs.append((tmp_path / f"workers{workers}" / "trials.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("workers", [0, -2])
def test_sweep_rejects_fewer_than_one_worker(data_dir, tmp_path, workers):
    root, paths = data_dir
    cfg = make_config(paths, tmp_path / "out")
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        run_experiment(cfg, workers=workers)


# ------------------------------------------------------------------ ablations


def test_weight_ablation_single_view_matches_full(tmp_path):
    full = multiview_blobs(n=24, n_clusters=3, dims=(6,), noise=0.4, seed=5)
    paths = save_dataset(full, tmp_path / "data")
    cfg = make_config(
        paths, tmp_path / "out", mask={"protocol": "random-missing", "rates": [0.0], "repeats": 2}
    )
    full_records = run_experiment(cfg)
    ablated = run_ablation(cfg, "weight")
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
    ablated = run_ablation(cfg, "sparsity")
    for fr, ar in zip(full_records, ablated):
        for ft, at in zip(fr.trials, ar.trials):
            assert ft.acc == at.acc and ft.nmi == at.nmi and ft.purity == at.purity


def test_ablation_rows_carry_variant_label(data_dir, tmp_path):
    root, paths = data_dir
    cfg = make_config(paths, tmp_path / "out", mask={"rates": [0.3], "repeats": 1})
    records = run_ablation(cfg, "graph")
    write_results(records, cfg.output_dir, cfg)
    rows = read_rows(tmp_path / "out" / "trials.csv")
    assert all(row["variant"] == "no-graph" for row in rows)


def test_graph_ablation_is_gamma_zero_and_needs_no_knn(data_dir, tmp_path):
    root, paths = data_dir
    # k = 29 leaves too few instances in the masked views for a kNN graph
    cfg = make_config(paths, tmp_path / "out", solver={"k": [29]})
    assert all(t.error for rec in run_experiment(cfg) for t in rec.trials)
    ablated = run_ablation(cfg, "graph")
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
        run_ablation(cfg, "everything")


# --------------------------------------------------------------------- traces


def test_trace_file_shape_and_roundtrip(data_dir, tmp_path):
    root, paths = data_dir
    cfg = make_config(paths, tmp_path / "out", mask={"rates": [0.3], "repeats": 1})
    records = run_experiment(cfg, keep_states=True)
    state = records[0].trials[0].state
    (path,) = write_traces(records, tmp_path / "traces")
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "iteration,objective,e_0,e_1,alpha_0,alpha_1"
    assert len(lines) - 1 == state.n_iterations + 1
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == [float(v) for v in state.objective_trace]  # bit-exact roundtrip
    assert all(b <= a * (1 + 1e-9) for a, b in zip(values, values[1:]))


def test_trace_header_only_for_fresh_state(data_dir, tmp_path):
    full = multiview_blobs(n=20, n_clusters=2, dims=(4,), noise=0.3, seed=6)
    cfg = SolverConfig(lam=1.0, beta=0.01, r=2.0, n_components=2, seed=0)
    state = initialize(full, cfg)
    path = tmp_path / "empty.csv"
    write_trace(state, path)
    assert path.read_text() == "iteration,objective,e_0,alpha_0\n"


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
    ],
)
def test_config_rejects_bad_values(section, key, value, message):
    # each of these used to pass the config and then fail every trial
    raw = {"dataset": {"views": ["v.csv"]}, section: {key: value}}
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_dict(raw)


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
