import json
from pathlib import Path

import numpy as np
import pytest

import imvc.cli
from imvc import save_dataset
from imvc.cli import main

from synthetic import multiview_blobs
from test_harness import read_rows


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    full = multiview_blobs(n=24, n_clusters=3, dims=(5, 6), noise=0.4, seed=4)
    paths = save_dataset(full, root / "data")
    config = {
        "dataset": {"views": paths["views"], "labels": paths["labels"]},
        "clusters": 3,
        "mask": {"protocol": "random-missing", "rates": [0.3], "repeats": 2},
        "solver": {"lam": [1.0], "beta": [0.001], "r": [3.0], "k": [5], "max_iter": 40},
        "metrics": {"restarts": 4},
        "output": str(root / "out"),
        "master_seed": 3,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    return root, cfg_path, paths


def test_cli_run(workspace, capsys):
    root, cfg_path, _ = workspace
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "trials.csv" in out and "2/2 trials succeeded" in out
    assert (root / "out" / "trials.csv").exists()
    assert (root / "out" / "aggregate.csv").exists()
    assert (root / "out" / "manifest.json").exists()


def test_cli_run_output_override(workspace, tmp_path):
    root, cfg_path, _ = workspace
    assert main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "x")]) == 0
    assert (tmp_path / "x" / "trials.csv").exists()


def test_cli_ablate(workspace, tmp_path, capsys):
    root, cfg_path, _ = workspace
    code = main(
        ["ablate", "--config", str(cfg_path), "--which", "graph",
         "--output", str(tmp_path / "abl")]
    )
    assert code == 0
    rows = (tmp_path / "abl" / "trials.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[1] == "no-graph" for row in rows)


def solver_copy(cfg_path, tmp_path, **solver):
    """A copy of the workspace config with these solver keys replaced."""
    config = json.loads(cfg_path.read_text())
    config["solver"].update(solver)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_cli_trace(workspace, tmp_path, capsys):
    # this fit meets tol at its 137th sweep, so it stops before max_iter
    root, cfg_path, _ = workspace
    code = main(
        ["trace", "--config", str(solver_copy(cfg_path, tmp_path, max_iter=300)),
         "--output", str(tmp_path / "tr"), "--rate", "0.3", "--lam", "2.0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged in" in out
    traces = list((tmp_path / "tr").glob("trace_*.csv"))
    assert [t.name for t in traces] == ["trace_full-g000-r0p3-t00.csv"]
    lines = traces[0].read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,e_0,e_1,alpha_0,alpha_1"
    assert len(lines) > 2
    assert f"converged in {len(lines) - 2} iterations;" in out


def test_cli_trace_says_when_it_stopped_at_max_iter(workspace, tmp_path, capsys):
    # at tol 0 the fit runs all its sweeps: that is no convergence
    _, cfg_path, _ = workspace
    capped = solver_copy(cfg_path, tmp_path, max_iter=2, tol=0)
    assert main(["trace", "--config", str(capped), "--output", str(tmp_path / "tr")]) == 0
    out = capsys.readouterr().out
    assert "stopped at max_iter=2; acc=" in out
    assert "converged" not in out


def test_cli_trace_of_a_failing_fit_says_so_and_exits_1(workspace, tmp_path, capsys):
    # at r=1e6 every view weight's a_v^r underflows to 0 in the first sweep
    _, cfg_path, _ = workspace
    out = tmp_path / "tr"
    assert main(["trace", "--config", str(cfg_path), "--output", str(out), "--r", "1e6"]) == 1
    printed = capsys.readouterr().out
    assert "trial failed: ValueError: sample " in printed
    assert "the consensus update is infeasible" in printed
    assert [t.name for t in out.glob("trace_*.csv")] == ["trace_full-g000-r0p3-t00.csv"]


def test_cli_run_seed_overrides_the_master_seed(workspace, tmp_path):
    _, cfg_path, _ = workspace
    assert main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "cfg")]) == 0
    argv = ["run", "--config", str(cfg_path), "--output", str(tmp_path / "s5"), "--seed", "5"]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "s5" / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 5
    assert json.loads((tmp_path / "cfg" / "manifest.json").read_text())["config"]["master_seed"] == 3
    seeded, configured = (read_rows(tmp_path / d / "trials.csv") for d in ("s5", "cfg"))
    assert [r["run_id"] for r in seeded] == [r["run_id"] for r in configured]
    for a, b in zip(seeded, configured):
        assert a["mask_seed"] != b["mask_seed"] and a["solver_seed"] != b["solver_seed"]


def test_cli_run_traces_writes_one_trace_file_per_trial(workspace, tmp_path):
    _, cfg_path, _ = workspace
    out = tmp_path / "tr"
    assert main(["run", "--config", str(cfg_path), "--output", str(out), "--traces"]) == 0
    run_ids = [row["run_id"] for row in read_rows(out / "trials.csv")]
    assert len(run_ids) == 2
    assert sorted(t.name for t in out.glob("trace_*.csv")) == [f"trace_{r}.csv" for r in run_ids]


def test_cli_run_workers_write_the_same_files(workspace, tmp_path):
    # two (rate, repeat) groups, so two chunks that two workers can share
    _, cfg_path, _ = workspace
    grid = solver_copy(cfg_path, tmp_path, lam=[0.5, 2.0])
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        assert main(["run", "--config", str(grid), "--output", str(out), "--workers", workers]) == 0
        outputs.append([(out / name).read_bytes() for name in ("trials.csv", "aggregate.csv")])
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") == 5  # the header and 4 trials


def test_cli_validate_data_good(workspace, capsys):
    root, cfg_path, paths = workspace
    argv = ["validate-data"]
    for v in paths["views"]:
        argv += ["--view", v]
    argv += ["--labels", paths["labels"]]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "OK: 2 views, 24 samples" in out
    assert "labels: 3 classes" in out


def test_cli_validate_data_bad(tmp_path, capsys):
    np.savetxt(tmp_path / "a.csv", np.ones((3, 10)), delimiter=",")
    np.savetxt(tmp_path / "b.csv", np.ones((3, 9)), delimiter=",")
    code = main(
        ["validate-data", "--view", str(tmp_path / "a.csv"), "--view", str(tmp_path / "b.csv")]
    )
    assert code == 1
    assert "INVALID" in capsys.readouterr().err


def test_cli_validate_data_needs_input(capsys):
    assert main(["validate-data"]) == 2


def test_cli_run_determinism_bytes(workspace, tmp_path):
    root, cfg_path, _ = workspace
    assert main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "r1")]) == 0
    assert main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1" / "trials.csv").read_bytes() == (
        tmp_path / "r2" / "trials.csv"
    ).read_bytes()


def test_cli_validate_data_config_checks_k_against_masks(workspace, tmp_path, capsys):
    root, cfg_path, _ = workspace
    assert main(["validate-data", "--config", str(cfg_path)]) == 0
    assert "OK: 2 views, 24 samples" in capsys.readouterr().out
    # a 30% mask leaves every view of the 24 samples with fewer than 24
    config = json.loads(cfg_path.read_text())
    config["solver"]["k"] = [5, 24]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["validate-data", "--config", str(bad)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert [line.split(":")[1] for line in lines] == [
        f" rate 0.3, repeat {rep}, view {v}" for rep in (0, 1) for v in (0, 1)
    ]
    assert all(line.startswith("INVALID: ") and "k=24" in line for line in lines)
    config["solver"]["gamma"] = 0.0  # identity graphs: no neighbor search
    bad.write_text(json.dumps(config))
    assert main(["validate-data", "--config", str(bad)]) == 0


def test_cli_validate_data_config_checks_clusters_against_features(workspace, tmp_path, capsys):
    root, cfg_path, _ = workspace
    config = json.loads(cfg_path.read_text())
    bad = tmp_path / "bad.json"
    # the 5- and 6-feature views cannot hold 6 or 7 clusters, with or
    # without graphs: every trial of `run` would fail
    for clusters, gamma in ((6, 1.0), (7, 1.0), (6, 0.0)):
        config["clusters"], config["solver"]["gamma"] = clusters, gamma
        bad.write_text(json.dumps(config))
        assert main(["validate-data", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"INVALID: view {v}: {m} features, fewer than the {clusters} clusters"
            for v, m in enumerate((5, 6))
            if m < clusters
        ]
    # with no configured clusters, the labels' 3 classes count
    full = multiview_blobs(n=24, n_clusters=3, dims=(2, 6), noise=0.4, seed=4)
    paths = save_dataset(full, tmp_path / "narrow")
    del config["clusters"]
    config["dataset"] = {"views": paths["views"], "labels": paths["labels"]}
    bad.write_text(json.dumps(config))
    assert main(["validate-data", "--config", str(bad)]) == 1
    assert capsys.readouterr().err == "INVALID: view 0: 2 features, fewer than the 3 clusters\n"


def test_cli_validate_data_rejects_bad_config_values(workspace, tmp_path, capsys):
    root, cfg_path, _ = workspace
    config = json.loads(cfg_path.read_text())
    config["metrics"]["restarts"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["validate-data", "--config", str(bad)]) == 1
    assert capsys.readouterr().err == "INVALID: restarts must be at least 1, got 0\n"


@pytest.mark.parametrize("command", [["run"], ["ablate", "--which", "weight"]])
def test_cli_exit_status_is_1_when_no_trial_succeeds(workspace, tmp_path, capsys, command):
    root, cfg_path, _ = workspace
    config = json.loads(cfg_path.read_text())
    # a 30% mask leaves fewer than 24 instances per view, so k=24 fails
    config["solver"]["k"] = [5, 24]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(config))
    argv = command + ["--config", str(partial), "--output", str(tmp_path / "partial")]
    assert main(argv) == 0
    assert "2/4 trials succeeded" in capsys.readouterr().out
    config["solver"]["k"] = [24]
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(config))
    argv = command + ["--config", str(failing), "--output", str(tmp_path / "failing")]
    assert main(argv) == 1
    assert "0/2 trials succeeded" in capsys.readouterr().out
    assert len((tmp_path / "failing" / "trials.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("command", [["run"], ["ablate", "--which", "weight"], ["trace"]])
def test_cli_reports_a_rejected_config_in_one_line(workspace, tmp_path, capsys, command):
    root, cfg_path, _ = workspace
    config = json.loads(cfg_path.read_text())
    config["mask"]["repeats"] = 1.7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    argv = command + ["--config", str(bad), "--output", str(tmp_path / "x")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "INVALID: repeats must be an integer, got 1.7\n"
    # the one-trial values trace takes from the command line are checked too
    if command == ["trace"]:
        assert main(["trace", "--config", str(cfg_path), "--k", "0"]) == 1
        assert capsys.readouterr().err == "INVALID: k must be at least 1, got 0\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["run", "validate-data"])
@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("solver", "lam", ["x"], "lam must be a finite number, got 'x'"),
        ("solver", "lam", [None], "lam must be a finite number, got None"),
        ("solver", "tol", None, "tol must be a finite number, got None"),
        ("mask", "rates", ["0.3"], "rates must be a finite number, got '0.3'"),
        # rates that would fail every trial
        ("mask", "rates", [1.5], "rate must lie in [0, 1], got 1.5"),
        ("mask", "rates", [1.0], "random-missing rate must be below 1"),
        # a grid value given twice would run its cells twice
        ("solver", "k", [5, 5], "k must be distinct, got [5, 5]"),
        # paths: a number is not opened, and one string is not split into
        # one path per character
        (None, "output", 5, "output must be a path, got 5"),
        ("dataset", "labels", 3, "labels must be a path, got 3"),
        ("dataset", "views", "view_0.csv", "views must be a list, got 'view_0.csv'"),
        ("dataset", "views", [7], "views must be a path, got 7"),
        ("dataset", "availability", "a.csv", "availability must be a list, got 'a.csv'"),
        ("dataset", "availability", [None], "availability must be a path, got None"),
        # before run makes its output directory, not when the data is normalized
        ("dataset", "normalize", "minmax", "normalize must be one of"),
    ],
)
def test_cli_reports_a_bad_config_value_in_one_line(
    workspace, tmp_path, capsys, command, section, key, value, message
):
    root, cfg_path, _ = workspace
    config = json.loads(cfg_path.read_text())
    (config[section] if section else config)[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    argv = [command, "--config", str(bad)]
    if command == "run":
        argv += ["--output", str(tmp_path / "x")]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"INVALID: {message}")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", [["run"], ["ablate", "--which", "weight"]])
@pytest.mark.parametrize("workers", ["0", "-2", "x"])
def test_cli_rejects_fewer_than_one_worker(workspace, tmp_path, capsys, command, workers):
    # a usage error, as argparse gives it: exit status 2 and no traceback
    root, cfg_path, _ = workspace
    argv = command + ["--config", str(cfg_path), "--output", str(tmp_path / "x")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--workers", workers])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --workers: must be an integer of at least 1, got '{workers}'" in err
    assert not (tmp_path / "x").exists()


def test_cli_trace_has_no_sweep_flags(workspace, tmp_path, capsys):
    # trace runs one trial in the calling process and always writes its trace
    root, cfg_path, _ = workspace
    for flag in (["--workers", "2"], ["--traces"]):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--config", str(cfg_path), "--output", str(tmp_path / "t")] + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize(
    "command", [["run"], ["ablate", "--which", "weight"], ["trace"], ["validate-data"]]
)
def test_cli_reports_a_bad_data_file_in_one_line(workspace, tmp_path, capsys, command):
    root, cfg_path, paths = workspace
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("1,2,x\n")
    truncated = tmp_path / "truncated.npy"
    truncated.write_bytes(Path(paths["views"][1]).read_bytes()[:-8])
    config = json.loads(cfg_path.read_text())
    configs = {
        "nope.json": None,
        "missing-view.json": {"views": [str(tmp_path / "missing.csv")]},
        "garbled-view.json": {"views": [str(garbled)]},
        "truncated-view.json": {"views": [paths["views"][0], str(truncated)]},
        "no-labels.json": {"labels": None},
    }
    expected = {
        "nope.json": "No such file or directory",
        "missing-view.json": "missing.csv not found",
        "garbled-view.json": "could not parse",
        "truncated-view.json": f"{truncated}: could not parse as a .npy matrix",
        "no-labels.json": "experiments need a label file for scoring",
    }
    for name, dataset in configs.items():
        if dataset is not None:
            (tmp_path / name).write_text(
                json.dumps({**config, "dataset": {**config["dataset"], **dataset}})
            )
        argv = command + ["--config", str(tmp_path / name)]
        if command != ["validate-data"]:
            argv += ["--output", str(tmp_path / "x")]
        assert main(argv) == 1, name
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("INVALID: ") and expected[name] in line, line
    if command == ["validate-data"]:
        for view in (tmp_path / "missing.csv", garbled, truncated):
            assert main(["validate-data", "--view", str(view)]) == 1
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("INVALID: ") and view.name in line, line
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "content",
    ["0\n1\nx\n", "", "2\n1\n0\n", "0\n1\n1\n", "-1\n0\n1\n", "0,1\n2,3\n", "0,1,2\n"],
    ids=["garbled", "empty", "descending", "duplicate", "negative", "two-column", "one-row"],
)
def test_cli_names_a_bad_availability_sidecar(workspace, tmp_path, capsys, content):
    root, cfg_path, paths = workspace
    sidecar = tmp_path / "bad.avail"
    sidecar.write_text(content)
    config = json.loads(cfg_path.read_text())
    config["dataset"]["availability"] = [paths["availability"][0], str(sidecar)]
    (tmp_path / "config.json").write_text(json.dumps(config))
    for argv in (
        ["run", "--config", str(tmp_path / "config.json"), "--output", str(tmp_path / "x")],
        ["validate-data", "--config", str(tmp_path / "config.json")],
        ["validate-data", "--view", paths["views"][1], "--availability", str(sidecar)],
    ):
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"INVALID: {sidecar}: "), line
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", [["run"], ["trace"], ["validate-data"]])
@pytest.mark.parametrize(
    "config, message",
    [
        ([1, 2], "config must be a JSON object, got [1, 2]"),
        ({"solver": 5}, "section 'solver' must be a JSON object, got 5"),
        ({"mask": ["rates"]}, "section 'mask' must be a JSON object, got ['rates']"),
    ],
)
def test_cli_reports_a_config_that_is_not_an_object_in_one_line(
    tmp_path, capsys, command, config, message
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(command + ["--config", str(bad)]) == 1
    assert capsys.readouterr().err == f"INVALID: {message}\n"


@pytest.mark.parametrize("command", [["run"], ["ablate", "--which", "weight"], ["trace"]])
def test_cli_reports_an_output_that_cannot_be_a_directory_before_any_trial(
    workspace, tmp_path, capsys, monkeypatch, command
):
    root, cfg_path, _ = workspace
    taken = tmp_path / "taken"
    taken.write_text("a file\n")

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(imvc.cli, "run_experiment", no_trials)
    for output in (taken, taken / "out"):
        assert main(command + ["--config", str(cfg_path), "--output", str(output)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("INVALID: ") and str(taken) in line, line
    assert taken.read_text() == "a file\n"


def test_cli_leaves_no_new_output_directories_for_a_bad_data_file(workspace, tmp_path, capsys):
    root, cfg_path, _ = workspace
    config = json.loads(cfg_path.read_text())
    config["dataset"]["views"] = [str(tmp_path / "missing.csv")]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    (tmp_path / "kept").mkdir()
    for output in (tmp_path / "a" / "b" / "c", tmp_path / "kept" / "d"):
        assert main(["run", "--config", str(bad), "--output", str(output)]) == 1
        assert "missing.csv not found" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "kept"]
    assert not any((tmp_path / "kept").iterdir())
