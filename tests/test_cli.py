import json

import numpy as np
import pytest

from imvc import save_dataset
from imvc.cli import main

from synthetic import multiview_blobs


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


def test_cli_trace(workspace, tmp_path, capsys):
    root, cfg_path, _ = workspace
    code = main(
        ["trace", "--config", str(cfg_path), "--output", str(tmp_path / "tr"),
         "--rate", "0.3", "--lam", "2.0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged in" in out
    traces = list((tmp_path / "tr").glob("trace_*.csv"))
    assert [t.name for t in traces] == ["trace_full-g000-r0p3-t00.csv"]
    lines = traces[0].read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,e_0,e_1,alpha_0,alpha_1"
    assert len(lines) > 2


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


@pytest.mark.parametrize("command", [["run"], ["ablate", "--which", "weight"]])
def test_cli_rejects_fewer_than_one_worker(workspace, tmp_path, command):
    root, cfg_path, _ = workspace
    argv = command + ["--config", str(cfg_path), "--output", str(tmp_path / "x"), "--workers", "0"]
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        main(argv)
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
