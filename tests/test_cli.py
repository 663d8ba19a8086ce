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
    assert len(traces) == 1
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
