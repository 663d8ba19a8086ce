"""Three measurements that the workloads of perfbench/run.py do not make, on
the seeded Handwritten-shaped data of perfbench/synth.py:

    python3 scripts/scale_runs.py trial --n 50000 --seed 1
    python3 scripts/scale_runs.py group --n 2000 --seed 1 [--workers 2]
    python3 scripts/scale_runs.py sweep [--n 2000] [--seed 1] [--workers 2]

`trial` runs the calls of one harness trial in this process, as `imvc run
--workers 1` runs them: the mask, the fused graphs, one fit (5 sweeps at tol
0) and k-means with 20 restarts, at scale-n4000's settings, at one OpenBLAS
thread and on this process's usable CPUs as the trial's threads (`threads`).
Like a lone harness trial, it lets go of the complete data once masked, so
`peak_rss_self_mb` is a lone trial's.
It skips the data files' round trip, which `group` times. It then fits once
more with the layer wrappers of perfbench/tracing.py installed, and reports
each solver block's seconds per iteration from that fit (`iter_blocks_s`):
the per-view blocks' seconds are summed over the threads that ran them.
`group` writes the data and a config for one README grid group (27 (lam,
beta, r) points, max_iter 300, tol 1e-6) and runs it as `imvc run
--workers W` does, W being its `--workers` (default 2). It reports the data
files' round trip on its own: `save_s` for `imvc.save_dataset` and `load_s`
for one `imvc.load_dataset` of the .npy files it writes, the call the sweep
starts with, and `load_csv_s` for one `imvc.load_dataset` of the same arrays
written as CSV (savetxt, %.17e). `trial` and `group` mask 30% of the views.
`sweep` writes the data and runs README.md's example config on it (27 grid
points x rates 0.1, 0.3 and 0.5 x 5 repeats, max_iter 300, tol 1e-6, 20
restarts), read by `imvc.ExperimentConfig.from_file`, through
`imvc.run_experiment` at `--workers` (default 2). It reports the sweep's wall
time, the `trials.csv` sha256 and how many fits stopped at max_iter.

Run from the repository root; the package is imported from ./src. Each
prints one JSON line: the stage or sweep wall times in seconds, and the peak
RSS of this process and of its largest worker process (RUSAGE_CHILDREN) in
MB. `--n` defaults to 2000.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import imvc  # noqa: E402
from imvc.harness import one_blas_thread, usable_cpus  # noqa: E402
import tracing  # noqa: E402
from synth import handwritten_like  # noqa: E402

README_GRID = {"lam": [0.001, 0.1, 10.0], "beta": [1e-05, 0.001, 0.1], "r": [2.0, 5.0, 9.0]}
CLUSTERS = 10
RATE = 0.3


def _dataset(n: int, seed: int, noise: float):
    views, labels = handwritten_like(n, CLUSTERS, seed, noise)
    return imvc.MultiViewDataset(
        views=tuple(imvc.ViewMatrix(view_id=v, data=x) for v, x in enumerate(views)),
        n=n,
        availability=tuple(np.arange(n) for _ in views),
        labels=labels,
    )


def trial(n: int, seed: int) -> dict:
    full = _dataset(n, seed, noise=0.6)
    # a lone harness trial: one OpenBLAS thread, and this process's CPUs as
    # the trial's threads
    threads = usable_cpus()
    times = {}
    with one_blas_thread():
        start = time.perf_counter()
        spec = imvc.MaskSpec(protocol="random-missing", rate=RATE, seed=seed)
        masked = imvc.apply_mask(full, spec)
        times["mask_s"] = time.perf_counter() - start
        # as a lone harness trial does, keep only the masked copies (they
        # hold the labels)
        del full
        t = time.perf_counter()
        graphs = imvc.build_fused_graphs(masked, k=5, gamma=1.0, threads=threads)
        times["graphs_s"] = time.perf_counter() - t
        cfg = imvc.SolverConfig(
            lam=0.1, beta=0.001, r=5.0, n_components=CLUSTERS, max_iter=5, tol=0.0, seed=seed
        )
        t = time.perf_counter()
        (state,) = imvc.fit(masked, graphs, [cfg], threads=threads)
        times["fit_s"] = time.perf_counter() - t
        times["iter_s"] = times["fit_s"] / state.n_iterations
        t = time.perf_counter()
        scores = imvc.evaluate_clustering(
            state.consensus, masked.labels, k=CLUSTERS, restarts=20, seed=seed, threads=threads
        )
        times["kmeans_score_s"] = time.perf_counter() - t
        times["trial_s"] = time.perf_counter() - start
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            # the wrappers time imvc.harness.fit; this span's self time is the
            # fit's own loop (solver.loop_s), waits for the per-view tasks of
            # the other threads included
            with tracer.span("solver.fit"):
                imvc.fit(masked, graphs, [cfg], threads=threads)
    layers = tracing.layer_metrics(tracer, 1)
    blocks = ("consensus", "basis", "codes", "costs", "graph_cost", "weights", "loop")
    return {
        **times,
        "threads": threads,
        "iter_blocks_s": {b: layers[f"solver.{b}_s"] / state.n_iterations for b in blocks},
        "n_available": [v.n_available for v in masked.views],
        "iterations": state.n_iterations,
        "acc": scores.acc,
        "nmi": scores.nmi,
    }


def group(n: int, seed: int, workers: int = 2) -> dict:
    full = _dataset(n, seed, noise=1.0)
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        paths = imvc.save_dataset(full, Path(tmp) / "data")
        save_s = time.perf_counter() - start
        start = time.perf_counter()
        imvc.load_dataset(paths["views"], paths["availability"], paths["labels"])
        load_s = time.perf_counter() - start
        csv = {key: [] for key in ("views", "availability")}
        for view, ids in zip(full.views, full.availability):
            csv["views"].append(Path(tmp) / f"view_{view.view_id}.csv")
            csv["availability"].append(Path(tmp) / f"view_{view.view_id}.avail")
            np.savetxt(csv["views"][-1], view.data, delimiter=",", fmt="%.17e")
            np.savetxt(csv["availability"][-1], ids, fmt="%d")
        np.savetxt(Path(tmp) / "labels.csv", full.labels, fmt="%d")
        start = time.perf_counter()
        imvc.load_dataset(csv["views"], csv["availability"], Path(tmp) / "labels.csv")
        load_csv_s = time.perf_counter() - start
        config = {
            "dataset": {key: paths[key] for key in ("views", "availability", "labels")},
            "clusters": CLUSTERS,
            "mask": {"protocol": "random-missing", "rates": [RATE], "repeats": 1},
            "solver": {**README_GRID, "k": [5], "gamma": 1.0, "max_iter": 300, "tol": 1e-6},
            "metrics": {"restarts": 20},
            "output": str(Path(tmp) / "out"),
            "master_seed": seed,
        }
        cfg = imvc.ExperimentConfig.from_dict(config)
        start = time.perf_counter()
        records = imvc.run_experiment(cfg, workers=workers)
        sweep_s = time.perf_counter() - start
        written = imvc.write_results(records, cfg.output_dir, cfg)
        digest = hashlib.sha256(Path(written["trials"]).read_bytes()).hexdigest()
    trials = [t for r in records for t in r.trials]
    return {
        "workers": workers,
        "save_s": save_s,
        "load_s": load_s,
        "load_csv_s": load_csv_s,
        "sweep_s": sweep_s,
        "trials": len(trials),
        "failed": sum(bool(t.error) for t in trials),
        "iterations": sum(t.iterations for t in trials),
        "trials_sha256": digest,
    }


def sweep(n: int, seed: int, workers: int = 2) -> dict:
    (block,) = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    config = json.loads(block)
    full = _dataset(n, seed, noise=1.0)
    with tempfile.TemporaryDirectory() as tmp:
        paths = imvc.save_dataset(full, Path(tmp) / "data")
        config["dataset"].update({key: paths[key] for key in ("views", "availability", "labels")})
        config.update(clusters=CLUSTERS, output=str(Path(tmp) / "out"))
        (Path(tmp) / "config.json").write_text(json.dumps(config))
        cfg = imvc.ExperimentConfig.from_file(Path(tmp) / "config.json")
        start = time.perf_counter()
        records = imvc.run_experiment(cfg, workers=workers)
        sweep_s = time.perf_counter() - start
        written = imvc.write_results(records, cfg.output_dir, cfg)
        digest = hashlib.sha256(Path(written["trials"]).read_bytes()).hexdigest()
    trials = [t for r in records for t in r.trials]
    return {
        "workers": workers,
        "sweep_s": sweep_s,
        "trials": len(trials),
        "failed": sum(bool(t.error) for t in trials),
        "at_max_iter": sum(not t.error and t.iterations == cfg.max_iter for t in trials),
        "trials_sha256": digest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=("trial", "group", "sweep"))
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--workers", type=int, default=2, help="group and sweep: sweep worker processes"
    )
    args = parser.parse_args(argv)
    if args.what == "trial":
        result = trial(args.n, args.seed)
    else:
        result = {"group": group, "sweep": sweep}[args.what](args.n, args.seed, args.workers)
    peak = {
        "peak_rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "peak_rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    print(json.dumps({"what": args.what, "n": args.n, "seed": args.seed, **result, **peak}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
