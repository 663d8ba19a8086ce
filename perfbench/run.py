"""imvc benchmark: the `imvc run` path on Handwritten-shaped synthetic data.

    python3 perfbench/run.py --workload trial-n2000 --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ./src, never from
an installed copy, so the numbers belong to the checked-out code.

Each workload writes a seeded synthetic dataset with `imvc.save_dataset`,
describes the sweep in a JSON config, and then repeats one *unit* of work the
way `imvc run --seed S --output DIR` does it: `ExperimentConfig.from_file`,
`run_experiment` and `write_results`. Units use master seeds derived from
--seed, so each unit draws fresh masks. Every unit is checked: the trial count,
each trial's objective trace (non-increasing within criterion 1's 1e-9
relative tolerance), the iteration counts, and the scores.

--trace 0 reports the end-to-end metrics. After one untimed warm-up sweep,
set-up (writing the data files and config) is done SETUP_REPEATS times, spread
over the gaps before, between and after the units so that the repeats sample
the whole run; its median is reported. The units are timed on their own. A
run does round(--seconds / unit_s) units, at least one, where unit_s is the
workload's nominal unit time: the count depends on --seconds and not on the
clock, so every run, and every commit, measures the same work and the same
number of trials.
--trace 1 runs one unit untraced, the same unit with the layer wrappers of
tracing.py installed, and the same unit untraced again. All three must write
the same trials.csv. It reports the per-layer metrics, and as tracing overhead
the traced wall time minus that of the second untraced run, so that neither
side pays for being first.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A trial whose error column is set counts as
failed and makes the run incorrect, as every trial succeeds at this commit.
Times and scores come from successful trials only. failed_frac is printed in
the report but is not a JSON metric: it reads 0 when all is well, and the
result line carries failed and attempted already. The exit code is 1 when a
check fails, and when the package cannot be found (then without a result line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import tracing
from synth import handwritten_like

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

README_GRID = {"lam": [0.001, 0.1, 10.0], "beta": [1e-05, 0.001, 0.1], "r": [2.0, 5.0, 9.0]}
ONE_POINT = {"lam": [0.1], "beta": [0.001], "r": [5.0]}


@dataclass(frozen=True)
class Workload:
    n: int
    clusters: int
    grid: dict
    max_iter: int
    tol: float
    workers: int
    unit_s: float  # nominal seconds of one unit, which sets the units per run
    noise: float = 1.0

    @property
    def trials_per_unit(self) -> int:
        return len(self.grid["lam"]) * len(self.grid["beta"]) * len(self.grid["r"])


# Why these three: trial-n2000 is the reference trial of the roadmap (solver
# bound, dense n_v-sized products and sample-id lookups, one trial per mask so
# no reuse is possible); sweep-n400 is the README grid on a small set, where
# per-call overhead, the 27 graph rebuilds per mask and the thread pool show;
# scale-n4000 is where the dense O(n^2) graph and indicator parts dominate
# time and memory. tol=0 makes the iteration count exact. scale-n4000 stops
# after 5 sweeps, far from converged, so it uses less noisy data: at full
# noise its accuracy after 5 sweeps swings between 0.6 and 0.8 from seed to
# seed, too wide for a bounded metric.
WORKLOADS = {
    "trial-n2000": Workload(2000, 10, ONE_POINT, max_iter=30, tol=0.0, workers=1, unit_s=13.0),
    "sweep-n400": Workload(400, 5, README_GRID, max_iter=40, tol=1e-6, workers=2, unit_s=14.0),
    "scale-n4000": Workload(4000, 10, ONE_POINT, max_iter=5, tol=0.0, workers=1, unit_s=22.0, noise=0.6),
}
# a tiny sweep run once before set-up and units are timed, so that first-call
# costs (imports, caches) are not timed
WARM_UP = Workload(60, 3, ONE_POINT, max_iter=2, tol=0.0, workers=1, unit_s=0.1)
RATE = 0.3  # missing rate of every workload
SETUP_REPEATS = 6
MONOTONE_RTOL = 1e-9


def _import_imvc():
    if not (SRC / "imvc" / "__init__.py").is_file():
        sys.exit(f"error: no imvc package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import imvc

    if Path(imvc.__file__).resolve().parent != SRC / "imvc":
        sys.exit(f"error: imported imvc from {imvc.__file__}, not from {SRC}")
    return imvc


def _config_dict(w: Workload, paths: dict, output: Path) -> dict:
    return {
        "dataset": {
            "views": paths["views"],
            "availability": paths["availability"],
            "labels": paths["labels"],
            "normalize": "none",
        },
        "clusters": w.clusters,
        "mask": {"protocol": "random-missing", "rates": [RATE], "repeats": 1},
        "solver": {
            **w.grid,
            "k": [5],
            "gamma": 1.0,
            "max_iter": w.max_iter,
            "tol": w.tol,
        },
        "metrics": {"restarts": 20},
        "output": str(output),
        "master_seed": 0,
    }


class Bench:
    def __init__(self, imvc, name: str, seed: int, work: Path):
        self.imvc = imvc
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.config_path: Path | None = None
        self.errors: list[str] = []  # failed correctness checks

    # -- set-up ---------------------------------------------------------
    def _dataset(self, w: Workload):
        imvc = self.imvc
        views, labels = handwritten_like(w.n, w.clusters, self.seed, w.noise)
        return imvc.MultiViewDataset(
            views=tuple(imvc.ViewMatrix(view_id=v, data=x) for v, x in enumerate(views)),
            n=w.n,
            availability=tuple(np.arange(w.n) for _ in views),
            labels=labels,
        )

    def warm_up(self) -> None:
        """Run a tiny sweep through the same calls as a unit."""
        imvc = self.imvc
        warm = self.work / "data-warm"
        paths = imvc.save_dataset(self._dataset(WARM_UP), warm)
        cfg = imvc.ExperimentConfig.from_dict(_config_dict(WARM_UP, paths, warm / "out"))
        imvc.write_results(imvc.run_experiment(cfg), cfg.output_dir, cfg)

    def setup(self, k: int) -> float:
        """Write the data files and config; return the seconds it took."""
        imvc = self.imvc
        start = time.perf_counter()
        directory = self.work / f"data{k}"
        paths = imvc.save_dataset(self._dataset(self.w), directory)
        config_path = directory / "config.json"
        config_path.write_text(json.dumps(_config_dict(self.w, paths, self.work / "out")))
        elapsed = time.perf_counter() - start
        if self.config_path is not None:
            shutil.rmtree(self.config_path.parent)
        self.config_path = config_path
        return elapsed

    # -- one unit of work -----------------------------------------------
    def unit(self, index: int, label: str = "plain", span=None) -> dict:
        """Run the sweep once through the harness and check what it wrote.

        span, when given, is the tracer's span context manager; the unit then
        records its own harness.sweep and harness.write spans.
        """
        out = self.work / f"unit{index}-{label}"
        span = span or (lambda name: nullcontext())
        start = time.perf_counter()
        imvc = self.imvc
        cfg = imvc.ExperimentConfig.from_file(self.config_path)
        cfg = replace(cfg, master_seed=self.seed * 1000 + index, output_dir=str(out))
        with span("harness.sweep"):
            records = imvc.run_experiment(cfg, workers=self.w.workers, keep_states=True)
        with span("harness.write"):
            paths = imvc.write_results(records, cfg.output_dir, cfg)
        wall = time.perf_counter() - start
        trials = [t for r in records for t in r.trials]
        self._check(trials)
        ok = [t for t in trials if not t.error]
        return {
            "wall": wall,
            "trial_s": [t.wall_seconds for t in ok],
            "acc": [t.acc for t in ok],
            "nmi": [t.nmi for t in ok],
            "errors": [f"{t.run_id}: {t.error}" for t in trials if t.error],
            "iterations": sum(t.iterations for t in trials),
            "attempted": len(trials),
            "sha256": hashlib.sha256(Path(paths["trials"]).read_bytes()).hexdigest(),
        }

    def _check(self, trials) -> None:
        if len(trials) != self.w.trials_per_unit:
            self.errors.append(f"expected {self.w.trials_per_unit} trials, got {len(trials)}")
        for t in trials:
            if t.error:
                continue
            trace = t.state.objective_trace
            rises = trace[1:] > trace[:-1] * (1 + MONOTONE_RTOL)
            if rises.any():
                at = int(rises.argmax()) + 1
                self.errors.append(
                    f"{t.run_id}: objective rose at iteration {at}: "
                    f"{float(trace[at - 1])!r} -> {float(trace[at])!r}"
                )
            if t.iterations != len(trace) - 1 or not 1 <= t.iterations <= self.w.max_iter:
                self.errors.append(f"{t.run_id}: bad iteration count {t.iterations}")
            if self.w.tol == 0.0 and t.iterations != self.w.max_iter:
                self.errors.append(f"{t.run_id}: stopped after {t.iterations} of {self.w.max_iter} sweeps at tol=0")
            if not all(0.0 <= s <= 1.0 for s in (t.acc, t.nmi, t.purity)):
                self.errors.append(f"{t.run_id}: score out of [0, 1]")


def _environment() -> dict:
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["blas_threads"] = _blas_threads()
    return env


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if there is one."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _stat(fn, values) -> float:
    """fn(values), or 0.0 when every trial failed (the run is then incorrect)."""
    return float(fn(values)) if values else 0.0


def run_plain(bench: Bench, seconds: float) -> tuple[dict, int, int]:
    bench.warm_up()
    n_units = max(1, round(seconds / bench.w.unit_s))
    # the host's speed drifts over seconds, so set-up is sampled in every gap;
    # the first gap gets the most repeats, and at least one, for the config
    gaps = np.array_split(np.arange(SETUP_REPEATS), n_units + 1)
    setups, units = [], []
    for i, gap in enumerate(gaps):
        setups += [bench.setup(int(k)) for k in gap]
        if i < n_units:
            units.append(bench.unit(i))
    trial_s = [s for u in units for s in u["trial_s"]]
    acc = [a for u in units for a in u["acc"]]
    nmi = [v for u in units for v in u["nmi"]]
    errors = [e for u in units for e in u["errors"]]
    attempted = sum(u["attempted"] for u in units)
    wall = sum(u["wall"] for u in units)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = [  # name, value, unit, sample count
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("trial_s_p50", _stat(statistics.median, trial_s), "s", len(trial_s)),
        ("trial_s_p80", _stat(lambda v: np.quantile(v, 0.8), trial_s), "s", len(trial_s)),
        ("trials_per_s", len(trial_s) / wall, "1/s", len(units)),
        ("peak_rss_mb", rss_mb, "MB", 1),
        ("acc_mean", _stat(statistics.fmean, acc), "fraction", len(acc)),
        ("nmi_mean", _stat(statistics.fmean, nmi), "fraction", len(nmi)),
        ("failed_frac", len(errors) / attempted, "fraction", attempted),  # printed only
    ]
    for name, value, unit, n in rows:
        print(f"{bench.name:12s} {name:14s} {value:12.6g} {unit:8s} n={n}")
    metrics = {name: _metric(value, unit) for name, value, unit, _ in rows[:-1]}
    print(
        f"{bench.name:12s} units={len(units)} trials/unit={bench.w.trials_per_unit} "
        f"workers={bench.w.workers} iterations={sum(u['iterations'] for u in units)}"
    )
    for i, u in enumerate(units):
        print(f"{bench.name:12s} unit {i} trials.csv sha256 {u['sha256']}")
    if errors:
        print(f"{bench.name:12s} first failed trial: {errors[0]}")
    return metrics, attempted, len(errors)


def run_traced(bench: Bench) -> tuple[dict, int, int]:
    bench.setup(0)
    first = bench.unit(0, "plain-first")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = bench.unit(0, "traced", span=tracer.span)
    plain = bench.unit(0, "plain")
    tracer.write(bench.work / "spans.jsonl")
    for other in (first, plain):
        if traced["sha256"] != other["sha256"]:
            bench.errors.append(
                f"traced trials.csv {traced['sha256']} differs from untraced {other['sha256']}"
            )
    layers = tracing.layer_metrics(tracer, bench.w.workers)
    layers["tracing.overhead_s"] = traced["wall"] - plain["wall"]
    metrics = {}
    for name, (unit, _) in tracing.PER_LAYER.items():
        metrics[name] = _metric(layers[name], unit)
        print(f"{bench.name:12s} {name:24s} {layers[name]:14.6g} {unit}")
    print(f"{bench.name:12s} trials.csv sha256 untraced {plain['sha256']} traced {traced['sha256']}")
    runs = (first, traced, plain)
    errors = [e for u in runs for e in u["errors"]]
    if errors:
        print(f"{bench.name:12s} first failed trial: {errors[0]}")
    return metrics, sum(u["attempted"] for u in runs), len(errors)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    imvc = _import_imvc()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _environment()
    print(f"{args.workload:12s} environment {json.dumps(env, sort_keys=True)}")

    bench = Bench(imvc, args.workload, args.seed, work)
    try:
        if args.trace:
            metrics, attempted, failed = run_traced(bench)
        else:
            metrics, attempted, failed = run_plain(bench, args.seconds)
    finally:
        for data in work.glob("data*"):
            shutil.rmtree(data)
    for problem in bench.errors:
        print(f"{args.workload:12s} CHECK FAILED: {problem}")
    correct = not bench.errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
