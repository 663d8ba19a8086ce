"""Run the benchmark for several workloads and seeds and report the spread.

    python3 perfbench/spread.py --seeds 1            # every workload once
    python3 perfbench/spread.py --workload sweep-n400 --seeds 1-10 [--trace 1]

Each run is `BENCHMARK.json`'s command with its run_seconds; its text report
(every metric with unit and sample count) is passed through. With two or more
seeds, each workload ends with a table: per metric, the median over the runs
and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of that median, next to the metric's
bound and a third of it. The exit code is that of the first run that fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _table(values: dict[str, list[float]], bounds: dict) -> None:
    print(f"{'metric':26s} {'median':>12s} {'iqr/med':>8s} {'bound':>6s} {'bound/3':>8s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        if bound is None:
            print(f"{name:26s} {median:12.6g} {spread:8.4f}")
            continue
        flag = "" if spread < bound / 3 else "  WIDE"
        print(f"{name:26s} {median:12.6g} {spread:8.4f} {bound:6.3f} {bound / 3:8.4f}{flag}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeat for several; default: every workload")
    parser.add_argument("--seeds", default="1-10", help="one seed or an inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = _seeds(args.seeds)
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            *report, last = proc.stdout.strip().splitlines() or [""]
            print(f"--- {workload} seed {seed}")
            print("\n".join(report), flush=True)
            if proc.returncode != 0:
                sys.stderr.write(last + "\n" + proc.stderr)
                return proc.returncode
            for name, metric in json.loads(last)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        if len(seeds) > 1:
            print(f"=== {workload}: {len(seeds)} runs")
            _table(values, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
