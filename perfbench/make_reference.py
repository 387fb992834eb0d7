"""Regenerate reference.json, the statistical reference the output checks use.

    python3 perfbench/make_reference.py

For every sweep of every workload, runs the sweep at its benchmark trial
count once per reference seed and stores, per grid point, the mean and the
between-seed standard deviation of the checked value (BER, or SE summed
over users). Reference seeds start at 1_000_000, far from any seed a
benchmark run is given. Run it only when a workload's shape changes; a
change to the program is judged against the reference it was defined with.
Takes about 15 minutes on two cores.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import sys
import tempfile
from pathlib import Path

from checks import CHECKED_COLUMN, REFERENCE_PATH, check_round, parse_csv, tolerance
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SEED0 = 1_000_000
SEEDS = 60


def _one(task):
    workload, index, seed = task
    sys.path.insert(0, str(ROOT / "src"))
    from cfstbc.cli import main

    sweep = WORKLOADS[workload][index]
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "ref.csv"
        if main(sweep.argv(seed, 1, str(out))) != 0:
            raise RuntimeError(f"{workload}/{sweep.name} seed {seed} failed")
        return out.read_text(encoding="utf-8")


def main() -> int:
    seeds = range(SEED0, SEED0 + SEEDS)
    tasks = [(w, i, s) for w, sweeps in WORKLOADS.items() for i in range(len(sweeps)) for s in seeds]
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        texts = pool.map(_one, tasks, chunksize=1)
    csvs: dict = {}
    for (workload, index, seed), text in zip(tasks, texts):
        csvs.setdefault(workload, {}).setdefault(seed, {})[WORKLOADS[workload][index].name] = text
    reference: dict = {}
    for workload, sweeps in WORKLOADS.items():
        reference[workload] = {}
        for sweep in sweeps:
            runs = [parse_csv(by_name[sweep.name])[1] for by_name in csvs[workload].values()]
            points = []
            for x, rows in zip(sweep.grid, zip(*runs)):
                column = [r[CHECKED_COLUMN[sweep.kind]] for r in rows]
                points.append({"x": x, "mean": statistics.fmean(column), "sd": statistics.stdev(column)})
            reference[workload][sweep.name] = {
                "trials": sweep.trials,
                "column": CHECKED_COLUMN[sweep.kind],
                "seeds": [seeds.start, seeds.stop],
                "points": points,
            }
            worst = max(
                abs(r[CHECKED_COLUMN[sweep.kind]] - p["mean"]) / tolerance(sweep, p)
                for run in runs for r, p in zip(run, points)
            )
            print(f"{workload}/{sweep.name}: largest deviation {worst:.2f} of the tolerance")
        # The reference seeds themselves must pass every check.
        for seed, by_name in csvs[workload].items():
            for name, problem in check_round(sweeps, by_name, reference[workload]):
                print(f"{workload} seed {seed} {name}: {problem}")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
