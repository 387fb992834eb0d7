"""cfstbc benchmark: Monte Carlo throughput, CPU, set-up time and memory.

    python3 perfbench/run.py --workload desk-ber --seed 1 --seconds 35 --trace 0

Run from the repository root. The program is imported from ``src/`` and
driven in-process through ``cfstbc.cli.main`` with explicit argv, the path
users and the acceptance tests take. Each CSV it writes is checked (see
``checks.py``); the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` repeats rounds (every sweep of the workload once, same seed)
with ``--workers`` equal to the usable CPU count until ``--seconds`` have
passed, and reports medians over rounds of the end-to-end metrics.
``--trace 1`` runs the workload serially untraced, in parallel untraced,
and serially with spans around the calls into each module (``tracing.py``),
and reports the per-layer metrics.

BLAS and worker-count variables are cleared before numpy loads, so the
program's own threading defaults govern; pinning BLAS threads would hide
the oversubscription this benchmark is meant to show.

``selftest.py`` tests the checks and the tracing; ``make_reference.py``
regenerates the statistical reference the BER and SE checks use.
"""

from __future__ import annotations

import os

CLEARED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CFSTBC_MAX_WORKERS")
for _var in CLEARED_ENV:
    os.environ.pop(_var, None)

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import check_identical, check_round, load_reference
from tracing import CHUNK_TARGETS, Tracer, totals
from workloads import WORKLOADS, Sweep

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 9

# (name, unit, better); the bounds are in BENCHMARK.json.
END_TO_END = (
    ("trials_per_s", "trials/s", "higher"),
    ("cpu_ms_per_trial", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)
# (name, unit, better, is_count). Counts must repeat exactly across runs
# of the same seed.
PER_LAYER = (
    ("simulate.self_us_per_trial", "us/trial", "lower", False),
    ("simulate.trial_rng.us_per_trial", "us/trial", "lower", False),
    ("simulate.trial_rng.calls_per_trial", "calls/trial", "lower", True),
    ("simulate.pool_speedup", "ratio", "higher", False),
    ("simulate.cpu_util", "ratio", "higher", False),
    ("simulate.chunks_per_point", "chunks/point", "higher", True),
    ("simulate.serial_ms_per_trial", "ms/trial", "lower", False),
    ("channel.us_per_trial", "us/trial", "lower", False),
    ("channel.calls_per_trial", "calls/trial", "lower", True),
    ("golden.us_per_trial", "us/trial", "lower", False),
    ("golden.calls_per_trial", "calls/trial", "lower", True),
    ("golden.stacked_bytes_per_trial", "B/trial", "lower", True),
    ("linalg.gram.us_per_call", "us/call", "lower", False),
    ("linalg.gram.macs_per_trial", "MAC/trial", "lower", True),
    ("linalg.invert.us_per_call", "us/call", "lower", False),
    ("linalg.complex_mults_per_trial", "ops/trial", "lower", True),
    ("linalg.complex_divs_per_trial", "ops/trial", "lower", True),
    ("linalg.complex_adds_per_trial", "ops/trial", "lower", True),
    ("linalg.margin.us_per_call", "us/call", "lower", False),
    ("linalg.margin.iterations_mean", "iter/call", "lower", True),
    ("linalg.margin.unconverged", "count", "lower", True),
    ("linalg.margin.divergent", "count", "lower", True),
    ("receiver.decoder.us_per_call", "us/call", "lower", False),
    ("receiver.decoder_bytes_per_trial", "B/trial", "lower", True),
    ("receiver.detect.us_per_trial", "us/trial", "lower", False),
    ("metrics.us_per_trial", "us/trial", "lower", False),
    ("metrics.calls_per_trial", "calls/trial", "lower", True),
    ("cli.self_ms_per_run", "ms/run", "lower", False),
    ("trace.overhead_ratio", "ratio", "lower", False),
)

# Serial ms/trial measured with cProfile off when the ROADMAP was written:
# (workload, sweep, M of the point or None for the whole sweep) -> ms.
ROADMAP_BASELINE_MS = {
    ("desk-ber", "zf-exact", None): 3.15,
    ("desk-ber", "zf-neumann2", None): 2.56,
    ("full-ber", "zf-neumann2", None): 23.0,
    ("se-grid", "dual", 500): 75.0,
}


class Tally:
    """Sweeps attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[tuple[str, str]], sweeps: int) -> None:
        self.attempted += sweeps
        self.failed += len({name for name, _ in problems})
        self.problems += [f"{name}: {text}" for name, text in problems]


def host_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat, or (0, 0)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def round_trials(sweeps: tuple[Sweep, ...]) -> int:
    return sum(s.trials * len(s.grid) for s in sweeps)


def run_sweep(main, sweep: Sweep, seed: int, workers: int, outdir: Path, trials: int | None = None):
    """One CLI invocation; returns (CSV text or None, problem or None)."""
    out = outdir / f"{sweep.name}.csv"
    out.unlink(missing_ok=True)
    try:
        code = main(sweep.argv(seed, workers, str(out), trials))
    except Exception:  # the benchmark keeps going and reports the failure
        return None, f"raised {traceback.format_exc(limit=3).strip()}"
    if code != 0:
        return None, f"exit code {code}"
    return out.read_text(encoding="utf-8"), None


def run_round(main, sweeps, seed, workers, outdir, tally, reference, expected=None):
    """Every sweep once, then the output checks.

    Returns ({sweep: CSV text}, {sweep: wall seconds}, CPU seconds of the
    parent and its workers); the checks are outside the timed spans.
    """
    texts, walls, problems, cpu = {}, {}, [], 0.0
    for sweep in sweeps:
        cpu0, start = cpu_seconds(), time.perf_counter()
        text, error = run_sweep(main, sweep, seed, workers, outdir)
        walls[sweep.name] = time.perf_counter() - start
        cpu += cpu_seconds() - cpu0
        if error:
            problems.append((sweep.name, error))
        else:
            texts[sweep.name] = text
    expected = expected or {}
    fresh = {n: t for n, t in texts.items() if n not in expected}
    problems += check_round(sweeps, fresh, reference)
    for name in texts.keys() - fresh.keys():
        problems += check_identical(name, texts[name], expected[name], "first run with this seed")
    tally.record(problems, len(sweeps))
    return texts, walls, cpu


def setup_once(sweep: Sweep, seed: int, workers: int, outdir: Path, tally: Tally) -> float:
    """Fresh ``python3 -m cfstbc`` running a one-trial sweep, timed whole."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "cfstbc", *sweep.argv(seed, workers, str(outdir / "setup.csv"), 1)]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    error = f"set-up run exit code {proc.returncode}: {proc.stderr[-300:]}"
    tally.record([(sweep.name, error)] if proc.returncode else [], 1)
    return elapsed


def measure(name: str, seed: int, seconds: float, main, reference) -> tuple[dict, Tally]:
    sweeps = WORKLOADS[name]
    outdir = OUT / name
    workers = usable_cpus()
    tally = Tally()

    # Warm the parent: first calls and lazy imports are paid once per
    # process, and set-up time already shows them.
    for sweep in sweeps:
        _, error = run_sweep(main, sweep, seed, workers, outdir, trials=1)
        tally.record([(sweep.name, error)] if error else [], 1)

    trials = round_trials(sweeps)
    rates, cpu_per_trial, setup, expected = [], [], [], None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # Start another round only if it is expected to end within the window.
        if rates and elapsed * (len(rates) + 1) / len(rates) > seconds:
            break
        # Set-up runs keep pace with the window instead of running back to
        # back, so one burst of load on the host does not move all of them.
        while len(setup) < min(SETUP_REPEATS, 1 + SETUP_REPEATS * elapsed / seconds):
            setup.append(setup_once(sweeps[0], seed, workers, outdir, tally))
        texts, walls, cpu = run_round(main, sweeps, seed, workers, outdir, tally, reference, expected)
        wall = sum(walls.values())
        expected = {**texts, **(expected or {})}
        rates.append(trials / wall)
        cpu_per_trial.append(1e3 * cpu / trials)
        print(f"round {len(rates)}: {trials} trials in {wall:.3f} s, "
              f"{rates[-1]:.2f} trials/s, {cpu_per_trial[-1]:.4f} CPU ms/trial")
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_once(sweeps[0], seed, workers, outdir, tally))
    print(f"setup_s runs: {' '.join(f'{t:.3f}' for t in setup)}")

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "trials_per_s": statistics.median(rates),
        "cpu_ms_per_trial": statistics.median(cpu_per_trial),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": max(own, child) / 1024.0,
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
    }
    print(f"failed_ratio: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:g}")
    return {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}, tally


def layer_metrics(sweeps, tracer: Tracer, serial_wall: float, traced_wall: float,
                  parallel_rate: float, serial_rate: float, cpu_util: float,
                  chunk_calls: int) -> dict[str, float]:
    """Per-layer figures of one traced round; see PER_LAYER for units."""
    trials = round_trials(sweeps)
    points = sum(len(s.grid) for s in sweeps)
    t = totals(tracer.spans)

    def get(span, key="self_s"):
        return t[span][key] if span in t else 0.0

    def layer(prefix, key="self_s", skip=()):
        return sum(v[key] for n, v in t.items() if n.split(".")[0] == prefix and n not in skip)

    def per_call(span):
        return 1e6 * get(span) / get(span, "calls") if get(span, "calls") else 0.0

    computed = {k: 0.0 for k in ("gram_macs", "stacked_bytes", "decoder_bytes")}
    for s in sweeps:
        for k, v in s.computed_per_trial().items():
            computed[k] += v * s.trials * len(s.grid) / trials
    flops = {"mults": 0, "divs": 0, "adds": 0}
    for result in tracer.results["simulate.sweep"]:
        for p in result.points:
            for k in flops:
                flops[k] += getattr(p, f"complex_{k}", 0)
    margins = tracer.results["linalg.margin"]
    main_calls = get("cli.main", "calls")
    return {
        "simulate.self_us_per_trial": 1e6 * layer("simulate", skip=("simulate.trial_rng",)) / trials,
        "simulate.trial_rng.us_per_trial": 1e6 * get("simulate.trial_rng") / trials,
        "simulate.trial_rng.calls_per_trial": get("simulate.trial_rng", "calls") / trials,
        "simulate.pool_speedup": parallel_rate / serial_rate,
        "simulate.cpu_util": cpu_util,
        "simulate.chunks_per_point": chunk_calls / points,
        "simulate.serial_ms_per_trial": 1e3 * serial_wall / trials,
        "channel.us_per_trial": 1e6 * layer("channel") / trials,
        "channel.calls_per_trial": layer("channel", "calls") / trials,
        "golden.us_per_trial": 1e6 * layer("golden") / trials,
        "golden.calls_per_trial": layer("golden", "calls") / trials,
        "golden.stacked_bytes_per_trial": computed["stacked_bytes"],
        "linalg.gram.us_per_call": per_call("linalg.gram"),
        "linalg.gram.macs_per_trial": computed["gram_macs"],
        "linalg.invert.us_per_call": per_call("linalg.invert"),
        "linalg.complex_mults_per_trial": flops["mults"] / trials,
        "linalg.complex_divs_per_trial": flops["divs"] / trials,
        "linalg.complex_adds_per_trial": flops["adds"] / trials,
        "linalg.margin.us_per_call": per_call("linalg.margin"),
        "linalg.margin.iterations_mean": (
            statistics.fmean(getattr(m, "iterations", 0) for m in margins) if margins else 0.0
        ),
        "linalg.margin.unconverged": sum(not getattr(m, "converged", True) for m in margins),
        "linalg.margin.divergent": sum(float(m) >= 1.0 for m in margins),
        "receiver.decoder.us_per_call": per_call("receiver.decoder"),
        "receiver.decoder_bytes_per_trial": computed["decoder_bytes"],
        "receiver.detect.us_per_trial": 1e6 * get("receiver.detect") / trials,
        "metrics.us_per_trial": 1e6 * layer("metrics") / trials,
        "metrics.calls_per_trial": layer("metrics", "calls") / trials,
        "cli.self_ms_per_run": 1e3 * get("cli.main") / main_calls if main_calls else 0.0,
        "trace.overhead_ratio": traced_wall / serial_wall,
    }


def trace_pass(name: str, sweeps: tuple[Sweep, ...], seed: int, main, reference, tally: Tally) -> dict[str, float]:
    """Serial untraced, parallel untraced, then serial traced; one round each."""
    outdir = OUT / name
    trials = round_trials(sweeps)
    nproc = usable_cpus()

    with Tracer(targets=CHUNK_TARGETS) as chunk_timer:
        serial, serial_walls, _ = run_round(main, sweeps, seed, 1, outdir, tally, reference)
    serial_wall = sum(serial_walls.values())

    parallel, walls, cpu = run_round(main, sweeps, seed, nproc, outdir, tally, reference, expected=serial)
    parallel_wall = sum(walls.values())

    tracer = Tracer()
    with tracer:
        traced_main = tracer.wrap("cli.main", main)
        traced, traced_walls, _ = run_round(traced_main, sweeps, seed, 1, outdir, tally, reference, expected=serial)
    traced_wall = sum(traced_walls.values())
    if len(serial) < len(sweeps) or not serial.keys() == parallel.keys() == traced.keys():
        return {}

    print("serial ms/trial, untraced:")
    points = sum(len(s.grid) for s in sweeps)
    per_point, chunks = len(chunk_timer.spans) // points, iter(chunk_timer.spans)
    for sweep in sweeps:
        own = [next(chunks) for _ in range(per_point * len(sweep.grid))]
        ms = 1e3 * serial_walls[sweep.name] / (sweep.trials * len(sweep.grid))
        line = f"  {sweep.name}: {ms:.3f}"
        for i, m in enumerate((None,) + tuple(sweep.m_grid)):
            baseline = ROADMAP_BASELINE_MS.get((name, sweep.name, m))
            if baseline is None:
                continue
            if m is not None:
                point = own[(i - 1) * per_point:i * per_point]
                ms = 1e3 * sum(c.end - c.start for c in point) / sweep.trials
                line += f"; M={m}: {ms:.3f}"
            line += f" (ROADMAP baseline {baseline})"
        print(line)
    return layer_metrics(
        sweeps, tracer, serial_wall, traced_wall,
        parallel_rate=trials / parallel_wall, serial_rate=trials / serial_wall,
        cpu_util=cpu / (parallel_wall * nproc), chunk_calls=len(chunk_timer.spans),
    )


def trace(name: str, seed: int, seconds: float, main, reference) -> tuple[dict, Tally]:
    sweeps = WORKLOADS[name]
    tally = Tally()
    passes, start = [], time.perf_counter()
    # Start another pass only if one more is expected to end in time.
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        values = trace_pass(name, sweeps, seed, main, reference, tally)
        if not values:
            break
        passes.append(values)
    counts = [n for n, _, _, is_count in PER_LAYER if is_count]
    for n in counts:
        if len({p[n] for p in passes}) > 1:
            tally.record([("trace", f"count {n} differs between passes: {[p[n] for p in passes]}")], 0)
    metrics = {}
    for n, unit, _, _ in PER_LAYER:
        value = statistics.median(p[n] for p in passes) if passes else 0.0
        metrics[n] = {"value": value, "unit": unit}
        print(f"  {n} = {value:.6g} {unit}")
    return metrics, tally


def environment() -> dict:
    """Library versions, CPUs and revision the numbers were taken with."""
    import multiprocessing

    import numpy
    import scipy

    def blas(config):
        deps = getattr(config, "CONFIG", {}).get("Build Dependencies", {})
        return deps.get("blas", {}).get("openblas configuration") or deps.get("blas", {}).get("version")

    rev = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            rev = proc.stdout.strip() or rev
        except OSError:
            rev = "git not available"
    digest = hashlib.sha256()
    for path in sorted((SRC / "cfstbc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__),
        "scipy_blas": blas(scipy.__config__),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "cleared_env": list(CLEARED_ENV),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cfstbc" / "cli.py").is_file():
        print(f"cfstbc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from cfstbc.cli import main as cli_main

    (OUT / args.workload).mkdir(parents=True, exist_ok=True)
    print("env " + json.dumps(environment(), sort_keys=True))
    reference = load_reference().get(args.workload)
    run = trace if args.trace else measure
    steal0, total0 = host_ticks()
    metrics, tally = run(args.workload, args.seed, args.seconds, cli_main, reference)
    steal1, total1 = host_ticks()
    if total1 > total0:
        # Time the hypervisor gave to other guests: a noisy host, not the program.
        print(f"cpu steal during run: {100.0 * (steal1 - steal0) / (total1 - total0):.2f}%")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
