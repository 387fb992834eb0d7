"""Output checks for the CSVs a benchmark round writes.

Every check returns a list of ``(sweep_name, problem)`` pairs; an empty list
means the outputs are correct. The statistical check compares each BER or
SE value with ``reference.json``: the mean and the between-seed standard
deviation of that value at the sweep's own trial count, measured at the
commit that defined the benchmark over seeds the benchmark never runs with.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import Sweep

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Allowed distance from the reference mean, in between-seed standard
# deviations. The tails are heavier than normal (the 60 reference seeds
# reach 3.9 sd), so this is wide enough for a change with the same
# statistics, such as a re-keyed RNG, and narrow enough that a wrong
# decoder fails; selftest.py checks both.
Z_TOLERANCE = 6.0

_REQUIRED = {
    "ber": ("snr_db", "ber", "ci_halfwidth", "bits", "conv_margin_mean"),
    "se": ("M", "se_mean_per_user", "se_sum", "conv_margin_mean"),
}
CHECKED_COLUMN = {"ber": "ber", "se": "se_sum"}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, float]]]:
    """Split a result CSV into its '#' metadata and its numeric rows."""
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"row has {len(cells)} cells, header has {len(header)}")
            rows.append({name: float(cell) for name, cell in zip(header, cells)})
    if header is None:
        raise ValueError("no header row")
    return meta, rows


def tolerance(sweep: Sweep, ref_point: dict) -> float:
    """Largest allowed distance from the reference mean at one grid point."""
    sd = ref_point["sd"]
    if sweep.kind == "ber":
        # Binomial floor for points where every reference seed saw the
        # same count (usually zero errors).
        bits = sweep.trials * sweep.bits_per_trial()
        p = max(ref_point["mean"], 1.0 / bits)
        sd = max(sd, math.sqrt(p * (1.0 - p) / bits))
    else:
        sd = max(sd, 1e-6 * abs(ref_point["mean"]))
    return Z_TOLERANCE * sd


def check_sweep(sweep: Sweep, text: str, reference: dict | None) -> list[tuple[str, str]]:
    """Checks on one sweep's CSV that need no other sweep."""
    name = sweep.name
    try:
        meta, rows = parse_csv(text)
    except ValueError as exc:
        return [(name, f"unparsable CSV: {exc}")]
    problems = []
    if meta.get("kind") != sweep.kind:
        problems.append((name, f"kind is {meta.get('kind')!r}, expected {sweep.kind!r}"))
    missing = [c for c in _REQUIRED[sweep.kind] if rows and c not in rows[0]]
    if missing or len(rows) != len(sweep.grid):
        return problems + [(name, f"{len(rows)} rows, missing columns {missing}")]
    x_col = "snr_db" if sweep.kind == "ber" else "M"
    xs = [r[x_col] for r in rows]
    if any(abs(x - g) > 1e-9 for x, g in zip(xs, sweep.grid)):
        problems.append((name, f"grid {xs} differs from {list(sweep.grid)}"))
    for r in rows:
        if not math.isfinite(r["conv_margin_mean"]):
            problems.append((name, f"margin not finite at {x_col}={r[x_col]:g}"))
    if sweep.kind == "ber":
        expected_bits = sweep.trials * sweep.bits_per_trial()
        for r in rows:
            if r["bits"] != expected_bits:
                problems.append((name, f"bits {r['bits']:g} != {expected_bits} at {r['snr_db']:g} dB"))
            if not 0.0 <= r["ber"] <= 1.0:
                problems.append((name, f"ber {r['ber']:g} outside [0, 1] at {r['snr_db']:g} dB"))
        if sweep.inversion == "exact":
            for prev, nxt in zip(rows, rows[1:]):
                slack = prev["ci_halfwidth"] + nxt["ci_halfwidth"]
                if nxt["ber"] > prev["ber"] + slack:
                    problems.append((name, f"ber rises beyond its CI at {nxt['snr_db']:g} dB"))
    else:
        for prev, nxt in zip(rows, rows[1:]):
            if not nxt["se_sum"] > prev["se_sum"]:
                problems.append((name, f"SE does not rise from M={prev['M']:g} to M={nxt['M']:g}"))
    if reference is not None:
        problems += _check_reference(sweep, rows, reference)
    return problems


def _check_reference(sweep: Sweep, rows: list[dict], reference: dict) -> list[tuple[str, str]]:
    ref = reference.get(sweep.name)
    if ref is None or ref["trials"] != sweep.trials or len(ref["points"]) != len(rows):
        return [(sweep.name, "no reference at this trial count and grid")]
    column = CHECKED_COLUMN[sweep.kind]
    problems = []
    for row, point in zip(rows, ref["points"]):
        deviation = abs(row[column] - point["mean"])
        if not deviation <= tolerance(sweep, point):
            problems.append(
                (sweep.name, f"{column} {row[column]:.6g} at {point['x']:g} is "
                 f"{deviation / tolerance(sweep, point) * Z_TOLERANCE:.1f} sd from "
                 f"reference {point['mean']:.6g}")
            )
    return problems


def check_round(sweeps: tuple[Sweep, ...], texts: dict[str, str], reference: dict | None) -> list[tuple[str, str]]:
    """Every check on one round's CSVs, including across sweeps."""
    problems = []
    for sweep in sweeps:
        if sweep.name in texts:
            problems += check_sweep(sweep, texts[sweep.name], reference)
    by_name = {s.name: s for s in sweeps}
    if "dual" in by_name and "single" in by_name and {"dual", "single"} <= texts.keys():
        try:
            dual = parse_csv(texts["dual"])[1]
            single = parse_csv(texts["single"])[1]
        except ValueError:
            return problems  # already reported by check_sweep
        for d, s in zip(dual, single):
            if not d["se_sum"] > s["se_sum"]:
                problems.append(("single", f"dual SE not above single SE at M={d['M']:g}"))
    return problems


def check_identical(name: str, text: str, expected: str, what: str) -> list[tuple[str, str]]:
    """A rerun of the same sweep must reproduce the CSV byte for byte."""
    return [] if text == expected else [(name, f"CSV differs from the {what}")]
