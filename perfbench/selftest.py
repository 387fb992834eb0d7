"""Self-tests of the benchmark's checks and tracing.

    python3 perfbench/selftest.py

Runs in about a minute on two cores and exits non-zero on the first
failure. Each test is a plain function, so pytest can also collect it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import run  # clears BLAS/worker variables before numpy loads
from checks import check_round, check_sweep, load_reference
from tracing import Span, self_times, totals
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

from cfstbc import linalg, simulate  # noqa: E402
from cfstbc.cli import main as cli_main  # noqa: E402
from cfstbc.receiver import DecoderMatrix  # noqa: E402

SEED = 4242
REFERENCE = load_reference()


def _csv(workload: str, sweep_name: str) -> str:
    sweep = next(s for s in WORKLOADS[workload] if s.name == sweep_name)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        text, error = run.run_sweep(cli_main, sweep, SEED, 1, Path(tmp))
    assert error is None, error
    return text


def _round_problems(workload: str) -> list:
    sweeps = WORKLOADS[workload]
    texts = {s.name: _csv(workload, s.name) for s in sweeps}
    return check_round(sweeps, texts, REFERENCE[workload])


def _edit_row(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cells = lines[header + 1 + row].split(",")
    cells[lines[header].split(",").index(column)] = value
    lines[header + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_valid_outputs_pass():
    for workload in WORKLOADS:
        assert _round_problems(workload) == [], workload


def test_corrupted_csv_fails():
    sweep = WORKLOADS["desk-ber"][0]
    text = _csv("desk-ber", sweep.name)
    assert check_sweep(sweep, text, REFERENCE["desk-ber"]) == []
    corruptions = {
        "bits": _edit_row(text, 3, "bits", "511"),
        "ber range": _edit_row(text, 0, "ber", "1.5"),
        "margin": _edit_row(text, 2, "conv_margin_mean", "nan"),
        "rising ber": _edit_row(text, 10, "ber", "0.4"),
        "reference": _edit_row(text, 5, "ber", "0.2"),
        "truncated": "\n".join(text.splitlines()[:-2]) + "\n",
        "garbled": text.replace(",", ";"),
    }
    for what, bad in corruptions.items():
        assert check_sweep(sweep, bad, REFERENCE["desk-ber"]), f"{what} corruption passed"
    se = WORKLOADS["se-grid"]
    texts = {s.name: _csv("se-grid", s.name) for s in se}
    texts["single"] = _edit_row(texts["single"], 0, "se_sum", "1e3")
    assert check_round(se, texts, None), "single SE above dual SE passed"


def test_self_time_adds_up():
    spans = [
        Span("a.root", 0.0, 10.0, -1),
        Span("b.child", 1.0, 4.0, 0),
        Span("c.grandchild", 2.0, 3.0, 1),
        Span("b.child", 5.0, 9.0, 0),
        Span("a.root", 20.0, 21.0, -1),
    ]
    own = self_times(spans)
    assert own == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert sum(own) == sum(s.end - s.start for s in spans if s.parent < 0)
    t = totals(spans)
    assert t["b.child"]["calls"] == 2 and t["b.child"]["total_s"] == 7.0 and t["b.child"]["self_s"] == 6.0


def test_counts_repeat_and_traced_output_unchanged():
    for workload, sweeps in WORKLOADS.items():
        small = tuple(dataclasses.replace(s, trials=8, margin_trials=1) for s in sweeps)
        tally = run.Tally()
        first = run.trace_pass(workload, small, SEED, cli_main, None, tally)
        second = run.trace_pass(workload, small, SEED, cli_main, None, tally)
        # Traced, serial and parallel CSVs are compared byte for byte inside.
        assert tally.failed == 0, tally.problems
        for name, _, _, is_count in run.PER_LAYER:
            if is_count:
                assert first[name] == second[name], (workload, name)
        assert first["simulate.trial_rng.calls_per_trial"] > 0
        assert (first["metrics.calls_per_trial"] > 0) == (workload == "se-grid")
        assert first["golden.calls_per_trial"] > 0


def test_missing_function_reports_zero_calls():
    original = simulate.trial_rng
    del simulate.trial_rng  # as if a later version renamed it
    try:
        tracer = run.Tracer()
        with tracer:
            assert not hasattr(simulate, "trial_rng")
    finally:
        simulate.trial_rng = original
    assert totals(tracer.spans).get("simulate.trial_rng") is None
    sweeps = WORKLOADS["desk-ber"]
    values = run.layer_metrics(sweeps, tracer, 1.0, 1.0, 1.0, 1.0, 0.5, 0)
    assert values["simulate.trial_rng.calls_per_trial"] == 0
    assert values["linalg.margin.iterations_mean"] == 0


def _rekeyed_rng(master_seed, trial, l, k, purpose):
    # Same distribution, different streams: Philox keyed per purpose.
    key = np.random.SeedSequence((master_seed, trial, l, k, simulate.PURPOSES[purpose], 77))
    return np.random.Generator(np.random.Philox(key))


def test_reference_passes_rekeyed_streams():
    original = simulate.trial_rng
    simulate.trial_rng = _rekeyed_rng
    try:
        for workload in WORKLOADS:
            assert _round_problems(workload) == [], workload
    finally:
        simulate.trial_rng = original


def _matched_filter(G, inversion, counter=None):
    # The inversion skipped: A = D^-1 G^H.
    Z = linalg.gram(G)
    A = G.conj().T / np.diag(Z).real[:, None]
    return DecoderMatrix(A=A, kind="zf", inversion=inversion, gram=Z, gains=np.sum(A.T * G, axis=0))


def _transposed_zf(G, inversion, counter=None):
    # A conjugation bug: G^T where G^H belongs.
    Z = linalg.gram(G)
    A = inversion.invert(Z, counter) @ G.T
    return DecoderMatrix(A=A, kind="zf", inversion=inversion, gram=Z, gains=np.sum(A.T * G, axis=0))


def test_reference_fails_broken_decoder():
    # 32 trials a point resolve a gross BER error (the conjugation bug is
    # 20-50 sd off); a skipped inversion moves desk BER by at most ~5 sd,
    # under the tolerance, but moves SE by 14-24 sd.
    original = simulate.zf_matrix
    try:
        for broken, workload in ((_transposed_zf, "desk-ber"), (_matched_filter, "se-grid")):
            simulate.zf_matrix = broken
            sweep = WORKLOADS[workload][0]
            text = _csv(workload, sweep.name)
            assert check_sweep(sweep, text, REFERENCE[workload]), broken.__name__
    finally:
        simulate.zf_matrix = original


def _neumann_r1(Z, counter=None):
    # neumann_r2 without its correction term: D^-1, so A = D^-1 G^H.
    return np.diag(1.0 / np.diag(Z).real)


def test_reference_fails_neumann_r1():
    # R=1 raises the high-SNR BER floor, most under MMSE; the per-point
    # checks fail it on about half the seeds (10 of 20 measured), this
    # one included. A check on its difference from the exact sweep, which
    # draws from the same streams, was tried and dropped: R=2 alone
    # reached 20 more bit errors than exact on 1 seed of 85, inside the
    # 11-47 that R=1 gives, so no tolerance separates the two.
    sweeps = tuple(s for s in WORKLOADS["desk-ber"] if s.inversion == "neumann:2")
    original = linalg.neumann_r2
    linalg.neumann_r2 = _neumann_r1
    try:
        texts = {s.name: _csv("desk-ber", s.name) for s in sweeps}
    finally:
        linalg.neumann_r2 = original
    assert check_round(sweeps, texts, REFERENCE["desk-ber"])


def test_benchmark_json_matches_run():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in run.PER_LAYER
    ]


def main() -> int:
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_") and callable(f)]
    for name, test in tests:
        test()
        print(f"PASS {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
