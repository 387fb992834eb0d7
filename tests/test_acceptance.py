"""Acceptance suite: one test per product-level criterion.

Each test prints a single PASS line (visible under ``pytest -s``) with the
measured quantities once its assertions hold; a failing criterion shows up
as an ordinary pytest failure. The BER and SE curve criteria run a few
minutes each and use two worker processes; everything else is seconds.
"""

import dataclasses
import time

import numpy as np
import pytest

from cfstbc import (
    Inversion,
    ScenarioConfig,
    convergence_margin,
    draw_small_scale,
    equivalent_channel,
    exact_inverse,
    golden_params,
    gram,
    neumann_inverse,
    run_ber_sweep,
    run_se_sweep,
    trials_for_bits,
    verify_exchangeability,
    zf_matrix,
)
from cfstbc.cli import main as cli_main
from helpers import draw_system, interference_noise_variance, random_complex, seeded_rng

WORKERS = 2


def report(num: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {num} [{name}] PASS ({detail})")


def ber_floor(point):
    """Monte Carlo resolution floor: one error in the measured bit count."""
    return max(point.estimate.ber, 1.0 / point.estimate.bits_total)


def test_criterion_01_golden_code_algebra():
    start = time.perf_counter()
    p = golden_params()
    p_val = abs(p.a) ** 2 + abs(p.c) ** 2
    s_val = abs(p.a * p.b) ** 2 + abs(p.c * p.d) ** 2
    assert abs(p_val - 1.0) < 1e-12
    assert abs(s_val - 1.0) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "golden-code algebra", f"|p-1|={abs(p_val-1):.2e} |s-1|={abs(s_val-1):.2e} in {elapsed:.3f}s")


def test_criterion_02_exchangeability_identity():
    start = time.perf_counter()
    M = 32
    rng = seeded_rng(202)
    worst = 0.0
    for _ in range(1000):
        H = random_complex(rng, M, 2)
        x = random_complex(rng, 4)
        worst = max(worst, verify_exchangeability(H, x))
    assert worst < 1e-12 * M
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, "exchangeability identity", f"max residual {worst:.2e} over 1000 pairs in {elapsed:.2f}s")


def test_criterion_03_large_m_whitening():
    start = time.perf_counter()
    M = 100_000
    rng = seeded_rng(303)
    H1 = draw_small_scale(M, 2, rng)
    H2 = draw_small_scale(M, 2, rng)
    Ht1 = equivalent_channel(H1)
    Ht2 = equivalent_channel(H2)
    diag_error = float(np.max(np.abs(Ht1.conj().T @ Ht1 / M - np.eye(4))))
    cross_error = float(np.max(np.abs(Ht1.conj().T @ Ht2 / M)))
    assert diag_error < 0.05
    assert cross_error < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, "large-M whitening", f"diag {diag_error:.4f}, cross {cross_error:.4f} at M=1e5 in {elapsed:.1f}s")


def test_criterion_04_neumann_convergence_rate():
    """Truncation error shrinks at least at the q^R rate on 100 systems.

    The fitted slope is compared one-sidedly against log q: on a Frobenius
    norm the bulk modes make the finite-R decay strictly FASTER than the
    spectral rate, so "within 0.1" is enforced on the side that bounds the
    error (slope <= log q + 0.1); see the geometric-convergence property.
    Systems use the full-scale geometry (2M=512 rows, 4K=40 columns) and only
    draws with q < 1 enter, per the criterion's own condition.
    """
    start = time.perf_counter()
    accepted = 0
    seed = 0
    worst_gap = -np.inf
    c_constants = []
    orders = np.arange(1, 9)
    while accepted < 100:
        seed += 1
        Z = gram(draw_system(M=256, K=10, seed=40_000 + seed))
        q = convergence_margin(Z)
        if not q < 1.0:
            continue
        accepted += 1
        Zinv = exact_inverse(Z)
        errors = np.array(
            [np.linalg.norm(neumann_inverse(Z, int(R)) - Zinv) for R in orders]
        )
        assert np.all(errors[2:] < errors[:-2]), f"seed {seed}: no two-step decrease"
        slope = np.polyfit(orders, np.log(errors), 1)[0]
        gap = slope - np.log(q)
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.1, f"seed {seed}: slope {slope:.3f} vs log q {np.log(q):.3f}"
        c_constants.append(float(np.max(errors / q**orders)))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        4,
        "neumann convergence rate",
        f"100 systems, worst slope-log(q) gap {worst_gap:+.3f}, "
        f"max fitted C {max(c_constants):.3g}, {elapsed:.1f}s",
    )


def test_criterion_05_neumann_cost_ordering():
    n = 40
    Z = gram(draw_system(M=256, K=10, seed=505))
    assert Z.shape == (n, n)
    cheap_mults, cheap_divs, _ = Inversion.neumann(2).ops(n)
    dense_mults, dense_divs, _ = Inversion.exact().ops(n)
    assert cheap_mults < dense_mults
    # published cost estimate for the two-term form, stated for a matrix
    # of size 2m x 2m: 2m divisions and 12m^2 - 6m multiplications
    m = n // 2
    published_divs, published_mults = 2 * m, 12 * m**2 - 6 * m
    report(
        5,
        "neumann cost ordering",
        f"two-term: {cheap_mults} mults / {cheap_divs} divs; "
        f"dense: {dense_mults} mults / {dense_divs} divs; "
        f"published estimate (m={m}): {published_mults} mults / {published_divs} divs",
    )


def test_criterion_06_noiseless_zf_is_exact():
    start = time.perf_counter()
    cfg = ScenarioConfig(
        L=4, M=64, K=4,
        snr_grid_db=(0.0,),
        trials=trials_for_bits(ScenarioConfig(K=4), 10_000),
        noise_scale=0.0,
        margin_trials=1,
        master_seed=606,
    )
    point = run_ber_sweep(cfg, workers=WORKERS).points[0]
    assert point.estimate.bits_total >= 10_000
    assert point.estimate.bit_errors == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, "noiseless ZF exactness", f"0 errors in {point.estimate.bits_total} bits, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_07_ber_curve_reproduction():
    """Desk-scale BER curves: monotone, Neumann close to exact, dual vs single.

    All BER comparisons carry the 95% confidence allowance of the estimates
    (the monotonicity invariant's own tolerance); ratios are additionally
    floored at the Monte Carlo resolution 1/bits, below which two runs are
    indistinguishable.
    """
    start = time.perf_counter()
    grid = tuple(float(v) for v in range(-10, 12, 2))
    base = dict(L=4, M=64, K=4, snr_grid_db=grid, master_seed=2024, margin_trials=64)
    n_dual = trials_for_bits(ScenarioConfig(K=4), 100_000)
    n_single = trials_for_bits(
        ScenarioConfig(K=4, antennas_per_user=1, modulation="4qam"), 100_000
    )

    curves = {}
    for decoder in ("zf", "mmse"):
        curves[decoder, "exact"] = run_ber_sweep(
            ScenarioConfig(decoder=decoder, trials=n_dual, **base), workers=WORKERS
        ).points
        curves[decoder, "neumann"] = run_ber_sweep(
            ScenarioConfig(
                decoder=decoder, trials=n_dual, inversion=Inversion.neumann(2), **base
            ),
            workers=WORKERS,
        ).points
        curves[decoder, "single"] = run_ber_sweep(
            ScenarioConfig(
                decoder=decoder, trials=n_single,
                antennas_per_user=1, modulation="4qam", **base,
            ),
            workers=WORKERS,
        ).points

    # (a) monotone non-increasing within confidence overlap, exact curves
    for decoder in ("zf", "mmse"):
        pts = curves[decoder, "exact"]
        for prev, nxt in zip(pts, pts[1:]):
            slack = prev.estimate.confidence_halfwidth + nxt.estimate.confidence_halfwidth
            assert nxt.estimate.ber <= prev.estimate.ber + slack, (
                f"{decoder} exact not monotone at {nxt.snr_db} dB"
            )

    # (b) Neumann R=2 within one order of magnitude where the series margin
    #     is comfortably convergent
    checked_b = 0
    for decoder in ("zf", "mmse"):
        for exact_pt, neu_pt in zip(curves[decoder, "exact"], curves[decoder, "neumann"]):
            if neu_pt.conv_margin_mean < 0.7:
                checked_b += 1
                assert ber_floor(neu_pt) <= 10.0 * ber_floor(exact_pt), (
                    f"{decoder} neumann too far from exact at {neu_pt.snr_db} dB: "
                    f"{neu_pt.estimate.ber:.3e} vs {exact_pt.estimate.ber:.3e}"
                )
    assert checked_b > 0, "margin condition never held; nothing was compared"

    # (c) dual-antenna BPSK at least as good as single-antenna 4QAM on the
    #     top half of the SNR grid
    mid = (grid[0] + grid[-1]) / 2.0
    strict_wins = 0
    compared_c = 0
    for decoder in ("zf", "mmse"):
        for dual_pt, single_pt in zip(curves[decoder, "exact"], curves[decoder, "single"]):
            if dual_pt.snr_db < mid:
                continue
            compared_c += 1
            slack = (
                dual_pt.estimate.confidence_halfwidth
                + single_pt.estimate.confidence_halfwidth
            )
            assert dual_pt.estimate.ber <= single_pt.estimate.ber + slack, (
                f"{decoder}: dual {dual_pt.estimate.ber:.3e} worse than single "
                f"{single_pt.estimate.ber:.3e} at {dual_pt.snr_db} dB"
            )
            strict_wins += dual_pt.estimate.ber <= single_pt.estimate.ber

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    margins = {d: curves[d, "neumann"][0].conv_margin_mean for d in ("zf", "mmse")}
    report(
        7,
        "BER curve reproduction",
        f"margins zf={margins['zf']:.3f} mmse={margins['mmse']:.3f}, "
        f"{checked_b} neumann points within 10x, dual<=single at "
        f"{strict_wins}/{compared_c} top-half points (all within CI), {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_08_se_curve_reproduction():
    start = time.perf_counter()
    dual = ScenarioConfig(
        L=4, K=10, rho_fixed=10.0,
        m_grid=tuple(range(50, 550, 50)),
        trials=100, margin_trials=16, master_seed=808,
    )
    single = dataclasses.replace(dual, antennas_per_user=1, modulation="4qam")
    dual_points = run_se_sweep(dual, workers=WORKERS).points
    single_points = run_se_sweep(single, workers=WORKERS).points

    dual_se = [p.se_sum for p in dual_points]
    assert all(b > a for a, b in zip(dual_se, dual_se[1:])), "dual SE not increasing in M"
    for dp, sp in zip(dual_points, single_points):
        assert dp.se_sum > sp.se_sum, (
            f"dual SE {dp.se_sum:.2f} not above single {sp.se_sum:.2f} at M={dp.m}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        8,
        "SE curve reproduction",
        f"dual {dual_se[0]:.1f}->{dual_se[-1]:.1f} b/s/Hz rising, single "
        f"{single_points[0].se_sum:.1f}->{single_points[-1].se_sum:.1f}, {elapsed:.0f}s",
    )


def test_criterion_09_variance_self_consistency():
    """Analytic interference-plus-noise power vs 1e5-draw empirical variance.

    Run at rho = 2, where the formula's rho/2 prefactor on the noise term
    equals the physical unit noise variance, so the formula is validated
    exactly as printed (the "unit" variant extends it to other rho and is
    covered by the metrics tests).
    """
    start = time.perf_counter()
    rho = 2.0
    L, M, K = 2, 16, 2
    n = 4 * K
    rng = seeded_rng(909)
    a_mats, g_mats = [], []
    for l in range(L):
        G = draw_system(M=M, K=K, seed=9000 + l)
        a_mats.append(zf_matrix(G, Inversion.neumann(2)).A)
        g_mats.append(G)

    analytic = np.array(
        [interference_noise_variance(a_mats, g_mats, rho, i) for i in range(n)]
    )

    draws = 100_000
    block = 20_000
    acc = np.zeros(n)
    done = 0
    while done < draws:
        b = min(block, draws - done)
        x = np.sqrt(0.5) * (rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b)))
        for A, G in zip(a_mats, g_mats):
            w = np.sqrt(0.5) * (
                rng.standard_normal((A.shape[1], b))
                + 1j * rng.standard_normal((A.shape[1], b))
            )
            s = A @ (np.sqrt(rho / 2.0) * (G @ x) + w)
            desired = np.sqrt(rho / 2.0) * np.sum(A.T * G, axis=0)[:, None] * x
            acc += np.sum(np.abs(s - desired) ** 2, axis=1)
        done += b
    empirical = acc / draws

    rel = np.max(np.abs(empirical - analytic) / analytic)
    assert rel < 0.03
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        9,
        "variance self-consistency",
        f"max relative gap {rel:.4f} over {n} streams, 1e5 draws, {elapsed:.1f}s",
    )


def test_criterion_10_byte_identical_determinism(tmp_path):
    args = (
        "ber --M 16 --K 2 --L 2 --snr-db -4:4:4 --trials 300 --seed 17 "
        "--margin-trials 8 --quiet"
    ).split()
    paths = {name: tmp_path / f"{name}.csv" for name in ("serial_1", "serial_2", "parallel")}
    assert cli_main(args + ["--workers", "1", "--out", str(paths["serial_1"])]) == 0
    assert cli_main(args + ["--workers", "1", "--out", str(paths["serial_2"])]) == 0
    assert cli_main(args + ["--workers", "2", "--out", str(paths["parallel"])]) == 0
    blobs = {name: p.read_bytes() for name, p in paths.items()}
    assert blobs["serial_1"] == blobs["serial_2"] == blobs["parallel"]
    report(10, "byte-identical determinism", f"{len(blobs['serial_1'])} bytes x3 runs equal")
