import ctypes
import dataclasses
import multiprocessing
import os
import pickle
import platform
import signal
import subprocess
import sys
import time
import warnings
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_genlaguerre

from cfstbc import (
    NOISE_SNR_SCALED,
    NOISE_UNIT,
    ConfigError,
    DegenerateSplitError,
    Inversion,
    SingularMatrixError,
    ScenarioConfig,
    run_ber_sweep,
    run_se_sweep,
    trial_rng,
    trials_for_bits,
)
from cfstbc import cli, simulate
from cfstbc.simulate import (
    PURPOSES,
    _streams,
    desk_ber_config,
    full_ber_config,
    se_sweep_config,
    stream_states,
)
from helpers import oracle_draw_trial, seedsequence_rng


class TestTrialRng:
    def test_same_key_identical_streams(self):
        a = trial_rng(9, 4, 1, 2, "channel").standard_normal(16)
        b = trial_rng(9, 4, 1, 2, "channel").standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_trial_index_separates_streams(self):
        a = trial_rng(9, 4, 1, 2, "channel").standard_normal(16)
        b = trial_rng(9, 5, 1, 2, "channel").standard_normal(16)
        assert np.all(a != b)

    def test_all_key_fields_matter(self):
        base = trial_rng(9, 4, 1, 2, "channel").standard_normal(8)
        for args in [(8, 4, 1, 2), (9, 4, 0, 2), (9, 4, 1, 3)]:
            other = trial_rng(*args, "channel").standard_normal(8)
            assert np.any(base != other)

    @pytest.mark.parametrize("master_seed", [0, 9, 2**32 - 1, 2**32, 2**40 + 3])
    def test_stream_is_seedsequence_of_the_key_tuple(self, master_seed):
        keys = [(0, 0, 0, "beta"), (4, 1, 2, "channel"), (70000, 3, 9, "bits")]
        for trial, l, k, purpose in keys:
            key = (master_seed, trial, l, k, PURPOSES[purpose])
            want = np.random.default_rng(np.random.SeedSequence(key)).standard_normal(8)
            got = trial_rng(master_seed, trial, l, k, purpose).standard_normal(8)
            np.testing.assert_array_equal(got, want)

    def test_purposes_separate_streams(self):
        draws = {
            name: trial_rng(1, 2, 3, 4, name).standard_normal(8)
            for name in PURPOSES
        }
        names = list(draws)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                assert np.any(draws[a] != draws[b])


class TestStreamStates:
    """The batched states are the ones numpy's own construction starts from."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0xFFFFFFFF, 2**32])),
        trials=st.lists(
            st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([0xFFFFFFFF, 2**32])),
            min_size=1,
            max_size=4,
        ),
        fields=st.lists(
            st.tuples(
                st.integers(0, 63), st.integers(0, 63), st.sampled_from(sorted(PURPOSES.values()))
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_states_are_pcg64_of_the_seedsequence(self, seed, trials, fields):
        keys = [(seed, t, *f) for t in trials for f in fields]
        want = [np.random.SeedSequence(key).generate_state(4, np.uint64) for key in keys]
        words = stream_states(seed, trials, fields)
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(words, np.array(want))
        streams = list(_streams(seed, trials, fields))
        assert len(streams) == len(keys)
        for gen, key in zip(streams, keys):
            assert gen.bit_generator.state == np.random.PCG64(np.random.SeedSequence(key)).state

    def test_integers_after_a_stream_left_half_a_word(self):
        streams = _streams(77, [3], [(0, 1, PURPOSES["bits"]), (0, 2, PURPOSES["bits"])])
        first = next(streams)
        first.integers(0, 2, size=3)  # three 32-bit draws from two 64-bit outputs
        assert first.bit_generator.state["has_uint32"] == 1
        got = next(streams).integers(0, 2, size=5)
        want = seedsequence_rng((77, 3, 0, 2, PURPOSES["bits"])).integers(0, 2, size=5)
        np.testing.assert_array_equal(got, want)


class TestConfigValidation:
    def test_collects_every_violation(self):
        cfg = ScenarioConfig(L=0, K=0, trials=0, modulation="16qam")
        problems = cfg.validate("ber")
        assert len(problems) >= 4

    def test_rank_constraint_dual(self):
        cfg = ScenarioConfig(M=4, K=10, snr_grid_db=(0.0,))
        assert any("2M >= 4K" in p for p in cfg.validate("ber"))

    def test_rank_constraint_single(self):
        cfg = ScenarioConfig(M=2, K=4, antennas_per_user=1, snr_grid_db=(0.0,))
        assert any("M >= K" in p for p in cfg.validate("ber"))

    def test_mmse_skips_rank_constraint(self):
        cfg = ScenarioConfig(M=4, K=10, decoder="mmse", snr_grid_db=(0.0,))
        assert cfg.validate("ber") == []

    def test_se_grid_checked(self):
        cfg = ScenarioConfig(K=10, m_grid=(10, 50), rho_fixed=10.0)
        assert any("2M >= 4K" in p for p in cfg.validate("se"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_values_rejected(self, bad):
        cases = [
            ("ber", "snr_grid_db", ScenarioConfig(snr_grid_db=(0.0, bad))),
            ("ber", "noise_scale", ScenarioConfig(snr_grid_db=(0.0,), noise_scale=bad)),
            ("se", "rho_fixed", ScenarioConfig(m_grid=(64,), rho_fixed=bad)),
        ]
        for kind, name, cfg in cases:
            problems = cfg.validate(kind)
            assert len(problems) == 1 and problems[0].startswith(f"{name} "), problems
            assert "finite" in problems[0]

    @pytest.mark.parametrize("decoder", ["zf", "mmse"])
    @pytest.mark.parametrize("m", [0, -50])
    def test_se_grid_entries_at_least_one(self, decoder, m):
        cfg = ScenarioConfig(K=2, decoder=decoder, m_grid=(m, 50))
        assert f"m_grid entries must be >= 1, got ({m}, 50)" in cfg.validate("se")
        with pytest.raises(ConfigError):
            run_se_sweep(cfg)

    def test_sweep_raises_before_running(self):
        cfg = ScenarioConfig(M=4, K=10, snr_grid_db=(0.0,))
        with pytest.raises(ConfigError) as err:
            run_ber_sweep(cfg)
        assert err.value.problems

    @pytest.mark.parametrize(
        "decoder,snr_db",
        # rho overflows, rho underflows to 0 (ZF, then MMSE), MMSE loading 2/rho overflows
        [("zf", 4000.0), ("zf", -4000.0), ("mmse", -4000.0), ("mmse", -3200.0)],
    )
    def test_snr_outside_the_kernel_range_rejected(self, decoder, snr_db):
        cfg = ScenarioConfig(L=1, M=16, K=2, decoder=decoder, snr_grid_db=(0.0, snr_db), trials=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # validate neither raises nor warns
            problems = cfg.validate("ber")
        assert len(problems) == 1 and problems[0].startswith(f"snr_grid_db entries [{snr_db}] ")
        with pytest.raises(ConfigError):
            run_ber_sweep(cfg)

    @pytest.mark.parametrize(
        "overrides",
        # the MMSE loading overflows; 2 rho of single-antenna users overflows
        [dict(decoder="mmse", rho_fixed=1e-320), dict(antennas_per_user=1, rho_fixed=1e308)],
    )
    def test_se_rho_outside_the_kernel_range_rejected(self, overrides):
        cfg = ScenarioConfig(L=1, K=1, m_grid=(8,), trials=1, **overrides)
        problems = cfg.validate("se")
        assert len(problems) == 1 and problems[0].startswith("rho_fixed entries ")
        with pytest.raises(ConfigError):
            run_se_sweep(cfg)

    def test_zf_ignores_the_mmse_loading(self):
        cfg = ScenarioConfig(L=1, M=16, K=2, snr_grid_db=(-3200.0,), trials=2)
        assert cfg.validate("ber") == []
        assert run_ber_sweep(cfg).points[0].estimate.bits_total == 2 * cfg.bits_per_trial()

    def test_diag_checks_the_common_fields_and_the_rank(self):
        assert ScenarioConfig(L=1).validate("diag") == []
        problems = ScenarioConfig(L=1, M=2, K=4, master_seed=-1).validate("diag")
        assert [p.split()[0] for p in problems] == ["master_seed", "ZF"]

    @pytest.mark.parametrize("kind", ["ber", "se"])
    def test_noise_term_checked(self, kind):
        cfg = ScenarioConfig(snr_grid_db=(0.0,), m_grid=(64,), trials=2, noise_term="bogus")
        assert any("noise_term" in p and "'bogus'" in p for p in cfg.validate(kind))
        for term in (NOISE_SNR_SCALED, NOISE_UNIT):
            assert dataclasses.replace(cfg, noise_term=term).validate(kind) == []
        sweep = run_ber_sweep if kind == "ber" else run_se_sweep
        with pytest.raises(ConfigError):
            sweep(cfg)

    def test_fairness_pairing(self):
        dual = ScenarioConfig(modulation="bpsk", antennas_per_user=2)
        single = ScenarioConfig(modulation="4qam", antennas_per_user=1)
        assert dual.bits_per_user_per_slot() == single.bits_per_user_per_slot() == 2.0

    def test_trials_for_bits(self):
        cfg = ScenarioConfig(K=4, modulation="bpsk")  # 16 bits per block
        assert trials_for_bits(cfg, 100_000) == 6250
        assert trials_for_bits(cfg, 1) == 1


# (decoder, inversion, antennas per user, Gram order n at K = 2)
OPS_CASES = [
    ("zf", "exact", 2, 8),
    ("mmse", "neumann:2", 2, 8),
    ("zf", "neumann:3", 1, 2),
    ("mmse", "exact", 1, 2),
]


class TestBerSweep:
    def test_noiseless_exact_zf_is_error_free(self):
        cfg = ScenarioConfig(
            L=2, M=16, K=2, snr_grid_db=(-10.0, 0.0), trials=30,
            noise_scale=0.0, margin_trials=2,
        )
        result = run_ber_sweep(cfg)
        assert all(p.estimate.ber == 0.0 for p in result.points)

    def test_deep_noise_limit_is_coin_flipping(self):
        cfg = ScenarioConfig(
            L=2, M=16, K=2, snr_grid_db=(-60.0,),
            trials=trials_for_bits(ScenarioConfig(K=2), 100_000),
            margin_trials=1,
        )
        ber = run_ber_sweep(cfg).points[0].estimate.ber
        assert abs(ber - 0.5) < 0.02

    def test_identical_configs_reproduce(self):
        cfg = ScenarioConfig(L=2, M=16, K=2, snr_grid_db=(0.0, 5.0), trials=50, margin_trials=4)
        r1 = run_ber_sweep(cfg)
        r2 = run_ber_sweep(cfg)
        assert [p.estimate for p in r1.points] == [p.estimate for p in r2.points]
        assert [p.conv_margin_mean for p in r1.points] == [
            p.conv_margin_mean for p in r2.points
        ]

    def test_parallel_matches_serial(self, monkeypatch):
        # jobs are trial ranges over the whole grid: a window splits into
        # ranges when a sweep has fewer windows than workers. Reduction in
        # trial order keeps floats bit-identical and progress in grid order,
        # and a point shares its job's draws without changing its values.
        grid = (4.0, -2.0, 2.0, -2.0)
        cfg = ScenarioConfig(L=2, M=16, K=2, snr_grid_db=grid, trials=600, margin_trials=8)
        for chunk in (600, 256, 100):  # 1, 3 and 6 chunks a point
            monkeypatch.setattr(simulate, "TRIAL_CHUNK", chunk)
            alone = [
                run_ber_sweep(dataclasses.replace(cfg, snr_grid_db=(v,))).points[0]
                for v in grid
            ]
            assert alone[1] == alone[3]
            for workers in (1, 2, 3, 5):
                seen = []
                result = run_ber_sweep(cfg, workers=workers, progress=seen.append)
                assert [p.snr_db for p in seen] == list(grid), (chunk, workers)
                assert tuple(seen) == result.points == tuple(alone), (chunk, workers)

    def test_flops_and_margins_recorded(self):
        # each trial inverts L Grams of order n = 4K (dual-antenna users) or K
        for decoder, inversion, antennas, n in OPS_CASES:
            cfg = ScenarioConfig(
                L=2, M=16, K=2, decoder=decoder, inversion=Inversion.parse(inversion),
                antennas_per_user=antennas, snr_grid_db=(0.0, 6.0), trials=10,
                margin_trials=4,
            )
            want = tuple(cfg.trials * cfg.L * c for c in cfg.inversion.ops(n))
            for workers in (1, 2):
                for point in run_ber_sweep(cfg, workers=workers).points:
                    assert (point.complex_mults, point.complex_divs, point.complex_adds) == want
                    assert np.isfinite(point.conv_margin_mean)

    def test_neumann_runs_and_counts_less(self):
        base = dict(L=2, M=16, K=2, snr_grid_db=(0.0,), trials=10, margin_trials=1)
        exact = run_ber_sweep(ScenarioConfig(**base)).points[0]
        cheap = run_ber_sweep(
            ScenarioConfig(inversion=Inversion.neumann(2), **base)
        ).points[0]
        assert cheap.complex_mults < exact.complex_mults

    def test_single_antenna_chain_runs(self):
        cfg = ScenarioConfig(
            L=2, M=8, K=2, antennas_per_user=1, modulation="4qam",
            snr_grid_db=(20.0,), trials=40, margin_trials=2,
        )
        point = run_ber_sweep(cfg).points[0]
        assert point.estimate.bits_total == 40 * 2 * 2
        assert point.estimate.ber < 0.2

    def test_mmse_beats_zf_at_low_snr(self):
        base = dict(L=2, M=16, K=4, snr_grid_db=(-5.0,), trials=400, margin_trials=1)
        zf = run_ber_sweep(ScenarioConfig(decoder="zf", **base)).points[0]
        mmse = run_ber_sweep(ScenarioConfig(decoder="mmse", **base)).points[0]
        assert mmse.estimate.ber < zf.estimate.ber


class TestSeSweep:
    def test_se_grows_with_antennas(self):
        cfg = ScenarioConfig(L=1, K=1, m_grid=(4, 8, 16, 32), trials=100, margin_trials=4)
        points = run_se_sweep(cfg).points
        values = [p.se_sum for p in points]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_dual_beats_single_at_matched_setup(self):
        dual = ScenarioConfig(L=2, K=2, m_grid=(32,), trials=50, margin_trials=2)
        single = dataclasses.replace(
            dual, antennas_per_user=1, modulation="4qam"
        )
        se_dual = run_se_sweep(dual).points[0].se_sum
        se_single = run_se_sweep(single).points[0].se_sum
        assert se_dual > se_single

    def test_parallel_matches_serial(self, monkeypatch):
        # as for BER: jobs are trial ranges over the whole M grid, and each
        # trial is drawn once at the largest M, so a point's values do not
        # depend on the rest of the grid, the split or the worker count.
        grid = (16, 8, 12, 8)
        cfg = ScenarioConfig(L=2, K=2, m_grid=grid, trials=600, margin_trials=8)
        for chunk in (600, 256, 100):  # 1, 3 and 6 windows
            monkeypatch.setattr(simulate, "TRIAL_CHUNK", chunk)
            alone = [run_se_sweep(dataclasses.replace(cfg, m_grid=(m,))).points[0] for m in grid]
            assert alone[1] == alone[3]
            for workers in (1, 2, 3, 5):
                seen = []
                result = run_se_sweep(cfg, workers=workers, progress=seen.append)
                assert [p.m for p in seen] == list(grid), (chunk, workers)
                assert tuple(seen) == result.points == tuple(alone), (chunk, workers)

    def test_rejects_invalid_grid(self):
        cfg = ScenarioConfig(K=10, m_grid=(), rho_fixed=10.0)
        with pytest.raises(ConfigError):
            run_se_sweep(cfg)

    def test_flops_recorded(self):
        for decoder, inversion, antennas, n in OPS_CASES:
            cfg = ScenarioConfig(
                L=2, K=2, decoder=decoder, inversion=Inversion.parse(inversion),
                antennas_per_user=antennas, m_grid=(16, 8, 16), trials=10,
            )
            want = tuple(cfg.trials * cfg.L * c for c in cfg.inversion.ops(n))
            for workers in (1, 2):
                for point in run_se_sweep(cfg, workers=workers).points:
                    assert (point.complex_mults, point.complex_divs, point.complex_adds) == want

    @pytest.mark.parametrize("noise_term", [NOISE_SNR_SCALED, NOISE_UNIT])
    def test_exact_zf_matches_the_gamma_oracle(self, noise_term):
        """One BS, exact ZF, single-antenna users: G = H diag(beta) with H
        i.i.d. CN(0, 1), so SINR_k = s beta_k^2 X_k, where
        X_k = 1/[(H^H H)^-1]_kk ~ Gamma(M - K + 1, 1) and s is 1 under the
        snr-scaled noise term (rho cancels) and rho under the unit one.

        The sweep's SE must lie within 3 standard errors of the mean, over
        the same trials' betas, of sum_k E[log2(1 + s beta_k^2 X)], by
        generalized Gauss-Laguerre quadrature; the standard error is that of
        the users' conditional Gamma variances. It must also lie above the
        ZF rate lower bound sum_k log2(1 + s beta_k^2 (M - K)), Jensen's
        inequality on E[1/X] = 1/(M - K).
        """
        K, grid, trials = 4, (8, 16, 64), 3000
        cfg = ScenarioConfig(
            L=1, K=K, antennas_per_user=1, modulation="4qam", m_grid=grid,
            trials=trials, margin_trials=1, master_seed=11, noise_term=noise_term,
        )
        points = run_se_sweep(cfg, workers=2).points
        scale = 1.0 if noise_term == NOISE_SNR_SCALED else cfg.rho_fixed
        betas = [
            oracle_draw_trial(cfg, K, t, ber=False).channels.profile.betas[0] for t in range(trials)
        ]
        gains = scale * np.square(betas)  # (trials, K)
        for m, point in zip(grid, points):
            # the weight x^(m-K) e^-x is the Gamma(m - K + 1, 1) density up to a constant
            x, w = roots_genlaguerre(80, m - K)
            w /= w.sum()
            rates = np.log2(1.0 + gains[..., None] * x)
            mean = rates @ w
            var = rates**2 @ w - mean**2
            reference = mean.sum(axis=1).mean()
            stderr = np.sqrt(var.sum()) / trials
            bound = np.log2(1.0 + gains * (m - K)).sum(axis=1).mean()
            assert abs(point.se_sum - reference) < 3 * stderr, (m, point.se_sum, reference, stderr)
            assert point.se_sum > bound and reference > bound, (m, point.se_sum, bound)


@pytest.mark.parametrize("kind", ["ber", "se"])
def test_uneven_splits_match_one_job_windows(kind):
    """Windows of 256 and 45 trials split 2 or 3 ways, unevenly.

    The margin sample ends past the first window, and a 3-way split moves
    the block edges (128 trials here) to 85 and 170. Every point still
    equals its one-point serial sweep, which runs each window as one job.
    """
    cfg = ScenarioConfig(
        L=2, M=16, K=2, snr_grid_db=(3.0, -4.0), m_grid=(12, 16), trials=301,
        margin_trials=260,
    )
    run = run_ber_sweep if kind == "ber" else run_se_sweep
    field = "snr_grid_db" if kind == "ber" else "m_grid"
    alone = [
        run(dataclasses.replace(cfg, **{field: (v,)})).points[0] for v in getattr(cfg, field)
    ]
    for workers in (3, 5):  # 2 and 3 jobs a window
        assert run(cfg, workers=workers).points == tuple(alone), workers


_real_ber_chunk = simulate._ber_chunk


def _chunk_failing_at(bad_lo, cfg, grid, lo, hi):
    """A BER job that raises on the trial range starting at ``bad_lo``."""
    if lo == bad_lo:
        raise SingularMatrixError(pivot=3)
    return _real_ber_chunk(cfg, grid, lo, hi)


def _chunk_noting_starts(log: str, bad_lo: int, cfg, grid, lo, hi):
    """``_chunk_failing_at``, appending "start lo" and "end lo" lines to ``log``."""
    with open(log, "a", encoding="ascii") as fh:
        fh.write(f"start {lo}\n")
    try:
        return _chunk_failing_at(bad_lo, cfg, grid, lo, hi)
    finally:
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"end {lo}\n")


def _chunk_killing(pid: int, cfg, grid, lo, hi):
    os.kill(pid, signal.SIGKILL)
    return _real_ber_chunk(cfg, grid, lo, hi)


# The affinity each job of this process ran under; a worker appends to its own copy.
_caller_masks = []


def _chunk_noting_affinity(cfg, grid, lo, hi):
    _caller_masks.append(os.sched_getaffinity(0))
    return _real_ber_chunk(cfg, grid, lo, hi)


class _PoolLog(list):
    """Sizes of the pools started, in order; ``shares`` holds each list of jobs sent to a worker."""

    def __init__(self):
        super().__init__()
        self.shares = []


@pytest.fixture
def pools(monkeypatch):
    """The size of every process pool a sweep starts, in order.

    The kept pool is dropped before and after the test, so only the pools
    this test starts are recorded.
    """
    log = _PoolLog()

    class RecordingPool(simulate._Pool):
        def __init__(self, size, cpus):
            log.append(size)
            super().__init__(size, cpus)

        def send(self, shares):
            log.shares.extend(shares)
            super().send(shares)

    simulate._close_pool()
    monkeypatch.setattr(simulate, "_Pool", RecordingPool)
    yield log
    simulate._close_pool()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie; an orphan's zombie waits on
    whichever process adopted it, so ``_alive`` would count it."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


def _pool_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


class TestCallerShare:
    """``workers`` counts the caller, which runs jobs 0, workers, 2 workers, ..."""

    @pytest.mark.parametrize(
        "trials,workers,sizes",
        [
            (1, 2, []),  # one job: run in the caller, not sent to a pool
            (1, 5, []),
            (300, 1, []),
            (2, 5, [1]),  # two non-empty ranges of five
            (600, 2, [1]),  # three windows
            (600, 3, [2]),
            (600, 5, [4]),  # six jobs, two a window
        ],
    )
    def test_pool_size(self, pools, trials, workers, sizes):
        cfg = ScenarioConfig(
            L=2, M=16, K=2, snr_grid_db=(0.0, 6.0), trials=trials, margin_trials=8
        )
        result = run_ber_sweep(cfg, workers=workers)
        assert pools == sizes
        assert result.points == run_ber_sweep(cfg).points

    def test_worker_w_gets_every_size_th_pooled_job(self, pools):
        # six one-window jobs, three workers: the caller runs jobs 0 and 3,
        # worker 0 jobs 1 and 4, worker 1 jobs 2 and 5, each as one list
        cfg = ScenarioConfig(L=2, M=16, K=2, snr_grid_db=(0.0,), trials=6 * 256, margin_trials=8)
        run_ber_sweep(cfg, workers=3)
        assert [[call[3:] for call in share] for share in pools.shares] == [
            [(256, 512), (1024, 1280)], [(512, 768), (1280, 1536)]
        ]

    @pytest.mark.parametrize("bad_lo,in_pool", [(0, False), (512, False), (256, True)])
    def test_job_error_surfaces_intact(self, monkeypatch, pools, bad_lo, in_pool):
        # 600 trials, two workers: the caller runs the ranges starting at 0
        # and 512, the pool the one at 256; a pool error carries the
        # worker's traceback as its cause
        monkeypatch.setattr(simulate, "_ber_chunk", partial(_chunk_failing_at, bad_lo))
        cfg = ScenarioConfig(L=2, M=16, K=2, snr_grid_db=(0.0,), trials=600)
        with pytest.raises(SingularMatrixError) as err:
            run_ber_sweep(cfg, workers=2)
        assert err.value.pivot == 3
        assert str(err.value) == str(SingularMatrixError(pivot=3))
        assert (err.value.__cause__ is not None) == in_pool
        if in_pool:
            assert "_chunk_failing_at" in str(err.value.__cause__)  # the worker's traceback
        assert pools == [1]


class TestPoolReuse:
    """One pool serves every parallel sweep of a process until it must change."""

    cfg = ScenarioConfig(L=2, M=16, K=2, snr_grid_db=(0.0, 6.0), trials=600, margin_trials=8)

    def test_sweeps_in_a_row_share_one_pool(self, pools):
        first = run_ber_sweep(self.cfg, workers=2)
        workers = _pool_pids()
        second = run_ber_sweep(self.cfg, workers=2)
        assert pools == [1]
        assert _pool_pids() == workers and len(workers) == 1
        assert first.points == second.points == run_ber_sweep(self.cfg).points

    def test_other_worker_count_replaces_the_pool(self, pools):
        run_ber_sweep(self.cfg, workers=2)
        old = _pool_pids()
        result = run_ber_sweep(self.cfg, workers=3)
        new = _pool_pids()
        assert pools == [1, 2]
        assert len(new) == 2 and old.isdisjoint(new)
        assert not any(_alive(pid) for pid in old)
        assert result.points == run_ber_sweep(self.cfg).points

    @pytest.mark.parametrize("bad_lo", [0, 64])
    def test_next_sweep_after_a_job_error_succeeds(self, monkeypatch, pools, tmp_path, bad_lo):
        # 24 windows, two workers: the caller runs the even jobs, the pool
        # the odd ones; a failed sweep leaves no job of its own running. Only
        # the caller reads TRIAL_CHUNK. The failing job is passed in, not
        # patched into the module, which the kept workers would go on reading.
        monkeypatch.setattr(simulate, "TRIAL_CHUNK", 64)
        cfg = dataclasses.replace(self.cfg, trials=24 * 64)
        log = tmp_path / "jobs.log"
        failing = partial(_chunk_noting_starts, str(log), bad_lo)
        grid = cfg.snr_grid_db
        with pytest.raises(SingularMatrixError):
            simulate._sweep("ber", cfg, grid, failing, simulate._ber_point, 2, None)
        assert sum(len(share) for share in pools.shares) == 12
        events = [line.split() for line in log.read_text(encoding="ascii").splitlines()]
        started = {int(lo) for what, lo in events if what == "start" and int(lo) // 64 % 2}
        ended = {int(lo) for what, lo in events if what == "end" and int(lo) // 64 % 2}
        assert started == ended  # every pooled job that started has ended
        if bad_lo == 0:  # the caller fails first, with pool jobs still pending
            assert len(started) < 12
        else:
            assert bad_lo in started
        assert run_ber_sweep(cfg, workers=2).points == run_ber_sweep(cfg).points
        assert pools == [1]

    def test_killed_worker_is_replaced(self, pools):
        serial = run_ber_sweep(self.cfg).points
        assert run_ber_sweep(self.cfg, workers=2).points == serial
        (pid,) = _pool_pids()
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        # the next sweep finds the worker dead, reaps it and forks a new pool
        assert run_ber_sweep(self.cfg, workers=2).points == serial
        assert pools == [1, 1]
        assert pid not in _pool_pids()
        assert not _alive(pid)

    def test_worker_dying_mid_sweep_is_reported(self, pools):
        serial = run_ber_sweep(self.cfg).points
        run_ber_sweep(self.cfg, workers=2)
        (pid,) = _pool_pids()
        # whichever process runs its job first kills the worker
        killing = partial(_chunk_killing, pid)
        grid = self.cfg.snr_grid_db
        with pytest.raises(RuntimeError, match=f"pool worker {pid} died mid-sweep"):
            simulate._sweep("ber", self.cfg, grid, killing, simulate._ber_point, 2, None)
        assert not _alive(pid)  # the pool was dropped and its worker reaped
        assert run_ber_sweep(self.cfg, workers=2).points == serial
        assert pools == [1, 1]


@pytest.fixture
def few_cpus():
    """Up to three of this thread's CPUs, set as its affinity for the test."""
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)[:3]
    os.sched_setaffinity(0, cpus)
    simulate._close_pool()
    _caller_masks.clear()
    yield cpus
    simulate._close_pool()
    os.sched_setaffinity(0, mask)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity calls here")
class TestPinning:
    """A sweep whose processes fill its CPUs gives each one a CPU of its own."""

    cfg = ScenarioConfig(L=2, M=16, K=2, snr_grid_db=(0.0,), trials=600, margin_trials=8)

    def _sweep(self, workers, run_chunk=_chunk_noting_affinity):
        grid = self.cfg.snr_grid_db
        return simulate._sweep("ber", self.cfg, grid, run_chunk, simulate._ber_point, workers, None)

    def test_each_process_runs_on_its_own_cpu(self, few_cpus):
        if len(few_cpus) < 2:
            pytest.skip("one CPU: nothing to pin")
        result = self._sweep(len(few_cpus))
        masks = [os.sched_getaffinity(pid) for pid in _pool_pids()]
        assert len(masks) == len(few_cpus) - 1
        assert all(len(mask) == 1 for mask in masks)
        assert set().union(*masks) == set(few_cpus[1:])
        assert _caller_masks and all(mask == {few_cpus[0]} for mask in _caller_masks)
        assert os.sched_getaffinity(0) == set(few_cpus)  # restored after the sweep
        assert result.points == run_ber_sweep(self.cfg).points
        # and after a sweep whose caller job fails
        with pytest.raises(SingularMatrixError):
            self._sweep(len(few_cpus), partial(_chunk_failing_at, 0))
        assert os.sched_getaffinity(0) == set(few_cpus)

    def test_nothing_is_pinned_when_workers_differ_from_the_cpus(self, few_cpus):
        result = self._sweep(len(few_cpus) + 1)
        masks = [os.sched_getaffinity(pid) for pid in _pool_pids()]
        assert len(masks) == len(few_cpus)
        assert all(mask == set(few_cpus) for mask in masks)
        assert _caller_masks and all(mask == set(few_cpus) for mask in _caller_masks)
        assert result.points == run_ber_sweep(self.cfg).points

    def test_nothing_is_pinned_without_the_affinity_call(self, few_cpus, monkeypatch):
        monkeypatch.delattr(os, "sched_setaffinity")
        assert simulate._pinned_cpus(len(few_cpus)) == ()


class TestPresets:
    def test_desk_preset_is_valid(self):
        cfg = desk_ber_config()
        assert cfg.validate("ber") == []
        assert cfg.M == 64 and cfg.K == 4 and cfg.L == 4
        assert len(cfg.snr_grid_db) == 11

    def test_full_preset_is_valid_but_not_run_here(self):
        cfg = full_ber_config()
        assert cfg.validate("ber") == []
        assert cfg.M == 256 and cfg.K == 10

    def test_se_preset_covers_grid(self):
        cfg = se_sweep_config()
        assert cfg.validate("se") == []
        assert cfg.m_grid == tuple(range(50, 550, 50))
        assert cfg.rho_fixed == 10.0


class TestWorkerErrors:
    """Errors raised in a worker process reach the parent through pickle."""

    @pytest.mark.parametrize(
        "error,attribute",
        [
            (SingularMatrixError(3), "pivot"),
            (DegenerateSplitError(5), "index"),
            (ConfigError(["M must be >= 1", "K must be >= 1"]), "problems"),
        ],
    )
    def test_pickle_round_trip_keeps_message(self, error, attribute):
        restored = pickle.loads(pickle.dumps(error))
        assert type(restored) is type(error)
        assert str(restored) == str(error)
        assert getattr(restored, attribute) == getattr(error, attribute)


def _run_python(code: str, env: dict, *args: str) -> str:
    """stdout of ``python -c code args`` with this checkout's ``src`` on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env={**env, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return out.stdout.strip()


class TestBlasThreadDefault:
    def _blas_threads(self, env):
        return _run_python("import cfstbc, os; print(os.environ['OPENBLAS_NUM_THREADS'])", env)

    def test_single_threaded_unless_set(self):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        assert self._blas_threads(env) == "1"
        assert self._blas_threads({**env, "OPENBLAS_NUM_THREADS": "3"}) == "3"


def test_exact_sweep_imports_no_scipy():
    code = (
        "import sys; from cfstbc import ScenarioConfig, run_ber_sweep; "
        "run_ber_sweep(ScenarioConfig(L=2, M=16, K=2, snr_grid_db=(0.0,), trials=1)); "
        "print('scipy' in sys.modules)"
    )
    assert _run_python(code, dict(os.environ)) == "False"


def test_one_job_sweep_imports_no_pool_machinery():
    # a one-trial sweep is one job, whatever ``workers`` says: no pool to fork
    code = (
        "import sys; from cfstbc import ScenarioConfig, cli, run_ber_sweep; "
        "run_ber_sweep(ScenarioConfig(L=2, M=16, K=2, snr_grid_db=(0.0,), trials=1), workers=2); "
        "print(*(m in sys.modules for m in ('multiprocessing', 'concurrent.futures')))"
    )
    assert _run_python(code, dict(os.environ)) == "False False"


def test_no_worker_outlives_its_process():
    code = (
        "import multiprocessing\n"
        "from cfstbc import ScenarioConfig, run_ber_sweep\n"
        "cfg = ScenarioConfig(L=2, M=16, K=2, snr_grid_db=(0.0,), trials=600, margin_trials=1)\n"
        "for _ in range(2):\n"
        "    run_ber_sweep(cfg, workers=3)\n"
        "    print(*sorted(p.pid for p in multiprocessing.active_children()))\n"
    )
    first, second = _run_python(code, dict(os.environ)).splitlines()
    assert first == second  # the second sweep reused the first one's pool
    pids = [int(pid) for pid in first.split()]
    assert len(pids) == 2
    assert not any(_alive(pid) for pid in pids)


# Forks a pool of two workers, prints their pids, then starts a sweep of
# 3,000 jobs, each worker's 1,000 about half a minute of work, which the
# test kills with SIGKILL.
_KILLED_MID_SWEEP = """
import dataclasses, multiprocessing
from cfstbc import ScenarioConfig, run_ber_sweep
cfg = ScenarioConfig(L=2, M=16, K=2, snr_grid_db=(0.0,), trials=600, margin_trials=1)
run_ber_sweep(cfg, workers=3)
print(*sorted(p.pid for p in multiprocessing.active_children()), flush=True)
run_ber_sweep(dataclasses.replace(cfg, trials=3000 * 256), workers=3)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc/<pid>/stat")
def test_workers_exit_when_their_caller_is_killed():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLED_MID_SWEEP], env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, text=True,
    )
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        time.sleep(0.5)  # into the long sweep
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert len(pids) == 2
    assert proc.returncode == -signal.SIGKILL  # killed, not finished
    # each worker reads EOF on its pipe after its current job and exits,
    # long before the rest of its list would end
    deadline = time.monotonic() + 10
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if _running(pid)]
    for pid in left:  # leave no orphan behind a failure
        os.kill(pid, signal.SIGKILL)
    assert not left


_GLIBC_64 = platform.libc_ver()[0] == "glibc" and sys.maxsize > 2**32

# Two identical full-scale BER sweeps (8 trials, 2 SNRs) in a fresh process,
# through the CLI or the library. Prints the minor page faults of the second
# sweep per (trial, point): the caller's when serial, else the pool's one
# worker's (field 10 of /proc/<pid>/stat), which decodes trials 4-7.
_SECOND_SWEEP_FAULTS = """
import multiprocessing, resource, sys
from cfstbc import Inversion, ScenarioConfig, cli, run_ber_sweep
entry, workers, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
cfg = ScenarioConfig(M=256, K=10, L=4, snr_grid_db=(0.0, 5.0), trials=8,
                     margin_trials=2, inversion=Inversion.neumann(2))
argv = ["ber", "--M", "256", "--K", "10", "--L", "4", "--snr-db", "0,5", "--trials", "8",
        "--margin-trials", "2", "--inversion", "neumann:2", "--workers", str(workers),
        "--quiet", "--out", out]
def sweep():
    if entry == "cli":
        assert cli.main(argv) == 0
    else:
        run_ber_sweep(cfg, workers=workers)
def faults():
    if workers == 1:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt, 16
    (worker,) = multiprocessing.active_children()
    with open(f"/proc/{worker.pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[7]), 8
sweep()
before, _ = faults()
sweep()
after, per = faults()
print((after - before) / per)
"""


@pytest.mark.skipif(not _GLIBC_64, reason="mallopt thresholds are glibc's, 64-bit")
class TestHeapKept:
    """Without the pinned thresholds a full-scale trial's arrays fault their
    pages in again on every trial: the caller read ~130 faults per (trial,
    point) and the worker ~118, against ~1 and ~3 with them."""

    BOUND = 20

    def _faults(self, tmp_path, entry, workers):
        env = {k: v for k, v in os.environ.items() if k != "CFSTBC_MAX_WORKERS"}
        out = str(tmp_path / "faults.csv")
        return float(_run_python(_SECOND_SWEEP_FAULTS, env, entry, str(workers), out))

    def test_the_cli_process_keeps_its_heap(self, tmp_path):
        assert self._faults(tmp_path, "cli", 1) < self.BOUND

    @pytest.mark.parametrize("entry", ["cli", "library"])
    def test_pool_workers_keep_their_heap(self, tmp_path, entry):
        # through the library only the worker itself pins its heap, at start
        assert self._faults(tmp_path, entry, 2) < self.BOUND


class TestPinHeap:
    ONE_TRIAL = "ber --M 8 --K 1 --L 1 --snr-db 0 --trials 1 --workers 1 --quiet --out".split()

    @staticmethod
    def _libc(**symbols):
        """A stand-in for ``ctypes.CDLL`` whose library exports ``symbols``."""

        def load(name):
            assert name is None  # the process's own symbols
            return SimpleNamespace(**symbols)

        return load

    def test_without_mallopt_it_is_a_silent_no_op(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(ctypes, "CDLL", self._libc())  # as on macOS
        assert simulate._pin_heap() is False
        assert simulate._pin_heap() is False
        out = tmp_path / "one.csv"
        assert cli.main(self.ONE_TRIAL + [str(out)]) == 0
        assert out.exists()
        assert capsys.readouterr() == ("", "")

    def test_a_refused_threshold_is_reported(self, monkeypatch):
        def mallopt(param, value):
            return 0

        monkeypatch.setattr(ctypes, "CDLL", self._libc(mallopt=mallopt))
        assert simulate._pin_heap() is False

    def test_only_the_cli_sets_the_thresholds(self, monkeypatch, tmp_path):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", self._libc(mallopt=mallopt))
        monkeypatch.setattr(cli, "_heap_pinned", False)  # as in a fresh process
        run_ber_sweep(ScenarioConfig(L=1, M=8, K=1, snr_grid_db=(0.0,), trials=1))
        assert calls == []  # an embedding process is left as it is
        assert cli.main(self.ONE_TRIAL + [str(tmp_path / "one.csv")]) == 0
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        assert cli.main(self.ONE_TRIAL + [str(tmp_path / "two.csv")]) == 0
        assert len(calls) == 2  # once per process

    @pytest.mark.skipif(not _GLIBC_64, reason="mallopt thresholds are glibc's, 64-bit")
    def test_glibc_accepts_it_again(self):
        assert simulate._pin_heap() is True
        assert simulate._pin_heap() is True
