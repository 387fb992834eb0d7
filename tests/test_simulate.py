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
from concurrent.futures import ProcessPoolExecutor
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
    draw_trial,
    full_ber_config,
    se_sweep_config,
    stream_states,
)
from helpers import seedsequence_rng


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
        want = []
        for t in trials:
            for f in fields:
                state = np.random.PCG64(np.random.SeedSequence((seed, t, *f))).state["state"]
                want.append((state["state"], state["inc"]))
        assert list(stream_states(seed, trials, fields)) == want

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
        betas = [draw_trial(cfg, K, t, ber=False).channels.profile.betas[0] for t in range(trials)]
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


class _PoolLog(list):
    """Sizes of the pools started, in order; ``futures`` holds every job submitted."""

    def __init__(self):
        super().__init__()
        self.futures = []


@pytest.fixture
def pools(monkeypatch):
    """The size of every process pool a sweep starts, in order.

    The kept pool is dropped before and after the test, so only the pools
    this test starts are recorded.
    """
    log = _PoolLog()

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **options):
            log.append(max_workers)
            super().__init__(max_workers=max_workers, **options)

        def submit(self, *args):
            log.futures.append(super().submit(*args))
            return log.futures[-1]

    simulate._close_pool()
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
    yield log
    simulate._close_pool()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


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
    def test_next_sweep_after_a_job_error_succeeds(self, monkeypatch, pools, bad_lo):
        # 24 windows, two workers: the caller runs the even jobs, the pool
        # the odd ones; a failed sweep leaves no job of its own queued. Only
        # the caller reads TRIAL_CHUNK. The failing job is passed in, not
        # patched into the module, which the kept workers would go on reading.
        monkeypatch.setattr(simulate, "TRIAL_CHUNK", 64)
        cfg = dataclasses.replace(self.cfg, trials=24 * 64)
        failing = partial(_chunk_failing_at, bad_lo)
        grid = cfg.snr_grid_db
        with pytest.raises(SingularMatrixError):
            simulate._sweep("ber", cfg, grid, failing, simulate._ber_point, 2, None)
        assert len(pools.futures) == 12
        assert all(f.done() for f in pools.futures)
        if bad_lo == 0:  # the caller fails first, with pool jobs still pending
            assert any(f.cancelled() for f in pools.futures)
        assert run_ber_sweep(cfg, workers=2).points == run_ber_sweep(cfg).points
        assert pools == [1]

    def test_killed_worker_is_replaced(self, pools):
        serial = run_ber_sweep(self.cfg).points
        assert run_ber_sweep(self.cfg, workers=2).points == serial
        (pid,) = _pool_pids()
        os.kill(pid, signal.SIGKILL)
        # the pool's manager thread marks the pool broken, then reaps the worker
        deadline = time.monotonic() + 30
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _alive(pid)
        assert run_ber_sweep(self.cfg, workers=2).points == serial
        assert pools == [1, 1]
        assert pid not in _pool_pids()


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
        # through the library only the pool initializer pins the worker's heap
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
        run_ber_sweep(ScenarioConfig(L=1, M=8, K=1, snr_grid_db=(0.0,), trials=1))
        assert calls == []  # an embedding process is left as it is
        assert cli.main(self.ONE_TRIAL + [str(tmp_path / "one.csv")]) == 0
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    @pytest.mark.skipif(not _GLIBC_64, reason="mallopt thresholds are glibc's, 64-bit")
    def test_glibc_accepts_it_again(self):
        assert simulate._pin_heap() is True
        assert simulate._pin_heap() is True
