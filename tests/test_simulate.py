import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfstbc import (
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
from cfstbc.simulate import PURPOSES, desk_ber_config, full_ber_config, se_sweep_config


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

    def test_sweep_raises_before_running(self):
        cfg = ScenarioConfig(M=4, K=10, snr_grid_db=(0.0,))
        with pytest.raises(ConfigError) as err:
            run_ber_sweep(cfg)
        assert err.value.problems

    def test_fairness_pairing(self):
        dual = ScenarioConfig(modulation="bpsk", antennas_per_user=2)
        single = ScenarioConfig(modulation="4qam", antennas_per_user=1)
        assert dual.bits_per_user_per_slot() == single.bits_per_user_per_slot() == 2.0

    def test_trials_for_bits(self):
        cfg = ScenarioConfig(K=4, modulation="bpsk")  # 16 bits per block
        assert trials_for_bits(cfg, 100_000) == 6250
        assert trials_for_bits(cfg, 1) == 1


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

    def test_parallel_matches_serial(self):
        # the pool gets every (point, chunk) pair at once; chunked reduction
        # in trial order keeps floats bit-identical and progress in grid order
        cfg = ScenarioConfig(
            L=2, M=16, K=2, snr_grid_db=(4.0, -2.0, 2.0), trials=600, margin_trials=8
        )
        serial = run_ber_sweep(cfg, workers=1)
        seen = []
        parallel = run_ber_sweep(cfg, workers=2, progress=seen.append)
        assert [p.snr_db for p in seen] == [4.0, -2.0, 2.0]
        assert tuple(seen) == parallel.points
        for s, p in zip(serial.points, parallel.points):
            assert s.estimate == p.estimate
            assert s.conv_margin_mean == p.conv_margin_mean
            assert s.complex_mults == p.complex_mults

    def test_flops_and_margins_recorded(self):
        cfg = ScenarioConfig(L=2, M=16, K=2, snr_grid_db=(0.0,), trials=10, margin_trials=4)
        point = run_ber_sweep(cfg).points[0]
        assert point.complex_mults > 0
        assert point.complex_divs > 0
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

    def test_parallel_matches_serial(self):
        cfg = ScenarioConfig(L=2, K=2, m_grid=(8, 16), trials=400, margin_trials=8)
        serial = run_se_sweep(cfg, workers=1)
        parallel = run_se_sweep(cfg, workers=2)
        for a, b in zip(serial.points, parallel.points):
            assert a == b

    def test_rejects_invalid_grid(self):
        cfg = ScenarioConfig(K=10, m_grid=(), rho_fixed=10.0)
        with pytest.raises(ConfigError):
            run_se_sweep(cfg)


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


class TestBlasThreadDefault:
    def _blas_threads(self, env):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**env, "PYTHONPATH": str(src)}
        code = "import cfstbc, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        return out.stdout.strip()

    def test_single_threaded_unless_set(self):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        assert self._blas_threads(env) == "1"
        assert self._blas_threads({**env, "OPENBLAS_NUM_THREADS": "3"}) == "3"
