"""What a trial draws (``simulate._draw``/``_fading``) and the received-block oracle."""

import itertools

import numpy as np
import pytest

from cfstbc import ScenarioConfig
from helpers import kernel_draw, random_complex, seeded_rng
from reference import (
    ChannelRealization,
    LargeScaleProfile,
    draw_large_scale,
    draw_small_scale,
    received_block,
)


def drawn(seed, ber=False, **fields):
    """The kernel's (betas, h, bits, noise) of one trial, every stream one seeded generator."""
    cfg = ScenarioConfig(**fields)
    return kernel_draw(cfg, cfg.M, ber, itertools.repeat(seeded_rng(seed)))


def received_block_loop(channels, codes, rho, noise, l):
    """Triple-loop (m, k, t) oracle for the received block."""
    M = channels.num_bs_antennas
    T = noise.shape[1]
    Y = np.array(noise, dtype=complex, copy=True)
    for m in range(M):
        for t in range(T):
            for k in range(channels.num_users):
                beta = channels.profile.betas[l, k]
                for j in range(channels.antennas_per_user):
                    Y[m, t] += (
                        np.sqrt(rho / 2.0) * beta * channels.h[l, k, m, j] * codes[k, j, t]
                    )
    return Y


def make_realization(L, K, M, J, seed, betas=None):
    rng = seeded_rng(seed)
    if betas is None:
        profile = draw_large_scale(L, K, rng)
    else:
        profile = LargeScaleProfile(betas=betas)
    h = np.stack(
        [
            np.stack([draw_small_scale(M, J, rng) for _ in range(K)])
            for _ in range(L)
        ]
    )
    return ChannelRealization(h=h, profile=profile)


class TestLargeScale:
    def test_single_value_in_unit_interval(self):
        betas = drawn(0, L=1, K=1, M=1)[0]
        assert betas.shape == (1, 1)
        assert 0.0 <= betas[0, 0] <= 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_non_increasing(self, seed):
        betas = drawn(seed, L=6, K=9, M=1)[0]
        assert betas.shape == (6, 9)
        assert np.all(np.diff(betas, axis=1) <= 0)
        assert betas.min() >= 0 and betas.max() <= 1

    def test_order_statistic_means(self):
        # k-th largest of 10 uniforms has mean (11 - k) / 11; the standard
        # error of each mean over 20,000 rows is at most ~0.001
        betas = drawn(42, L=20_000, K=10, M=1, antennas_per_user=1)[0]
        expected = (10 - np.arange(10)) / 11.0
        np.testing.assert_allclose(betas.mean(axis=0), expected, atol=0.01)

    def test_rejects_bad_dims(self):
        # the oracles' one-call generator and its validated profile
        with pytest.raises(ValueError):
            draw_large_scale(0, 3, seeded_rng(0))
        with pytest.raises(ValueError):
            LargeScaleProfile(betas=np.array([[0.2, 0.9]]))  # increasing row


class TestSmallScale:
    def test_determinism(self):
        a = drawn(7, L=2, K=3, M=32)[1]
        b = drawn(7, L=2, K=3, M=32)[1]
        assert a.shape == (2, 3, 32, 2)
        np.testing.assert_array_equal(a, b)

    def test_unit_variance(self):
        h = drawn(1, L=1, K=1, M=100_000)[1]
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.02

    def test_zero_mean(self):
        h = drawn(2, L=1, K=1, M=100_000, antennas_per_user=1)[1]
        assert abs(np.mean(h)) < 0.01

    def test_real_imag_split_variance(self):
        h = drawn(3, L=1, K=1, M=200_000, antennas_per_user=1)[1]
        assert abs(np.var(h.real) - 0.5) < 0.01
        assert abs(np.var(h.imag) - 0.5) < 0.01


class TestNoise:
    def test_determinism(self):
        a = drawn(5, ber=True, L=2, K=1, M=16)[3]
        b = drawn(5, ber=True, L=2, K=1, M=16)[3]
        assert a.shape == (2, 16, 2)
        np.testing.assert_array_equal(a, b)

    def test_unit_variance(self):
        w = drawn(6, ber=True, L=1, K=1, M=100_000)[3]
        assert abs(np.mean(np.abs(w) ** 2) - 1.0) < 0.02

    def test_zero_mean(self):
        w = drawn(8, ber=True, L=1, K=1, M=100_000, antennas_per_user=1)[3]
        assert abs(np.mean(w)) < 0.01

    def test_real_imag_split_variance(self):
        w = drawn(9, ber=True, L=1, K=1, M=200_000, antennas_per_user=1)[3]
        assert abs(np.var(w.real) - 0.5) < 0.01
        assert abs(np.var(w.imag) - 0.5) < 0.01


class TestReceivedBlock:
    def test_no_users_gives_noise(self):
        profile = LargeScaleProfile(betas=np.zeros((1, 0)))
        channels = ChannelRealization(h=np.zeros((1, 0, 4, 2)), profile=profile)
        noise = random_complex(seeded_rng(0), 4, 2)
        Y = received_block(channels, np.zeros((0, 2, 2)), 1.0, noise, 0)
        np.testing.assert_array_equal(Y, noise)

    def test_identity_code_unit_gain(self):
        channels = make_realization(1, 1, 8, 2, seed=3, betas=np.ones((1, 1)))
        codes = np.eye(2, dtype=complex)[None]
        rho = 4.0
        Y = received_block(channels, codes, rho, np.zeros((8, 2)), 0)
        np.testing.assert_allclose(Y, np.sqrt(rho / 2.0) * channels.h[0, 0], atol=1e-14)

    def test_matches_triple_loop_oracle(self):
        channels = make_realization(2, 2, 6, 2, seed=9)
        codes = random_complex(seeded_rng(10), 2, 2, 2)
        noise = random_complex(seeded_rng(11), 6, 2)
        for l in range(2):
            Y = received_block(channels, codes, 3.0, noise, l)
            np.testing.assert_allclose(
                Y, received_block_loop(channels, codes, 3.0, noise, l), atol=1e-12
            )

    def test_linearity_in_codes(self):
        channels = make_realization(1, 2, 5, 2, seed=12)
        rng = seeded_rng(13)
        codes_a = random_complex(rng, 2, 2, 2)
        codes_b = random_complex(rng, 2, 2, 2)
        zero = np.zeros((5, 2))
        together = received_block(channels, codes_a + codes_b, 2.0, zero, 0)
        separate = received_block(channels, codes_a, 2.0, zero, 0) + received_block(
            channels, codes_b, 2.0, zero, 0
        )
        np.testing.assert_allclose(together, separate, atol=1e-12)

    def test_beta_scaling_is_exact(self):
        # power-of-two scaling commutes with rounding, so equality is exact
        base = make_realization(1, 2, 5, 2, seed=14)
        doubled = ChannelRealization(
            h=base.h, profile=LargeScaleProfile(betas=2.0 * base.profile.betas)
        )
        codes = random_complex(seeded_rng(15), 2, 2, 2)
        zero = np.zeros((5, 2))
        Y1 = received_block(base, codes, 1.0, zero, 0)
        Y2 = received_block(doubled, codes, 1.0, zero, 0)
        np.testing.assert_array_equal(Y2, 2.0 * Y1)

    def test_dimension_errors(self):
        channels = make_realization(1, 2, 5, 2, seed=16)
        codes = random_complex(seeded_rng(17), 2, 2, 2)
        with pytest.raises(ValueError):
            received_block(channels, codes, -1.0, np.zeros((5, 2)), 0)
        with pytest.raises(ValueError):
            received_block(channels, codes[:1], 1.0, np.zeros((5, 2)), 0)
        with pytest.raises(ValueError):
            received_block(channels, codes, 1.0, np.zeros((4, 2)), 0)
        with pytest.raises(ValueError):
            received_block(channels, codes, 1.0, np.zeros((5, 2)), 3)


class TestRealizationValidation:
    def test_rejects_nonfinite_entries(self):
        profile = LargeScaleProfile(betas=np.ones((1, 1)))
        h = np.zeros((1, 1, 2, 2), dtype=complex)
        h[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ChannelRealization(h=h, profile=profile)

    def test_rejects_mismatched_profile(self):
        profile = LargeScaleProfile(betas=np.ones((2, 1)))
        with pytest.raises(ValueError):
            ChannelRealization(h=np.zeros((1, 1, 2, 2)), profile=profile)
